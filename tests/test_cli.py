"""End-to-end command-line behavior, including exit codes."""

import argparse
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from mcads import netpbm
from mcads.cli import build_parser, main
from mcads.config import RunConfig
from mcads.data import save_dataset, synth_dataset
from mcads.network import SegmentationModel
from mcads.params import load_checkpoint


@pytest.fixture()
def desk_json(tmp_path):
    path = tmp_path / "desk.json"
    path.write_text(json.dumps({
        "model": {"encoder": {"stage_filters": [4, 4, 8, 8, 8, 8],
                              "rsu_depths": [4, 4, 3, 3, 3, 3]},
                  "decoder": {"rlab_iterations": [1, 1, 1, 1, 1]},
                  "block": {"attention_token_cap": 256}},
        "train": {"batch": 4, "epochs": 1},
        "data": {"synth_n": 2, "synth_hw": 64, "patch": 64, "stride": 32},
    }))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_errors_exit_1(capsys):
    assert run(["frobnicate"], capsys)[0] == 1
    assert run([], capsys)[0] == 1
    assert run(["train", "--bogus-flag"], capsys)[0] == 1


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
    code, _, err = run(["train", "--config", str(bad)], capsys)
    assert code == 1


def test_bad_set_override_exits_1(desk_json, capsys):
    code, _, _ = run(["summary", "--config", desk_json, "--no-macs",
                      "--set", "train.nonsense=1"], capsys)
    assert code == 1


def test_non_numeric_value_exits_1_before_training(desk_json, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, err = run(["train", "--config", desk_json, "--set", "train.lr=abc",
                        "--out", str(out_dir)], capsys)
    assert code == 1
    assert "train.lr" in err
    assert not out_dir.exists()


def test_tuple_length_change_exits_1(capsys):
    code, _, err = run(["summary", "--no-macs",
                        "--set", "model.decoder.rlab_iterations=[1,1]"], capsys)
    assert code == 1
    assert "model.decoder.rlab_iterations" in err


def test_unknown_upsampler_kind_exits_1(capsys):
    code, _, err = run(["summary", "--no-macs",
                        "--set", "model.decoder.upsampler.s1=foo"], capsys)
    assert code == 1
    assert "upsampler" in err and "'s1'" in err


@pytest.mark.parametrize("override, key", [
    ('model.encoder.stage_filters=[1,2,3,4,5,"x"]', "model.encoder.stage_filters"),
    ("model.decoder.rlab_iterations=[1,1,1,1,true]",
     "model.decoder.rlab_iterations"),
])
def test_non_integer_tuple_element_exits_1(override, key, capsys):
    code, _, err = run(["summary", "--no-macs", "--set", override], capsys)
    assert code == 1
    assert key in err


@pytest.mark.parametrize("override", [
    "model.block.leaky_slope=0.01",
    "model.block.cam_reduction=8",
    "model.block.bn_eps=0.001",
    "model.block.rlab_key_dim=4",
    "model.encoder.dilated_last_two=true",
    "model.encoder.stage_mid_filters=[4,4,4,4,4,4]",
])
def test_removed_model_keys_exit_1(override, capsys):
    code, _, err = run(["summary", "--no-macs", "--set", override], capsys)
    assert code == 1
    assert f"unknown config key '{override.split('=')[0]}'" in err


@pytest.mark.parametrize("argv, key", [
    (["summary", "--no-macs", "--set", "model.decoder.upsampler=null"],
     "model.decoder.upsampler"),
    (["summary", "--no-macs", "--set", "model.decoder.upsampler=[]"],
     "model.decoder.upsampler"),
    (["summary", "--no-macs", "--set", 'model.decoder.upsampler.s1=["eub"]'],
     "model.decoder.upsampler.s1"),
    (["summary", "--no-macs", "--set", 'model.decoder.upsampler={"s2": 3}'],
     "model.decoder.upsampler.s2"),
    (["train", "--set", "data.root=5"], "data.root"),
    (["train", "--set", "data.root=null"], "data.root"),
], ids=["map-null", "map-list", "kind-list", "kind-int", "root-int", "root-null"])
def test_non_string_values_exit_1(argv, key, desk_json, tmp_path, capsys,
                                  monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    extra = ["--json", "s.json"] if argv[0] == "summary" else ["--out", "run"]
    code, out, err = run(argv + extra + ["--config", desk_json], capsys)
    assert code == 1
    assert err.startswith("config error:") and f"'{key}'" in err
    assert "Traceback" not in err and out == ""
    assert not os.listdir(work)


@pytest.mark.parametrize("overrides, key", [
    (["data.patch=48", "data.stride=16"], "data.patch"),
    (["data.stride=0"], "data.stride"),
    (["data.stride=65"], "data.stride"),
    (["data.synth_hw=48"], "data.synth_hw"),
    (["train.batch=0"], "train.batch"),
    (["train.val_fraction=-0.5"], "train.val_fraction"),
    (["train.val_fraction=1"], "train.val_fraction"),
    (["model.encoder.rsu_depths=[4,4,2,3,3,3]"], "model.encoder.rsu_depths"),
    (["model.encoder.stage_filters=[0,4,8,8,8,8]"], "model.encoder.stage_filters"),
    (["model.encoder.input_channels=0"], "model.encoder.input_channels"),
    (["model.block.attention_token_cap=0"], "model.block.attention_token_cap"),
    (["train.epochs=-1"], "train.epochs"),
    (["train.lr=0"], "train.lr"),
    (["train.lr=-1"], "train.lr"),
    (["model.block.bn_momentum=2"], "model.block.bn_momentum"),
    (["model.block.bn_momentum=-0.1"], "model.block.bn_momentum"),
    (["eval.threshold=2"], "eval.threshold"),
    (["eval.threshold=-0.5"], "eval.threshold"),
    (["model.encoder.rsu_depths=[9,4,3,3,3,3]"], "data.patch"),
    (["data.patch=96", "data.synth_hw=96", "model.block.attention_token_cap=4"],
     "model.block.attention_token_cap"),
])
def test_bad_data_settings_exit_1_before_training(overrides, key, desk_json,
                                                  tmp_path, capsys):
    out_dir = tmp_path / "run"
    argv = ["train", "--config", desk_json, "--out", str(out_dir)]
    for item in overrides:
        argv += ["--set", item]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert key in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--skip-model", "--config", "/nonexistent.json"],
    ["eval", "--pred", "p", "--gt", "g", "--set", "train.epochs=1"],
    ["predict", "--checkpoint", "c.mct", "--image", "i.ppm", "--out", "m.pgm",
     "--seed", "3"],
    ["summary", "--no-macs", "--f64"],
    ["train", "--set", "train.epochs=0", "--f64"],
], ids=["gradcheck-config", "eval-set", "predict-seed", "summary-f64", "train-f64"])
def test_removed_flags_exit_1(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "unrecognized arguments" in err
    assert not os.listdir(tmp_path)


def test_readme_synopsis_lists_every_flag():
    """The README's command-line synopsis names exactly the flags each
    subcommand registers (continuation lines are indented)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    documented: dict = {}
    for line in block.strip().splitlines():
        if line.startswith("mcads "):
            command = documented.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z][a-z-]*", line))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    registered = {name: {o for a in p._actions for o in a.option_strings
                         if o != "--help" and o.startswith("--")}
                  for name, p in sub.choices.items()}
    assert documented == registered


def _config_keys(node, prefix=""):
    keys = set()
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value):
            keys |= _config_keys(value, f"{prefix}{f.name}.")
        else:
            keys.add(prefix + f.name)
    return keys


def test_readme_config_table_lists_every_key():
    """The README's configuration table names exactly the keys of RunConfig.
    A cell may list siblings after a dotted key by their last part."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names = re.findall(r"`([a-z0-9_.]+)`", line.split("|")[1])
            parent = names[0].rsplit(".", 1)[0]
            documented |= {n if "." in n else f"{parent}.{n}" for n in names}
    assert documented == _config_keys(RunConfig())
    assert len(documented) == 26


def test_missing_files_exit_2(desk_json, tmp_path, capsys):
    code, _, _ = run(["predict", "--config", desk_json,
                      "--checkpoint", str(tmp_path / "nope.mct"),
                      "--image", str(tmp_path / "nope.ppm"),
                      "--out", str(tmp_path / "m.pgm")], capsys)
    assert code == 2
    code, _, _ = run(["eval", "--pred", str(tmp_path / "void"),
                      "--gt", str(tmp_path / "void")], capsys)
    assert code == 2


def test_train_out_is_a_file_exits_2(desk_json, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    code, _, err = run(["train", "--config", desk_json,
                        "--set", "train.epochs=0", "--out", str(taken)], capsys)
    assert code == 2
    assert err.startswith("data error:") and str(taken) in err


def test_eval_out_is_a_directory_exits_2(tmp_path, capsys):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    box = np.zeros((8, 8, 1), np.float32)
    box[2:6, 2:6] = 1.0
    netpbm.write_mask(pred_dir / "a.pgm", box)
    netpbm.write_mask(gt_dir / "a.pgm", box)
    code, _, err = run(["eval", "--pred", str(pred_dir),
                        "--gt", str(gt_dir), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("data error:") and str(tmp_path) in err


def test_train_epoch_zero_checkpoint_is_init(desk_json, tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    code, out, _ = run(["train", "--config", desk_json, "--seed", "3",
                        "--set", "train.epochs=0", "--out", out_dir], capsys)
    assert code == 0
    state = load_checkpoint(os.path.join(out_dir, "best.mct"))
    from mcads.config import load_config
    cfg = load_config(desk_json)
    cfg.model.seed = 3
    fresh = SegmentationModel(cfg.model)
    for name, arr in fresh.store.state().items():
        np.testing.assert_array_equal(state[name], arr)


def test_train_determinism_same_seed(desk_json, tmp_path, capsys):
    logs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        code, _, _ = run(["train", "--config", desk_json, "--seed", "1",
                          "--set", "train.epochs=2",
                          "--out", str(out_dir)], capsys)
        assert code == 0
        logs.append((out_dir / "training_log.csv").read_text())
    assert logs[0] == logs[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_nan_aborts_exit_3(desk_json, tmp_path, capsys):
    code, _, err = run(["train", "--config", desk_json,
                        "--set", "train.lr=1e6", "--set", "train.epochs=40",
                        "--out", str(tmp_path / "run")], capsys)
    assert code == 3


def test_predict_writes_mask_and_prob(desk_json, tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    code, _, _ = run(["train", "--config", desk_json, "--seed", "0",
                      "--out", out_dir], capsys)
    assert code == 0
    (sample,) = synth_dataset(1, 64, np.random.default_rng(3))
    img_path = str(tmp_path / "img.ppm")
    netpbm.write_image(img_path, sample.image)
    mask_path = str(tmp_path / "mask.pgm")
    prob_path = str(tmp_path / "prob.pgm")
    code, out, _ = run(["predict", "--config", desk_json,
                        "--checkpoint", os.path.join(out_dir, "last.mct"),
                        "--image", img_path, "--out", mask_path,
                        "--prob", prob_path], capsys)
    assert code == 0
    mask = netpbm.read_mask(mask_path)
    assert mask.shape == (64, 64, 1)
    prob = netpbm.read_image(prob_path)
    assert prob.shape == (64, 64, 1)


def test_predict_checkpoint_mismatch_exit_2(desk_json, tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    code, _, _ = run(["train", "--config", desk_json,
                      "--set", "train.epochs=0",
                      "--set", "model.encoder.stage_filters=[2,2,4,4,4,4]",
                      "--out", out_dir], capsys)
    assert code == 0
    (sample,) = synth_dataset(1, 64, np.random.default_rng(3))
    img_path = str(tmp_path / "img.ppm")
    netpbm.write_image(img_path, sample.image)
    code, _, _ = run(["predict", "--config", desk_json,
                      "--checkpoint", os.path.join(out_dir, "last.mct"),
                      "--image", img_path,
                      "--out", str(tmp_path / "m.pgm")], capsys)
    assert code == 2


def test_eval_report_and_skips(tmp_path, capsys):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    box = np.zeros((8, 8, 1), np.float32)
    box[2:6, 2:6] = 1.0
    empty = np.zeros((8, 8, 1), np.float32)
    netpbm.write_mask(pred_dir / "a.pgm", box)
    netpbm.write_mask(gt_dir / "a.pgm", box)
    netpbm.write_mask(pred_dir / "b.pgm", empty)
    netpbm.write_mask(gt_dir / "b.pgm", box)
    report_path = tmp_path / "report.json"
    code, out, _ = run(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                        "--out", str(report_path)], capsys)
    assert code == 0
    rep = json.loads(report_path.read_text())
    assert rep["skipped_surface"] == 1
    byid = {r["id"]: r for r in rep["per_image"]}
    assert byid["a"]["iou"] == 1.0 and byid["a"]["hd95"] == 0.0
    assert byid["b"]["iou"] == 0.0 and "hd95" not in byid["b"]
    assert json.loads(out) == rep


def test_eval_id_mismatch_exit_2(tmp_path, capsys):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    box = np.zeros((8, 8, 1), np.float32)
    box[1:3, 1:3] = 1.0
    netpbm.write_mask(pred_dir / "a.pgm", box)
    netpbm.write_mask(gt_dir / "b.pgm", box)
    code, _, _ = run(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir)], capsys)
    assert code == 2


def test_train_on_saved_dataset(desk_json, tmp_path, capsys):
    root = tmp_path / "ds"
    save_dataset(root, synth_dataset(2, 64, np.random.default_rng(9)))
    code, out, _ = run(["train", "--config", desk_json,
                        "--set", f'data.root="{root}"',
                        "--out", str(tmp_path / "run")], capsys)
    assert code == 0


def test_gradcheck_fault_injection_detected(scale_grad_too_large, capsys):
    code, out, _ = run(["gradcheck", "--skip-model"], capsys)
    assert code == 3
    (row,) = [line for line in out.splitlines() if line.split()[0] == "scale"]
    assert row.endswith("FAIL")


def test_summary_counts_match_registry(desk_json, tmp_path, capsys):
    json_path = tmp_path / "summary.json"
    code, out, _ = run(["summary", "--config", desk_json, "--no-macs",
                        "--json", str(json_path)], capsys)
    assert code == 0
    rep = json.loads(json_path.read_text())
    from mcads.config import load_config
    cfg = load_config(desk_json)
    model = SegmentationModel(cfg.model)
    assert rep["total_parameters"] == model.store.count("", trainable_only=False)
    assert rep["total_trainable"] == model.store.count()
    assert rep["total_trainable"] == sum(g["trainable"] for g in rep["groups"].values())


@pytest.mark.parametrize("size, overrides", [
    ("160", ["data.patch=96", "data.synth_hw=96", "model.block.attention_token_cap=9"]),
    ("48", []),
    ("0", []),
    ("-32", []),
], ids=["cap-9-at-160", "48", "0", "-32"])
def test_summary_bad_input_size_exits_1(size, overrides, desk_json, tmp_path,
                                        capsys):
    json_path = tmp_path / "summary.json"
    argv = ["summary", "--config", desk_json, "--input-size", size,
            "--json", str(json_path)]
    for item in overrides:
        argv += ["--set", item]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert "--input-size" in err
    assert out == ""
    assert not json_path.exists()


def test_summary_ablation_drops_parameters(desk_json, capsys):
    code, full, _ = run(["summary", "--config", desk_json, "--no-macs"], capsys)
    assert code == 0
    code, ablated, _ = run(["summary", "--config", desk_json, "--no-macs",
                            "--set", "model.decoder.enable_rlab=false"], capsys)
    assert code == 0

    def total(text):
        for line in text.splitlines():
            if line.startswith("all"):
                return int(line.split()[1].replace(",", ""))
        raise AssertionError(f"no total line in {text!r}")

    assert total(ablated) < total(full)
