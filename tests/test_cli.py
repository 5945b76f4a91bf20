"""End-to-end command-line behavior, including exit codes."""

import argparse
import dataclasses
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcads
from mcads import cli, data, netpbm, params
from mcads.cli import build_parser, main
from mcads.config import (MAX_INPUT_SIDE, MAX_RLAB_ITERATIONS, MAX_STAGE_FILTERS,
                          MAX_SYNTH_N, ConfigError, RunConfig, _apply_dict,
                          _parse_override, load_config)
from mcads.data import synth_dataset
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


def test_importing_the_cli_loads_no_scipy_module():
    """scipy.ndimage (the synthetic set) and scipy.spatial (surface
    metrics) are imported by the functions that call them, so a command that
    needs neither, such as predict, does not pay for loading them."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcads.__file__)))
    child = ("import sys, mcads.cli\n"
             "print([m for m in sys.modules if m.split('.')[:2] in\n"
             "       (['scipy', 'ndimage'], ['scipy', 'spatial'])])\n")
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert out.stdout == "[]\n"


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
    # convtp, the transpose-conv baseline DSUB and EUB replace, is not a kind
    for kind in ("foo", "convtp"):
        kinds = json.dumps(["dsub", "dsub", "eub", "eub", kind])  # d5 .. d1
        code, _, err = run(["summary", "--no-macs",
                            "--set", f"model.decoder.upsampler={kinds}"], capsys)
        assert code == 1
        assert "'model.decoder.upsampler' entries must be one of" in err
        assert f'"{kind}"' in err


@pytest.mark.parametrize("override, key", [
    ("model.decoder.upsampler.s1=eub", "model.decoder.upsampler"),
    ('model.decoder.upsampler={"bridge": "dsub", "s4": "dsub", "s3": "eub", '
     '"s2": "eub", "s1": "eub"}', "model.decoder.upsampler"),
    ("model.block.attention_token_cap=null", "model.block.attention_token_cap"),
], ids=["stage-key", "map", "cap-null"])
def test_retired_spellings_exit_1(override, key, desk_json, tmp_path, capsys,
                                  monkeypatch):
    """The stage-keyed upsampler map and the null token cap are gone: each
    is a config error naming its key, and nothing is written."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for argv in (["summary", "--json", "s.json"], ["train", "--out", "run"]):
        code, out, err = run(argv + ["--config", desk_json, "--set", override],
                             capsys)
        assert (code, out) == (1, "")
        assert err.startswith("config error:") and f"'{key}'" in err
        assert "Traceback" not in err
        assert not os.listdir(work)


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
    (["summary", "--no-macs", "--set",
      'model.decoder.upsampler=["dsub","dsub","eub","eub",["eub"]]'],
     "model.decoder.upsampler"),
    (["summary", "--no-macs", "--set",
      'model.decoder.upsampler=["dsub","dsub","eub",3,"eub"]'],
     "model.decoder.upsampler"),
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
    (["data.synth_n=0"], "data.synth_n"),
    (["data.synth_n=-3"], "data.synth_n"),
    (["model.seed=-1"], "model.seed"),
    (["train.seed=-1"], "train.seed"),
    (["data.synth_seed=-1"], "data.synth_seed"),
    (["train.lr=Infinity"], "train.lr"),
    (["train.lr=1e400"], "train.lr"),
    (["model.decoder.rlab_iterations=[1,1,1,1,-1]"],
     "model.decoder.rlab_iterations"),
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


def test_empty_training_split_exits_2_before_writing(desk_json, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, err = run(["train", "--config", desk_json, "--out", str(out_dir),
                        "--set", "train.val_fraction=0.75"], capsys)
    assert code == 2
    assert "training split is empty" in err
    assert "train.val_fraction 0.75" in err and "2 samples" in err
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


HUGE = (1234567890123456789012, 2 ** 72)  # 22 digits; the second is 2^72
SWEEP_VALUES = ["null", "true", "false", "0", "1", "-1", "1e308", "1e400",
                "NaN", "Infinity", "-Infinity", '"text"', '"convtp"',
                "[1, 2]", '{"a": 1}'] + [str(v) for v in HUGE]
# the first value past each upper bound of a size: it must not load
SWEEP_PAST_BOUND = {"data.synth_n": MAX_SYNTH_N + 1,
                    "model.encoder.stage_filters": MAX_STAGE_FILTERS + 1,
                    "model.encoder.input_channels": MAX_STAGE_FILTERS + 1,
                    "model.decoder.rlab_iterations": MAX_RLAB_ITERATIONS + 1}
# an error may name the key whose rule the value broke: deeper RSUs raise the
# multiple data.patch must be, and --seed sets both seeds
SWEEP_ALSO_NAMED = {"model.encoder.rsu_depths": ("data.patch",),
                    "--seed": ("train.seed", "model.seed")}
# the per-stage paths of the retired stage-keyed upsampler map: no value of
# theirs loads, and each error names the list key and the stage
SWEEP_RETIRED = tuple(f"model.decoder.upsampler.{stage}"
                      for stage in ("bridge", "s4", "s3", "s2", "s1"))


def _sweep_names():
    return (sorted(_config_keys(RunConfig())) + list(SWEEP_RETIRED)
            + ["--seed", "--input-size"])


def _sweep_values(name):
    """SWEEP_VALUES, plus 64 for a flag (a valid --input-size), lists of
    its own length for a tuple, of integers and of strings (kinds or not),
    and the key's SWEEP_PAST_BOUND value (as a list for a tuple)."""
    if name.startswith("--"):
        return SWEEP_VALUES + ["64"]
    if name in SWEEP_RETIRED:
        return SWEEP_VALUES + ['"eub"', '"dsub"']
    node = operator.attrgetter(name)(RunConfig())
    past = (SWEEP_PAST_BOUND[name],) if name in SWEEP_PAST_BOUND else ()
    if not isinstance(node, tuple):
        return SWEEP_VALUES + [str(v) for v in past]
    return SWEEP_VALUES + [json.dumps([v] * len(node))
                           for v in (-1, 0, 1, 3, "eub", "convtp") + HUGE + past]


def _sweep_argv(name, raw, config):
    """The CLI call that reads `name` set to `raw`; it writes D or F."""
    if name == "--seed":
        return ["train", "--config", config, "--set", "train.epochs=0",
                "--seed", raw, "--out", "D"]
    if name == "--input-size":
        return ["summary", "--config", config, "--no-macs",
                "--input-size", raw, "--json", "F"]
    if name.startswith(("train.", "data.")):
        return ["train", "--config", config, "--set", "train.epochs=0",
                "--set", f"{name}={raw}", "--out", "D"]
    return ["summary", "--config", config, "--no-macs",
            "--set", f"{name}={raw}", "--json", "F"]


def _sweep_names_key(name, err):
    """`err` names `name` or a key in SWEEP_ALSO_NAMED; for a retired stage
    path, the quoted list key and the stage."""
    if name in SWEEP_RETIRED:
        key, _, stage = name.rpartition(".")
        return f"'{key}'" in err and f'"{stage}"' in err
    return name in err or any(k in err for k in SWEEP_ALSO_NAMED.get(name, ()))


@pytest.mark.parametrize("name", _sweep_names())
def test_every_value_runs_or_exits_1_naming_its_key(name, desk_json, tmp_path,
                                                     monkeypatch, capsys):
    """Each config path and config-reading flag, set to each sweep value,
    either loads and runs (exit 0) or exits 1 naming it and writing nothing.
    A flag value that is not an integer is a usage error naming the flag,
    and a data.root naming no directory is a data error (exit 2)."""
    flag = name.startswith("--")
    problems = []
    for i, raw in enumerate(_sweep_values(name)):
        loads = None
        if not flag:
            try:
                load_config(desk_json, [f"{name}={raw}"])
                loads = True
            except ConfigError as e:
                loads = False
                if not _sweep_names_key(name, str(e)):
                    problems.append(f"{raw}: load_config names no key: {e}")
            except Exception as e:
                problems.append(f"{raw}: load_config raised {e!r}")
                continue
            if loads and name in SWEEP_RETIRED:
                problems.append(f"{raw}: retired path loads")
            past = SWEEP_PAST_BOUND.get(name)
            if loads and past is not None and str(past) in raw:
                problems.append(f"{raw}: loads past its bound")
                continue
            # train.epochs stays out of the CLI runs, which pin it to 0
            if loads and name == "train.epochs":
                continue
        work = tmp_path / str(i)
        work.mkdir()
        monkeypatch.chdir(work)
        try:
            code = main(_sweep_argv(name, raw, desk_json))
        except Exception as e:
            problems.append(f"{raw}: cli raised {e!r}")
            continue
        err = capsys.readouterr().err
        written = os.listdir(work)
        if name == "data.root" and loads:
            ok = code == 2 and err.startswith("data error:") and not written
        elif code == 0:
            ok = loads is not False and bool(written)
        else:
            usage = flag and err.startswith("usage:")
            ok = (code == 1 and loads is not True and not written
                  and (err.startswith("config error:") or usage)
                  and _sweep_names_key(name, err))
        if not ok or "Traceback" in err:
            problems.append(f"{raw}: exit {code}, wrote {written}, {err!r}")
    assert not problems, "\n".join(problems)


# widths and depths small enough that every accepted sweep value builds fast
SMALL_MODEL = {"model": {"encoder": {"stage_filters": [4, 4, 8, 8, 8, 8],
                                     "rsu_depths": [3, 3, 3, 3, 3, 3]},
                         "decoder": {"rlab_iterations": [1, 1, 1, 1, 1]}}}


@pytest.mark.parametrize("name", sorted(k for k in _config_keys(RunConfig())
                                        if k.startswith("model.")))
def test_python_api_checks_what_load_config_checks(name):
    """Each sweep value of a model key, placed in a small model config as
    load_config places it, is accepted by both load_config and
    SegmentationModel, or rejected by both with the same ConfigError. The
    rules that also read data.patch belong to load_config alone."""
    problems = []
    for raw in _sweep_values(name):
        try:
            load_config(overrides=[f"{name}={raw}"])
            loaded = None
        except ConfigError as e:
            loaded = str(e)
        if loaded and "data.patch" in loaded:
            continue
        cfg = RunConfig()
        _apply_dict(cfg, SMALL_MODEL, "")
        key, value = _parse_override(f"{name}={raw}")
        for part in reversed(key.split(".")):
            value = {part: value}
        _apply_dict(cfg, value, "")
        try:
            SegmentationModel(cfg.model)
            built = None
        except ConfigError as e:
            built = str(e)
        except Exception as e:
            built = repr(e)
        if built != loaded:
            problems.append(f"{raw}: load_config {loaded!r}, model {built!r}")
    assert not problems, "\n".join(problems)


def test_network_takes_model_config_from_config():
    """network.py imports ModelConfig from config.py, not the reverse: the
    class the Python API exports is the one load_config fills."""
    assert mcads.ModelConfig is mcads.network.ModelConfig is mcads.config.ModelConfig


@pytest.mark.parametrize("bad", ["out", "prob", "prob_dir", "checkpoint", "huge"])
def test_predict_checks_its_paths_before_building_the_model(
        bad, desk_json, tmp_path, capsys, monkeypatch):
    """A missing directory for --out or --prob, a --prob that is a
    directory, a missing --checkpoint, or a huge one, whose header extents
    overflow int64, exits 2 naming the path before the model is built,
    writing nothing: no mask either."""
    cfg = load_config(desk_json)
    paths = {"out": tmp_path / "m.pgm", "prob": tmp_path / "p.pgm",
             "checkpoint": tmp_path / "init.mct"}
    params.save_checkpoint(paths["checkpoint"],
                           SegmentationModel(cfg.model).store.state())
    (sample,) = synth_dataset(1, 64, np.random.default_rng(3))
    netpbm.write_image(tmp_path / "img.ppm", sample.image)
    if bad == "huge":  # one float32 record "w" of shape (2**32 - 1, 2**32 - 1)
        paths["huge"] = paths["checkpoint"]
        paths["huge"].write_bytes(b"MCT1\1\0\0\0\1\0w\2" + b"\xff" * 8 + b"\0")
    elif bad == "prob_dir":
        paths["prob_dir"] = paths["prob"] = tmp_path / "pdir"
        paths["prob"].mkdir()
    else:
        paths[bad] = tmp_path / "nodir" / paths[bad].name
    before = sorted(os.listdir(tmp_path))

    def no_build(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr(cli, "SegmentationModel", no_build)
    code, out, err = run(["predict", "--config", desk_json,
                          "--checkpoint", str(paths["checkpoint"]),
                          "--image", str(tmp_path / "img.ppm"),
                          "--out", str(paths["out"]),
                          "--prob", str(paths["prob"])], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("data error:") and str(paths[bad]) in err
    assert sorted(os.listdir(tmp_path)) == before


def test_missing_files_exit_2(desk_json, tmp_path, capsys):
    code, _, _ = run(["predict", "--config", desk_json,
                      "--checkpoint", str(tmp_path / "nope.mct"),
                      "--image", str(tmp_path / "nope.ppm"),
                      "--out", str(tmp_path / "m.pgm")], capsys)
    assert code == 2
    code, _, _ = run(["eval", "--pred", str(tmp_path / "void"),
                      "--gt", str(tmp_path / "void")], capsys)
    assert code == 2


def test_eval_with_no_masks_exits_2(tmp_path, capsys):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    (pred_dir / "notes.txt").write_text("not a mask\n")
    code, out, err = run(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir)],
                         capsys)
    assert (code, out) == (2, "")
    assert err == (f"data error: no .pgm files in {pred_dir} and no .pgm files "
                   f"in {gt_dir}\n")


def test_train_on_an_empty_data_root_exits_2_before_writing(desk_json, tmp_path,
                                                            capsys):
    root, out_dir = tmp_path / "ds", tmp_path / "run"
    (root / "images").mkdir(parents=True), (root / "masks").mkdir()
    code, out, err = run(["train", "--config", desk_json, "--out", str(out_dir),
                          "--set", f'data.root="{root}"'], capsys)
    assert (code, out) == (2, "")
    assert err == (f"data error: no .ppm files in {root / 'images'} and no .pgm "
                   f"files in {root / 'masks'}\n")
    assert not out_dir.exists()


def _one_sample_dataset(root, channels=3, mask=None):
    """Sample g, 64x64; a one-channel image is a P5 file named .ppm."""
    (root / "images").mkdir(parents=True), (root / "masks").mkdir()
    (sample,) = synth_dataset(1, 64, np.random.default_rng(9))
    netpbm.write_image(root / "images" / "g.ppm", sample.image[:, :, :channels])
    netpbm.write_mask(root / "masks" / "g.pgm",
                      sample.mask if mask is None else mask)


def test_train_on_one_channel_images_exits_2_before_writing(desk_json, tmp_path,
                                                            capsys):
    _one_sample_dataset(tmp_path / "ds", channels=1)
    out_dir = tmp_path / "run"
    code, out, err = run(["train", "--config", desk_json, "--out", str(out_dir),
                          "--set", f'data.root="{tmp_path / "ds"}"'], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("data error: sample g:")
    assert "model.encoder.input_channels is 3" in err
    assert not out_dir.exists()


def test_predict_checks_channels_before_building_the_model(desk_json, tmp_path,
                                                           capsys):
    image = str(tmp_path / "gray.ppm")
    netpbm.write_image(image, np.zeros((64, 64, 1), np.float32))
    # the checkpoint does not exist, so the image must be checked first
    code, _, err = run(["predict", "--config", desk_json,
                        "--checkpoint", str(tmp_path / "nope.mct"),
                        "--image", image, "--out", str(tmp_path / "m.pgm")],
                       capsys)
    assert code == 2
    assert err.startswith(f"data error: {image}:")
    assert "model.encoder.input_channels is 3" in err
    assert not (tmp_path / "m.pgm").exists()


def test_predict_truncated_image_names_it(desk_json, tmp_path, capsys):
    image = tmp_path / "bad.ppm"
    image.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    code, _, err = run(["predict", "--config", desk_json,
                        "--checkpoint", str(tmp_path / "nope.mct"),
                        "--image", str(image), "--out", str(tmp_path / "m.pgm")],
                       capsys)
    assert code == 2
    assert err == f"data error: {image}: truncated payload: 10 of 48 bytes\n"


def _eval_dirs(tmp_path):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    box = np.zeros((8, 8, 1), np.float32)
    box[2:6, 2:6] = 1.0
    for d in (pred_dir, gt_dir):
        netpbm.write_mask(d / "a.pgm", box)
        netpbm.write_mask(d / "b.pgm", box)
    return pred_dir, gt_dir


def test_eval_truncated_mask_names_it(tmp_path, capsys):
    pred_dir, gt_dir = _eval_dirs(tmp_path)
    bad = gt_dir / "b.pgm"
    bad.write_bytes(bad.read_bytes()[:-64])
    code, out, err = run(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir)],
                         capsys)
    assert (code, out) == (2, "")
    assert err == f"data error: {bad}: truncated payload: 0 of 64 bytes\n"


def test_eval_shape_mismatch_names_the_id(tmp_path, capsys):
    pred_dir, gt_dir = _eval_dirs(tmp_path)
    netpbm.write_mask(pred_dir / "b.pgm", np.zeros((8, 9, 1), np.float32))
    code, out, err = run(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir)],
                         capsys)
    assert (code, out) == (2, "")
    assert err.startswith("data error: b: prediction shape (8, 9)")
    assert "reference (8, 8)" in err


def test_dataset_pair_mismatch_names_the_sample(desk_json, tmp_path, capsys):
    _one_sample_dataset(tmp_path / "ds", mask=np.zeros((32, 32, 1), np.float32))
    out_dir = tmp_path / "run"
    code, _, err = run(["train", "--config", desk_json, "--out", str(out_dir),
                        "--set", f'data.root="{tmp_path / "ds"}"'], capsys)
    assert code == 2
    assert err.startswith("data error: sample g: mask shape (32, 32, 1)")
    assert not out_dir.exists()


def test_train_out_is_a_file_exits_2(desk_json, tmp_path, capsys, monkeypatch):
    """The --out check runs before any sample is synthesized."""
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")

    def no_synth(*args, **kwargs):
        raise AssertionError("samples were synthesized")

    monkeypatch.setattr(data, "synth_dataset", no_synth)
    code, out, err = run(["train", "--config", desk_json,
                          "--set", "train.epochs=0", "--out", str(taken)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("data error:") and str(taken) in err


def test_allocation_failure_exits_2(monkeypatch, capsys):
    """A model too large to allocate is a data error, not a traceback."""
    def too_large(store, name, shape, *args, **kwargs):
        raise MemoryError(f"Unable to allocate an array with shape {shape}")

    # summary --no-macs reads no weights, so the failure is the allocation
    # at create(), as under a real memory limit
    monkeypatch.setattr(params.ParameterStore, "create", too_large)
    code, _, err = run(["summary", "--no-macs"], capsys)
    assert code == 2
    assert err.startswith("data error:") and "Unable to allocate" in err
    assert "Traceback" not in err


def _eval_out_exits_2_before_scoring(target, tmp_path, capsys, monkeypatch):
    pred_dir, gt_dir = _eval_dirs(tmp_path)
    before = sorted(os.listdir(tmp_path))

    def no_read(*args, **kwargs):
        raise AssertionError("a mask was read")

    monkeypatch.setattr(netpbm, "read_mask", no_read)
    code, out, err = run(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                          "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("data error:") and str(target) in err
    assert sorted(os.listdir(tmp_path)) == before


def test_eval_out_is_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    _eval_out_exits_2_before_scoring(tmp_path, tmp_path, capsys, monkeypatch)


def test_eval_out_in_missing_dir_exits_2_before_scoring(tmp_path, capsys,
                                                        monkeypatch):
    _eval_out_exits_2_before_scoring(tmp_path / "nodir" / "r.json", tmp_path,
                                     capsys, monkeypatch)


def test_summary_json_in_missing_dir_exits_2_before_the_report(
        desk_json, tmp_path, capsys, monkeypatch):
    """A --json in a missing directory, or one that is a directory."""
    before = sorted(os.listdir(tmp_path))

    def no_report(*args, **kwargs):
        raise AssertionError("the report was built")

    monkeypatch.setattr(cli.summary, "summary_report", no_report)
    for target in (tmp_path / "nodir" / "s.json", tmp_path):
        code, out, err = run(["summary", "--config", desk_json,
                              "--json", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("data error:") and str(target) in err
        assert sorted(os.listdir(tmp_path)) == before


def test_train_epoch_zero_checkpoint_is_init(desk_json, tmp_path, capsys):
    """The checkpoint is the fresh model of --seed, which wins over a
    --set of model.seed."""
    out_dir = str(tmp_path / "run")
    code, out, _ = run(["train", "--config", desk_json, "--seed", "3",
                        "--set", "train.epochs=0", "--set", "model.seed=5",
                        "--out", out_dir], capsys)
    assert code == 0
    state = load_checkpoint(os.path.join(out_dir, "best.mct"))
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
    assert report_path.read_text() == out


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
    (root / "images").mkdir(parents=True), (root / "masks").mkdir()
    for s in synth_dataset(2, 64, np.random.default_rng(9)):
        netpbm.write_image(root / "images" / f"{s.id}.ppm", s.image)
        netpbm.write_mask(root / "masks" / f"{s.id}.pgm", s.mask)
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
    (str(2 ** 40), []),
    (str(2 ** 72), []),
], ids=["cap-9-at-160", "48", "0", "-32", "2^40", "2^72"])
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


@pytest.mark.parametrize("command", ["train", "summary"])
@pytest.mark.parametrize("patch", [2 ** 40, 2 ** 72], ids=["2^40", "2^72"])
def test_huge_patch_exits_1_before_writing(command, patch, desk_json, tmp_path,
                                           capsys):
    """A patch side past MAX_INPUT_SIDE is a config error naming data.patch,
    raised before `train` creates --out or `summary` writes its JSON."""
    target = tmp_path / "out"
    argv = [command, "--config", desk_json, "--set", f"data.patch={patch}"]
    argv += ["--out" if command == "train" else "--json", str(target)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("config error:") and "'data.patch'" in err
    assert str(MAX_INPUT_SIDE) in err and "Traceback" not in err
    assert not target.exists()


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
