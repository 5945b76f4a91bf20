"""Tests of the benchmark itself, on its smoke-size workloads.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts src/ on the path)
from mcads import metrics, summary  # noqa: E402
from mcads.config import RunConfig  # noqa: E402

SCRIPT = os.path.join(run.HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_follows_the_contract():
    spec = declared()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    bounds = {}
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        bounds[m["name"]] = m["bound"]
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_is_the_highest_rank_with_ten_samples_beyond():
    stats = run.timing_stats([float(i) for i in range(100)])
    assert stats["p50"] == 49.5
    assert stats["tail"] == 89.0 and stats["tail_rank"] == 90
    assert sum(v > stats["tail"] for v in range(100)) == 10
    short = run.timing_stats([3.0, 1.0, 2.0])
    assert short["tail"] == short["p50"] == 2.0 and short["tail_rank"] is None


def test_all_workloads_in_one_command(tmp_path):
    proc = subprocess.run([sys.executable, SCRIPT, "--workload", "all",
                           "--smoke", "--seconds", "1"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    e2e = [m["name"] for m in declared()["end_to_end"]]
    for workload in run.WORKLOADS:
        for name in e2e:
            assert result["metrics"][f"{workload}.{name}"]["value"] > 0
    text = proc.stdout
    for label in ("train_step_ms_p50", "train_step_ms_tail", "train_samples_per_s",
                  "train_loss_final", "predict_image_s", "predict_mpix_per_s",
                  "eval_pair_ms_p50", "eval_pair_ms_tail", "eval_pairs_per_s",
                  "setup_s", "peak_rss_mb", "failed_share"):
        assert re.search(rf"^  {label} +\S+ \S+$", text, re.M), label
    env = json.loads(next(line for line in lines if line.startswith('{"env"')))
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc",
            "seed"} <= set(env["env"])
    assert env["samples"]["op"]["n"] >= 1


@pytest.fixture(scope="module")
def traced():
    return {name: run.run_workload(name, 3, 1.0, trace=True, smoke=True)
            for name in run.WORKLOADS}


def test_traced_runs_pass_their_checks(traced):
    for result in traced.values():
        assert result["failed"] == 0, result["errors"]
        line = run.result_line(result, trace=True)
        assert line["correct"]
        assert list(line["metrics"]) == [m["name"] for m in declared()["per_layer"]]


def test_self_times_account_for_the_traced_operation(traced):
    for result in traced.values():
        layers = {k: v for k, (v, _) in result["layers"].items()}
        assert math.isclose(layers["trace.layers_self_ms"] + layers["trace.uncovered_ms"],
                            layers["trace.op_ms"], rel_tol=1e-9)
        assert 0 <= layers["trace.uncovered_share"] < 0.2


def test_every_declared_layer_metric_is_measured_somewhere(traced):
    missing = []
    for m in declared()["per_layer"]:
        if m["name"].startswith("trace."):
            continue
        if not any(r["layers"].get(m["name"], (0.0,))[0] > 0 for r in traced.values()):
            missing.append(m["name"])
    assert not missing


def test_counts_repeat_and_match_mcads_summary(traced):
    again = run.run_workload("train_desk", 3, 1.0, trace=True, smoke=True)
    for key in ("tensor.tape_nodes", "tensor.gmacs_per_step", "ops.conv2d_dw.calls"):
        assert again["layers"][key] == traced["train_desk"]["layers"][key]
    per_tile = traced["predict_full"]["layers"]["tensor.gmacs_per_tile"][0] * 1e9
    cfg = RunConfig.desk()
    expected = summary.summary_report(cfg.model, input_hw=cfg.data.patch)["macs"]
    assert round(per_tile) == expected
    assert expected == run.load_reference()["predict"]["smoke"]["macs_per_tile"]


def test_wrong_scores_count_as_failed(monkeypatch):
    honest = metrics.pixel_metrics

    def off_by_a_bit(pred, gt):
        scores = honest(pred, gt)
        scores["iou"] += 1e-6
        return scores

    monkeypatch.setattr(metrics, "pixel_metrics", off_by_a_bit)
    result = run.run_workload("eval_masks", 0, 0.2, trace=False, smoke=True)
    assert result["failed"] == result["attempted"] - 1  # all but finish
    assert not run.result_line(result, trace=False)["correct"]


def test_wrong_predictions_count_as_failed(monkeypatch):
    def shifted(model, image, **kwargs):
        mask, prob = honest(model, image, **kwargs)
        return mask, prob * 0.5 + 0.25

    from mcads import infer
    honest = infer.predict_mask
    monkeypatch.setattr(infer, "predict_mask", shifted)
    result = run.run_workload("predict_full", 0, 0.2, trace=False, smoke=True)
    assert result["failed"] == result["attempted"] - 1  # all but finish
    assert "reference" in result["errors"][0]


def test_nan_loss_counts_as_failed(monkeypatch):
    from mcads import params

    def poisoned(params_, lr, **kwargs):
        for p in params_:
            p.data = p.data * float("nan")

    monkeypatch.setattr(params, "adam_step", poisoned)
    result = run.run_workload("train_desk", 0, 0.2, trace=False, smoke=True)
    assert result["failed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "eval_masks", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
