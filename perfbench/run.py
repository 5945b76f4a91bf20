"""mcads benchmark: desk training, full-width patch inference, mask scoring.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload eval_masks --smoke --seconds 1

Workloads (see workloads.py):
  train_desk    RunConfig.desk() training steps, batch 4 at 64x64
  predict_full  default 113 M-parameter model from a .mct checkpoint,
                one 320x320 image per operation (4 tiles of 256, one batch)
  eval_masks    read and score 1000x1000 P5 mask pairs as `mcads eval` does

Each run is a closed loop with one caller: the next operation starts when
the previous one returns. It measures for --seconds (more if the workload
needs a minimum number of operations), checks every output, prints the
workload's own metrics by name with their units, an environment record, and
as its last line one JSON object with the metrics BENCHMARK.json declares:
its end-to-end metrics with --trace 0, its per-layer metrics with --trace 1.
The exit code is 1 when any output check failed.

--trace 1 splits --seconds into two measured loops in one process, tracing
off and then on (see spans.py), reports per-layer means per operation from
the traced loop and the difference between the two as trace.overhead_share;
the spans are written to .perfbench/ under the checkout.
--smoke shrinks every workload to a few seconds, for the tests.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

try:
    import mcads  # noqa: E402
except ImportError as e:
    sys.exit(f"perfbench: cannot import mcads from {ROOT}/src: {e}")
if os.path.dirname(os.path.dirname(os.path.abspath(mcads.__file__))) != \
        os.path.join(ROOT, "src"):
    sys.exit(f"perfbench: mcads must come from {ROOT}/src, not {mcads.__file__}")

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("train_desk", "predict_full", "eval_masks")


def load_declared():
    """(end_to_end, per_layer) metric lists from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def make_workload(name: str, seed: int, smoke: bool, work_dir: str,
                  reference=None):
    if name == "train_desk":
        return workloads.TrainDesk(seed, smoke, work_dir)
    if name == "predict_full":
        if reference is None:
            reference = load_reference()["predict"]
        return workloads.PredictFull(seed, smoke, work_dir, reference)
    if name == "eval_masks":
        return workloads.EvalMasks(seed, smoke, work_dir)
    raise ValueError(f"unknown workload {name!r}")


def timing_stats(samples) -> dict:
    """Median, and the highest order statistic with at least ten samples
    above it. Below 21 samples that statistic would not exceed the median,
    so the tail is then reported as the median."""
    s = sorted(samples)
    n = len(s)
    p50 = statistics.median(s)
    k = n - 11  # 0-based rank with ten samples beyond it
    if k >= n // 2:
        tail, rank = s[k], k + 1
    else:
        tail, rank = p50, None
    return {"n": n, "p50": p50, "tail": tail, "tail_rank": rank,
            "tail_pct": round(100.0 * rank / n, 1) if rank else 50.0}


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "seed": seed}


def _span(tracer, name: str, run_id: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, run_id)


class Runner:
    """Runs one workload's set-up, operations and finish, counting
    attempted and failed ones; each phase is traced when given a tracer."""

    def __init__(self, workload):
        self.w = workload
        self.ops = 0
        self.attempted = 0
        self.errors: list[str] = []

    def one_op(self, tracer=None) -> float | None:
        """Seconds one operation took, or None when it failed."""
        self.ops += 1
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with _span(tracer, "op", f"op{self.ops}"):
                self.w.op()
        except Exception as e:  # count it and keep measuring
            self.errors.append(f"op {self.ops}: {type(e).__name__}: {e}")
            return None
        return time.perf_counter() - t0

    def measure(self, seconds: float, tracer=None):
        """(per-op seconds of the successful ops, wall seconds)."""
        samples = []
        start = time.perf_counter()
        end = start + seconds
        while True:
            dt = self.one_op(tracer)
            if dt is not None:
                samples.append(dt)
            if time.perf_counter() >= end and self.ops >= self.w.min_ops:
                break
        return samples, time.perf_counter() - start

    def setup(self, tracer=None) -> list[float]:
        times = []
        for r in range(self.w.setup_reps):
            t0 = time.perf_counter()
            with _span(tracer, "setup", f"setup{r}"):
                self.w.setup()
            times.append(time.perf_counter() - t0)
        return times

    def finish(self, tracer=None) -> None:
        self.attempted += 1
        with _span(tracer, "finish", "finish"):
            failures = self.w.finish()
        self.errors.extend(f"finish: {f}" for f in failures)


def end_to_end(w, setup_times, samples, wall, peak_rss_mb):
    """(metric table, timing stats of the operations)."""
    stats = timing_stats(samples) if samples else None
    values = {"setup_s": (statistics.median(setup_times), "s"),
              "peak_rss_mb": (peak_rss_mb, "MB")}
    if stats:
        values["op_ms_p50"] = (stats["p50"] * 1e3, "ms")
        values["op_ms_tail"] = (stats["tail"] * 1e3, "ms")
        values["throughput_per_s"] = (len(samples) * w.items_per_op / wall, "1/s")
    return values, stats


def layer_metrics(w, tracer, n_ops: int, counters: dict, overhead: float) -> dict:
    """Per-layer table. Times under the measured operation are ms per
    operation (inclusive, plus .self_ms where the span has children); set-up
    and finish layers are ms per call. Counts are per operation."""
    table: dict = {}
    times = tracer.layer_times()
    op_total = op_self = layers_self = 0.0
    for (root, name), (incl, own, count) in times.items():
        if root != "op":
            continue
        if name == "op":
            op_total, op_self = incl, own
            continue
        layers_self += own
        table[f"{name}_ms"] = (incl / n_ops * 1e3, "ms")
        if own < incl:
            table[f"{name}.self_ms"] = (own / n_ops * 1e3, "ms")
        if name.startswith("ops.") and name.endswith(".fwd"):
            table[f"{name[:-4]}.calls"] = (count / n_ops, "count")
    for (root, name), (incl, _, count) in times.items():
        if root in ("setup", "finish") and name != root and f"{name}_ms" not in table:
            table[f"{name}_ms"] = (incl / count * 1e3, "ms")
    for key, value in counters.items():
        if key.endswith(".macs"):
            table[key[:-5] + ".gmacs"] = (value / n_ops / 1e9, "GMAC")
        elif key.endswith(".bytes"):
            table[key[:-6] + ".mb"] = (value / n_ops / 1e6, "MB")
        else:
            table[key] = (value / n_ops, "bytes" if key.endswith("_bytes") else "count")
    if hasattr(w, "macs_per_step"):
        table["tensor.gmacs_per_step"] = (w.macs_per_step / 1e9, "GMAC")
    if hasattr(w, "macs_per_tile"):
        table["tensor.gmacs_per_tile"] = (w.macs_per_tile / 1e9, "GMAC")
    if hasattr(w, "ckpt_bytes"):
        table["params.ckpt_mb"] = (w.ckpt_bytes / 1e6, "MB")
    table["trace.op_ms"] = (op_total / n_ops * 1e3, "ms")
    table["trace.layers_self_ms"] = (layers_self / n_ops * 1e3, "ms")
    table["trace.uncovered_ms"] = (op_self / n_ops * 1e3, "ms")
    table["trace.uncovered_share"] = (op_self / op_total if op_total else 0.0, "share")
    table["trace.overhead_share"] = (overhead, "share")
    return table


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    state_dir = os.path.join(ROOT, ".perfbench")
    work_dir = os.path.join(state_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        w = make_workload(name, seed, smoke, work_dir)
        w.prepare()
        tracer = spans.Tracer() if trace else None
        runner = Runner(w)
        if tracer is not None:
            tracer.install()
        try:
            setup_times = runner.setup(tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for _ in range(w.warmup):
            runner.one_op()
        if not trace:
            samples, wall = runner.measure(seconds)
            runner.finish()
            layers = None
        else:
            plain, _ = runner.measure(seconds / 2)
            tracer.counters.clear()
            forward = "infer.forward_batch" if name == "predict_full" else "network.forward"
            tracer.install(getattr(w, "model", None), forward)
            try:
                samples, wall = runner.measure(seconds / 2, tracer)
                counters = dict(tracer.counters)
                runner.finish(tracer)
            finally:
                tracer.uninstall()
            overhead = (statistics.fmean(samples) / statistics.fmean(plain) - 1.0
                        if samples and plain else 0.0)
            layers = layer_metrics(w, tracer, len(samples) or 1, counters, overhead)
            tracer.write(os.path.join(state_dir, f"trace-{name}-seed{seed}.jsonl"))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e, stats = end_to_end(w, setup_times, samples, wall, peak)
        failed = len(runner.errors)
        named = {}
        for key, (label, factor, unit) in w.labels.items():
            if key in e2e:
                named[label] = (e2e[key][0] * factor, unit)
        named.update(w.named_metrics())
        named["setup_s"] = e2e["setup_s"]
        named["peak_rss_mb"] = e2e["peak_rss_mb"]
        named["failed_share"] = (failed / runner.attempted, "share")
        return {"workload": name, "e2e": e2e, "layers": layers, "named": named,
                "attempted": runner.attempted, "failed": failed,
                "errors": runner.errors,
                "samples": {"op": stats, "setup": len(setup_times),
                            "warmup": w.warmup}}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def result_line(result: dict, trace: bool) -> dict:
    declared_e2e, declared_layers = load_declared()
    table = result["layers"] if trace else result["e2e"]
    metrics = {}
    for m in (declared_layers if trace else declared_e2e):
        value, _ = table.get(m["name"], (0.0, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = result["failed"] == 0 and all(
        math.isfinite(v["value"]) for v in metrics.values())
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_report(result: dict, env: dict) -> None:
    print(f"== {result['workload']}")
    for label, (value, unit) in result["named"].items():
        print(f"  {label:<28} {value:14.6g} {unit}")
    if result["layers"]:
        print("  per layer (per operation; set-up and finish layers per call):")
        for key in sorted(result["layers"]):
            value, unit = result["layers"][key]
            print(f"    {key:<40} {value:14.6g} {unit}")
    for err in result["errors"][:20]:
        print(f"  CHECK FAILED {err}")
    print(json.dumps({"env": env, "samples": result["samples"]}))


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    print_report(result, environment(args.seed))
    line = result_line(result, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
