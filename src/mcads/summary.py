"""Parameter accounting and multiply-accumulate estimation.

Counts come straight from the parameter registry, grouped by the first two
name components (encoder.s1, decoder.d4, ...), so the reported total is an
accounting identity over the named parameters. The MAC estimate runs one
instrumented forward pass at the requested input size and counts conv,
dense, and matmul multiplies only.
"""

from __future__ import annotations

import numpy as np

from .network import ModelConfig, SegmentationModel
from .tensor import count_macs


def _group(name: str) -> str:
    parts = name.split(".")
    return ".".join(parts[:2]) if len(parts) > 1 else parts[0]


def parameter_summary(model: SegmentationModel) -> dict:
    groups: dict = {}
    for p in model.store.parameters():
        g = groups.setdefault(_group(p.name), {"trainable": 0, "total": 0})
        g["total"] += p.size
        if p.trainable:
            g["trainable"] += p.size
    return groups


def mac_estimate(model: SegmentationModel, input_hw: int) -> int:
    c = model.cfg.encoder.input_channels
    probe = np.zeros((1, input_hw, input_hw, c), dtype=model.store.dtype)
    with count_macs() as counter:
        model.forward(probe, train=False)
    return counter["macs"]


def summary_report(cfg: ModelConfig, *, input_hw: int | None = None) -> dict:
    model = SegmentationModel(cfg)
    groups = parameter_summary(model)
    report = {
        "groups": groups,
        "total_trainable": sum(g["trainable"] for g in groups.values()),
        "total_parameters": sum(g["total"] for g in groups.values()),
    }
    if input_hw is not None:
        report["input_hw"] = input_hw
        report["macs"] = mac_estimate(model, input_hw)
    return report


def format_table(report: dict) -> str:
    width = max(len(g) for g in report["groups"])
    lines = [f"{'module':<{width}}  {'trainable':>12}  {'total':>12}"]
    for name in sorted(report["groups"]):
        g = report["groups"][name]
        lines.append(f"{name:<{width}}  {g['trainable']:>12,}  {g['total']:>12,}")
    lines.append(f"{'all':<{width}}  {report['total_trainable']:>12,}  "
                 f"{report['total_parameters']:>12,}")
    if "macs" in report:
        lines.append(f"estimated MACs at {report['input_hw']}^2 input: "
                     f"{report['macs']:,}")
    return "\n".join(lines)
