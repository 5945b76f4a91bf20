"""Regenerate perfbench/reference.json, the recorded predict_full outputs.

For the full-width model and for the smoke-size desk model it records the
8x8 block means of the seed-independent corner of the probability map, and
the MACs per tile that ``mcads summary --input-size <patch>`` reports (the
same ``summary.summary_report`` call). Rerun it only for a change that is
meant to alter model outputs or MAC counts, from the repository root:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts src/ on the path)
from mcads import netpbm, summary  # noqa: E402

ATOL = 1e-4  # per block mean; float32 reordering moves them by ~1e-6


def record(kind: str) -> dict:
    work = os.path.join(run.ROOT, ".perfbench", f"record-{os.getpid()}-{kind}")
    os.makedirs(work)
    try:
        w = run.make_workload("predict_full", 0, kind == "smoke", work,
                              reference={})
        w.prepare()
        w.setup()
        _, prob = w.predict(netpbm.read_image(w.image_path))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    macs = summary.summary_report(w.cfg.model, input_hw=w.cfg.data.patch)["macs"]
    return {"macs_per_tile": macs, "atol": ATOL,
            "block_means": [[round(float(v), 7) for v in row]
                            for row in w.corner_means(prob)]}


def dump(reference: dict) -> str:
    """JSON with one line per row of block means."""
    lines = ['{"predict": {']
    kinds = list(reference["predict"].items())
    for i, (kind, entry) in enumerate(kinds):
        rows = ",\n".join("   " + json.dumps(row) for row in entry["block_means"])
        lines.append(f' "{kind}": {{"macs_per_tile": {entry["macs_per_tile"]}, '
                     f'"atol": {entry["atol"]}, "block_means": [\n{rows}\n ]}}'
                     + ("," if i < len(kinds) - 1 else ""))
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main() -> None:
    reference = {"predict": {kind: record(kind) for kind in ("smoke", "full")}}
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        f.write(dump(reference))


if __name__ == "__main__":
    main()
