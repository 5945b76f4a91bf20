"""Every committed BENCH_*.json benchmark record is complete and linked
from README.md: it parses, names its parent commit, claims one metric on
one workload that BENCHMARK.json declares, and gives parent and change
medians of every declared end-to-end metric for each workload it ran."""

import glob
import json
import math
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_is_linked_from_readme(path):
    with open(os.path.join(ROOT, "README.md")) as f:
        readme = f.read()
    name = os.path.basename(path)
    assert f"]({name})" in readme


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_is_complete(path):
    with open(path) as f:
        record = json.load(f)
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent"])
    claim = record["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in END_TO_END
    assert claim["workload"] in record["workloads"]
    for name, workload in record["workloads"].items():
        assert name in WORKLOADS
        metrics = workload["summary"]["metrics"]
        for metric in END_TO_END:
            for side in ("parent", "change"):
                median = metrics[metric][side]["median"]
                assert isinstance(median, (int, float)) and math.isfinite(median), \
                    (name, metric, side)
