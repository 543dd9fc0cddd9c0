"""Consistency of the committed BENCH_*.json pair reports.

Each report lists, per workload and end-to-end metric, the raw runs of the
parent and of the change, one per seed, together with the summary a reader
acts on: each side's median and quartiles and the number of pairs the change
won.  The files are put together by hand, so these tests recompute the
summary from the runs.
"""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
# quartiles are written rounded to 6 decimals
ROUNDING = 1e-6


def _better(metric: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}[metric]


def _metrics(path: Path):
    report = json.loads(path.read_text())
    for workload, body in report["workloads"].items():
        for metric, entry in body["metrics"].items():
            yield workload, body, metric, entry


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_runs_match_pairs(path):
    for workload, body, metric, entry in _metrics(path):
        pairs = body["pairs"]
        assert len(body["seeds"]) == pairs, (workload, metric)
        assert len(entry["runs"]["parent"]) == pairs, (workload, metric)
        assert len(entry["runs"]["change"]) == pairs, (workload, metric)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_quartiles_match_runs(path):
    for workload, _, metric, entry in _metrics(path):
        for side in ("parent", "change"):
            runs = entry["runs"][side]
            for name, pct in (("q1", 25), ("median", 50), ("q3", 75)):
                assert entry[side][name] == pytest.approx(
                    np.percentile(runs, pct), rel=0, abs=ROUNDING), (workload, metric, side, name)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_change_better_pairs(path):
    for workload, body, metric, entry in _metrics(path):
        runs = entry["runs"]
        lower = _better(metric) == "lower"
        wins = sum((c < p) if lower else (c > p)          # ties count for neither side
                   for p, c in zip(runs["parent"], runs["change"]))
        assert entry["change_better_pairs"] <= body["pairs"], (workload, metric)
        assert entry["change_better_pairs"] == wins, (workload, metric)
