"""Tests of the benchmark itself; the tier-1 suite does not collect them.

Run from the repository root:
    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMED_COUNTS = ("grid.fft_scalar_transforms", "model.transforms_per_rhs",
                "dyadic.norm_calls", "linear.expm2_points")


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = _traced_run(workload, 11), _traced_run(workload, 11)
    assert set(first) == {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for name in NAMED_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    for name, metric in first.items():
        if metric["unit"] not in ("s", "ratio"):
            assert metric["value"] == second[name]["value"], name


@pytest.fixture
def installed():
    t = tracer.Tracer()
    t.begin_run(0)
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_binding_is_patched():
    import viscoflow.evolve
    import viscoflow.model
    rhs, rfftn = viscoflow.model.reformulated_rhs, np.fft.rfftn
    t = tracer.Tracer()
    t.install()
    try:
        # evolve binds the name with ``from .model import reformulated_rhs``.
        assert viscoflow.evolve.reformulated_rhs is viscoflow.model.reformulated_rhs
        assert viscoflow.model.reformulated_rhs is not rhs
        assert np.fft.rfftn is not rfftn
    finally:
        t.uninstall()
    assert viscoflow.evolve.reformulated_rhs is rhs
    assert viscoflow.model.reformulated_rhs is rhs
    assert np.fft.rfftn is rfftn


def test_scalar_transforms_and_self_time(installed):
    from viscoflow.grid import Grid, SpectralField
    grid = Grid(2, 16, 8.0)
    f = SpectralField.zeros(grid, "matrix")       # 4 components
    f.to_physical()                               # one ifftn over the last two axes
    np.fft.rfftn(np.zeros((3, 8)))                # all axes: one transform
    np.fft.fft(np.zeros((5, 8)), axis=0)          # eight transforms of length 5
    st = installed.stats
    assert st["numpy.fft.ifftn"]["fft"] == 4
    assert st["numpy.fft.rfftn"]["fft"] == 1
    assert st["numpy.fft.fft"]["fft"] == 8
    phys = st["SpectralField.to_physical"]
    assert phys["fft"] == 4
    assert phys["self_s"] == pytest.approx(phys["total_s"] - st["numpy.fft.ifftn"]["total_s"])
    installed.end_run()
    spans = np.concatenate(installed._chunks)
    names = [installed.names[i] for i in spans["name"]]
    child = spans[names.index("numpy.fft.ifftn")]
    parent = spans[names.index("SpectralField.to_physical")]
    assert child["parent"] == parent["span"]


def test_missing_target_is_absent(monkeypatch):
    kept = tuple(t for t in tracer.TARGETS if t[1] != "_difference_bnorm")
    monkeypatch.setattr(tracer, "TARGETS", kept + (
        ("viscoflow.evolve", "_difference_bnorm_renamed"),
        ("viscoflow.evolve", "NoSuchStepper.step"),
        ("viscoflow.grid", "assemble_sources"),   # found in the module it lives in
    ))
    t = tracer.Tracer()
    assert "viscoflow.evolve._difference_bnorm_renamed" in t.absent
    assert "viscoflow.evolve.NoSuchStepper.step" in t.absent
    assert "viscoflow.grid.assemble_sources" not in t.absent
    assert t.missing_metrics() == {"evolve.difference_norm_s": ["_difference_bnorm"]}
