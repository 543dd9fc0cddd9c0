"""The benchmark's workloads: generated CLI configs and oracle checks.

A workload is a list of CLI calls, each a mode plus an INI config written
from the benchmark's seed.  The worker runs them through
``viscoflow.cli.main`` with ``--strict``.  After every repetition the checks
read the call's output files and compare them with the package's
independent oracles (the eigenvalue formula, the refinement behaviour of
flow-map data, the snapshot format, the block norms of the in-memory
field), never with numbers captured from one commit, so they hold for any
seed.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

WORKLOADS = ("simulate-2d", "iterate-2d", "oracles", "simulate-3d", "snapshot-exact")

# README demo physics: shear viscosity 1, bulk -0.5, coupling 2.
PHYSICS = {"mu": "1.0", "lambda": "-0.5", "alpha": "2.0", "pressure": "quadratic"}

# Repetition sizes.  A shared host changes its CPU speed by up to 2x, in
# phases from seconds to minutes long, so a run repeats a short workload
# many times and reports medians; see NOTES.md.
SIMULATE_2D = {"dim": 2, "n": 64, "dt": 0.02, "t_final": 0.2}
SIMULATE_3D = {"dim": 3, "n": 32, "dt": 0.02, "t_final": 0.02}
ITERATE_2D = {"n": 32, "dt": 0.005, "t_final": 0.05, "iterations": 6}
# L = 1 keeps every seeded frequency below Nyquist and every constraint
# residual at interpolation level; see NOTES.md for the L = 8 defects.
LINEAR = {"n": 64, "length": 1.0, "xi_values": "2", "samples": 100}
CONSTRAINTS = {"n": 64, "length": 1.0, "eps": 0.2, "refine_levels": "16,32,64",
               "dt": 0.02, "t_final": 0.5}
ANALYZE = {"n": 64, "length": 8.0, "rank": "vector", "s_values": (0.0, 1.0),
           "hybrid_pairs": ((0.0, 1.0),)}

CONTRACTION_LIMIT = 0.9     # acceptance criterion c11
DECAY_TOLERANCE = 0.02      # acceptance criterion c06
SUP_GROWTH_LIMIT = 10.0     # acceptance criterion c10
NORM_MATCH = 1e-12


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


class Call:
    """One CLI invocation and the checks its outputs feed."""

    def __init__(self, mode: str, config: Path, out: Path, checks: list):
        self.mode = mode
        self.config = config
        self.out = out
        self.checks = checks    # (name, function(out_dir)) pairs

    def argv(self) -> list[str]:
        return [self.mode, "--config", str(self.config), "--strict",
                "--out", str(self.out)]


def _write_ini(path: Path, sections: dict) -> Path:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def _read_csv(path: Path):
    """Header and rows of a viscoflow CSV (first line is the schema note)."""
    lines = path.read_text().splitlines()
    _require(lines and lines[0].startswith("# viscoflow csv"), f"{path.name}: no schema line")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def _all_finite(path: Path):
    _, rows = _read_csv(path)
    _require(len(rows) > 0, f"{path.name} has no rows")
    for row in rows:
        for v in row:
            _require(math.isfinite(float(v)), f"{path.name}: non-finite value {v}")


# ----------------------------------------------------------------------
# simulate-2d, simulate-3d
# ----------------------------------------------------------------------

def _simulate(seed: int, work: Path, size: dict):
    config = _write_ini(work / "simulate.ini", {
        "run": {"seed": seed},
        "grid": {"dim": size["dim"], "n": size["n"], "length": 8.0},
        "physics": PHYSICS,
        "simulate": {"dt": size["dt"], "t_final": size["t_final"], "amplitude": 0.01},
    })
    steps = round(size["t_final"] / size["dt"])

    def norms_finite(out):
        _all_finite(out / "norms.csv")

    def one_row_per_step(out):
        _, rows = _read_csv(out / "norms.csv")
        _require(len(rows) == steps + 1, f"{len(rows)} norms rows, expected {steps + 1}")

    def sup_bounded(out):
        s = json.loads((out / "summary.json").read_text())
        _require(s["sup_instant"] <= SUP_GROWTH_LIMIT * s["initial_norm"],
                 f"sup_instant {s['sup_instant']} > {SUP_GROWTH_LIMIT} x "
                 f"initial_norm {s['initial_norm']}")

    return [Call("simulate", config, work / "out-simulate", [
        ("norms.csv values finite", norms_finite),
        ("norms.csv has one row per step", one_row_per_step),
        ("sup_instant <= 10 x initial_norm", sup_bounded),
    ])], []


# ----------------------------------------------------------------------
# iterate-2d
# ----------------------------------------------------------------------

def _iterate(seed: int, work: Path):
    size = ITERATE_2D
    config = _write_ini(work / "iterate.ini", {
        "run": {"seed": seed},
        "grid": {"dim": 2, "n": size["n"], "length": 8.0},
        "physics": PHYSICS,
        "iterate": {"dt": size["dt"], "t_final": size["t_final"],
                    "iterations": size["iterations"], "amplitude": 0.01},
    })

    def contracts(out):
        ratios = json.loads((out / "summary.json").read_text())["contraction_ratios"]
        beyond = ratios[1:]
        _require(len(beyond) == size["iterations"] - 2,
                 f"{len(ratios)} contraction ratios for {size['iterations']} sweeps")
        _require(all(r <= CONTRACTION_LIMIT for r in beyond),
                 f"contraction ratios beyond sweep 2 exceed {CONTRACTION_LIMIT}: {beyond}")

    def not_flagged(out):
        flagged = json.loads((out / "summary.json").read_text())["flagged"]
        _require(flagged is False, f"growth flag is {flagged!r}")

    def one_row_per_sweep(out):
        _, rows = _read_csv(out / "contraction.csv")
        _require(len(rows) == size["iterations"],
                 f"{len(rows)} contraction rows, expected {size['iterations']}")
        # The first sweep has no ratio; every other entry is a finite number.
        values = [v for row in rows for v in row if v != ""]
        _require(all(math.isfinite(float(v)) for v in values),
                 "non-finite value in contraction.csv")

    return [Call("iterate", config, work / "out-iterate", [
        ("ratios beyond sweep 2 <= 0.9", contracts),
        ("growth flag false", not_flagged),
        ("contraction.csv has one row per sweep", one_row_per_sweep),
    ])], []


# ----------------------------------------------------------------------
# oracles: linear, constraints, analyze
# ----------------------------------------------------------------------

def _analyze(seed: int, work: Path):
    """The ``analyze`` call on a seeded snapshot, and the field it was written from."""
    import numpy as np
    from viscoflow.dyadic import DyadicFamily, besov_norm, hybrid_norm
    from viscoflow.grid import Grid, random_field
    from viscoflow.snapshots import save_field

    # The snapshot analyze reads: a seeded random vector field on the README grid.
    an = ANALYZE
    grid = Grid(2, an["n"], an["length"])
    field = random_field(grid, an["rank"], np.random.default_rng(seed))
    snapshot = work / "field.vfs"
    save_field(snapshot, field)
    fam = DyadicFamily(grid)
    mean_zero = field.project_mean_zero()
    expected = [("homogeneous", s, besov_norm(mean_zero, s, fam)) for s in an["s_values"]]
    expected += [("hybrid", s, hybrid_norm(mean_zero, s, t, fam))
                 for s, t in an["hybrid_pairs"]]
    analyze_cfg = _write_ini(work / "analyze.ini", {
        "run": {"seed": seed},
        "analyze": {"input": snapshot,
                    "s_values": ",".join(str(s) for s in an["s_values"]),
                    "hybrid_pairs": ";".join(f"{s},{t}" for s, t in an["hybrid_pairs"])},
    })

    def norms_match(out):
        _, rows = _read_csv(out / "norms.csv")
        _require(len(rows) == len(expected), f"{len(rows)} norm rows, expected {len(expected)}")
        for (kind, s, want), row in zip(expected, rows):
            got = float(row[3])
            _require(row[0] == kind and float(row[1]) == s
                     and abs(got - want) <= NORM_MATCH * abs(want),
                     f"{kind} s={s}: CLI norm {got} != in-memory norm {want}")

    call = Call("analyze", analyze_cfg, work / "out-analyze", [
        ("analyze norms equal in-memory block norms", norms_match),
    ])
    return call, field, snapshot


def _loaded_like(field, snapshot):
    from viscoflow.snapshots import load_field
    back = load_field(snapshot)
    _require(back.grid.compatible(field.grid) and back.coeff.dtype == field.coeff.dtype
             and back.coeff.shape == field.coeff.shape,
             "load_field(save_field(f)) differs from f in grid, dtype or shape")
    return back


def _oracles(seed: int, work: Path):
    import numpy as np
    from viscoflow.linear import PAIRS, oracle_decay_rate
    from viscoflow.operators import Viscosity

    lin = LINEAR
    linear_cfg = _write_ini(work / "linear.ini", {
        "run": {"seed": seed},
        "grid": {"dim": 2, "n": lin["n"], "length": lin["length"]},
        "physics": PHYSICS,
        "linear": {"pairs": ",".join(PAIRS), "xi_values": lin["xi_values"],
                   "samples": lin["samples"]},
    })
    visc = Viscosity(float(PHYSICS["mu"]), float(PHYSICS["lambda"]), 2)

    def decay_check(pair):
        def check(out):
            _, rows = _read_csv(out / "decay.csv")
            mine = [r for r in rows if r[0] == pair]
            xis = [float(x) for x in lin["xi_values"].split(",")]
            _require(len(mine) == len(xis), f"{len(mine)} decay rows for {pair}")
            for _, xi, fitted, oracle_rate, rel_error in mine:
                oracle = oracle_decay_rate(pair, float(xi), visc.nu, visc.mu)
                _require(abs(float(oracle_rate) - oracle) <= 1e-12 * oracle,
                         f"{pair} xi={xi}: CSV oracle {oracle_rate} != eigenvalue oracle {oracle}")
                _require(float(rel_error) <= DECAY_TOLERANCE
                         and abs(float(fitted) - oracle) <= DECAY_TOLERANCE * oracle,
                         f"{pair} xi={xi}: fitted {fitted} vs oracle {oracle}")
        return check

    con = CONSTRAINTS
    constraints_cfg = _write_ini(work / "constraints.ini", {
        "run": {"seed": seed},
        "grid": {"dim": 2, "n": con["n"], "length": con["length"]},
        "physics": PHYSICS,
        "constraints": {k: con[k] for k in ("eps", "refine_levels", "dt", "t_final")},
    })

    def residuals_decrease(out):
        _, rows = _read_csv(out / "residuals.csv")
        levels = [int(v) for v in con["refine_levels"].split(",")]
        _require([int(r[0]) for r in rows] == levels, "residuals.csv levels differ from config")
        for col, name in ((1, "div"), (2, "curl")):
            vals = [float(r[col]) for r in rows]
            _require(all(b < a for a, b in zip(vals, vals[1:])),
                     f"{name} residuals do not decrease under refinement: {vals}")

    def majorants_finite(out):
        _all_finite(out / "majorants.csv")

    analyze, field, snapshot = _analyze(seed, work)

    # Every value exactly, -0.0 == +0.0; the sign of zero is snapshot-exact's check.
    def snapshot_values_exact():
        back = _loaded_like(field, snapshot)
        _require(np.array_equal(back.coeff, field.coeff),
                 "load_field(save_field(f)) has values that differ from f")

    return [
        Call("linear", linear_cfg, work / "out-linear",
             [(f"{pair} decay rate within 2% of the eigenvalue oracle", decay_check(pair))
              for pair in PAIRS]),
        Call("constraints", constraints_cfg, work / "out-constraints", [
            ("residuals decrease under refinement", residuals_decrease),
            ("majorants.csv values finite", majorants_finite),
        ]),
        analyze,
    ], [("snapshot round trip equal in every value", snapshot_values_exact)]


# ----------------------------------------------------------------------
# snapshot-exact (not gated: fails today, defect (c) in NOTES.md)
# ----------------------------------------------------------------------

def _snapshot_exact(seed: int, work: Path):
    analyze, field, snapshot = _analyze(seed, work)

    def snapshot_roundtrip():
        back = _loaded_like(field, snapshot)
        _require(back.coeff.tobytes() == field.coeff.tobytes(),
                 "load_field(save_field(f)) is not bit-identical to f")

    return [analyze], [("snapshot round trip bit-identical", snapshot_roundtrip)]


def prepare(workload: str, seed: int, work: Path):
    """Write the workload's inputs under ``work``.

    Returns the CLI calls of one repetition and the checks made once per run
    on the inputs themselves, as (name, function()) pairs."""
    if workload == "simulate-2d":
        return _simulate(seed, work, SIMULATE_2D)
    if workload == "simulate-3d":
        return _simulate(seed, work, SIMULATE_3D)
    if workload == "iterate-2d":
        return _iterate(seed, work)
    if workload == "oracles":
        return _oracles(seed, work)
    if workload == "snapshot-exact":
        return _snapshot_exact(seed, work)
    raise ValueError(f"unknown workload {workload!r}")


def check_outputs(call: Call, result) -> list[str]:
    """Run every check the call feeds; return one message per failed check.

    The strict exit code is a check of its own.  A call that raised or
    exited non-zero fails every check it feeds."""
    if result != 0:
        return [f"{call.mode}: exit {result}"] + [
            f"{call.mode}: {name}: not run, call failed" for name, _ in call.checks]
    return [f"{call.mode}: {failure}" for failure in
            run_checks([(name, lambda check=check: check(call.out))
                        for name, check in call.checks])]


def run_checks(checks) -> list[str]:
    """Run (name, function()) checks; return one message per failure."""
    failures = []
    for name, check in checks:
        try:
            check()
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"{name}: {exc}")
    return failures


def checks_per_call(call: Call) -> int:
    return 1 + len(call.checks)
