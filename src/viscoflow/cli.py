"""Configuration-driven command line front end.

Usage:
    viscoflow <mode> --config <path> [--strict] [--out <dir>]
                     [--sweep <section.key>=<v1,v2,...>]

Modes: analyze, linear, simulate, iterate, constraints, scaling.  Every run
writes a manifest first (config echo, parameters, planned artifacts), runs
the requested study, then rewrites the manifest with artifact checksums.
Identical config and seed give byte-identical CSV output.  Exit codes:
0 success, 1 input or configuration error, 2 invariant violation in strict
mode, 3 run stopped (the state left the valid regime, or a diagnostic could
not be measured).  Every non-zero exit prints one line on stderr.

Config keys: ``_SCHEMA`` holds each (section, key) with its parser and
default, and ``read_config`` is the one reader: it rejects unknown sections
and keys, parses every given value, fills in the defaults and names the
section, key and text of any value it cannot parse.  Domain checks stay with
the objects that own them (``Grid``, ``Viscosity``, ``RunConfig``).  A sweep
reads every job's config before the first job starts.

The environment variable VISCOFLOW_THREADS caps process fan-out for sweeps
(the spectral kernels themselves are single-threaded) and is recorded in
the manifest.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .constraints import (check_trajectory, constraint_residuals,
                          generate_admissible, shear_map, transport_simulate,
                          ComposedMap, FlowMap)
from .dyadic import besov_norm, hybrid_norm
from .errors import (ConfigurationError, DiagnosticError, InputError,
                     InvariantViolation, StabilityError)
from .evolve import (RunConfig, direct_solve, picard_solve,
                     uniform_bound_monitor)
from .grid import Grid, SpectralField, cosine_mode, random_field, scale_dyadic
from .linear import run_pair_decay, PAIRS
from .model import ModelParams, PressureLaw, PrimitiveState
from .operators import Viscosity
from .snapshots import load_field, save_field

MODES = ("analyze", "linear", "simulate", "iterate", "constraints", "scaling")


# -- config parsers: text -> value, ValueError on bad text ---------------

def _list(parse):
    """Comma-separated values, each read by ``parse``."""
    return lambda text: tuple(parse(v.strip()) for v in text.split(","))


def _nonneg_int(text: str) -> int:
    """A non-negative integer."""
    value = int(text)
    if value < 0:
        raise ValueError("expected a non-negative integer")
    return value


def _finite(text: str) -> float:
    """A finite number."""
    if not np.isfinite(value := float(text)):
        raise ValueError("expected a finite number")
    return value


def _positive(text: str) -> float:
    """A positive finite number."""
    if not 0.0 < (value := float(text)) < np.inf:
        raise ValueError("expected a positive finite number")
    return value


def _choice(*names: str):
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {' | '.join(names)}")
        return text
    return parse


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"expected a boolean: {' | '.join(states)}")
    return states[text.lower()]


def _hybrid_pairs(text: str) -> tuple[tuple[float, float], ...]:
    """``s,t;s,t`` index pairs; an empty value is no pairs."""
    pairs = tuple(_list(_finite)(chunk) for chunk in text.split(";")) if text else ()
    if any(len(p) != 2 for p in pairs):
        raise ValueError("expected s,t pairs separated by ';'")
    return pairs


# section -> key -> (parser, default); the default is the parsed value
_SCHEMA = {
    "run": {"seed": (_nonneg_int, 1234), "out": (str, "viscoflow-out")},
    "grid": {"dim": (int, 2), "n": (int, 64), "length": (float, 8.0),
             "dealias": (float, 2.0 / 3.0)},
    "physics": {"mu": (float, 1.0), "lambda": (float, 1.0), "alpha": (float, 1.0),
                "pressure": (_choice("quadratic", "power"), "quadratic"),
                "gamma_gas": (float, 1.4)},
    "analyze": {"input": (str, None), "s_values": (_list(_finite), (0.0, 1.0)),
                "hybrid_pairs": (_hybrid_pairs, ())},
    "linear": {"pairs": (_list(_choice(*PAIRS)), PAIRS),
               "xi_values": (_list(_positive), (0.5, 1.0, 2.0)),
               "samples": (int, 600), "efolds": (float, 96.0)},
    "simulate": {"dt": (float, 0.02), "t_final": (float, 20.0),
                 "amplitude": (_finite, 1e-2), "rotation_correction": (_boolean, True)},
    "iterate": {"dt": (float, 0.005), "t_final": (float, 2.0),
                "amplitude": (_finite, 1e-2), "iterations": (int, 6),
                "init": (_choice("mollified", "full"), "mollified")},
    "constraints": {"eps": (_finite, 0.05), "refine_levels": (_list(int), (16, 32, 64)),
                    "dt": (float, 0.02), "t_final": (float, 1.0),
                    "u_amplitude": (_finite, 0.05)},
    "scaling": {"s_values": (_list(_finite), (-1.0, 0.0, 1.0)), "amplitude": (_finite, 1.0)},
}


def read_config(raw: dict[str, dict[str, str]]) -> dict[str, dict]:
    """Every section of ``_SCHEMA``, each key parsed from ``raw`` or defaulted.

    ``raw`` maps section to key to text, as the config file holds them.
    """
    for section, given in raw.items():
        if section not in _SCHEMA:
            raise InputError(f"[{section}]: unknown config section")
        for key in given:
            if key not in _SCHEMA[section]:
                raise InputError(f"[{section}] {key}: unknown key")
    conf = {}
    for section, table in _SCHEMA.items():
        given = raw.get(section, {})
        conf[section] = values = {}
        for key, (parse, default) in table.items():
            if key not in given:
                values[key] = default
                continue
            try:
                values[key] = parse(given[key])
            except ValueError as exc:
                raise InputError(f"[{section}] {key} = {given[key]!r}: {exc}") from None
    if "gamma_gas" in raw.get("physics", {}) and conf["physics"]["pressure"] != "power":
        raise InputError("[physics] gamma_gas: read only with pressure = power")
    return conf


def _load_config(path: str) -> dict[str, dict[str, str]]:
    """The raw sections and keys of an INI file."""
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    try:
        with open(path) as fh:
            cfg.read_file(fh)
        return {s: dict(cfg[s]) for s in cfg.sections()}
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc.strerror}") from None
    except configparser.Error as exc:
        raise InputError(f"config file {path}: {' '.join(str(exc).split())}") from None


@contextmanager
def _in_section(section: str, key: str | None = None):
    """Name the config section, and the key when given, behind a domain
    check that fails inside."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"[{section}] {key}: {exc}" if key else f"[{section}] {exc}") from None


def _finite_norm(norm: float, index) -> float:
    """``norm``, or an InputError naming the index when it is not finite."""
    if not np.isfinite(norm):
        raise InputError(f"index {index} gives the non-finite norm {norm}")
    return norm


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, header: list[str], rows, schema_note: str):
    with open(path, "w") as fh:
        fh.write(f"# viscoflow csv schema v1: {schema_note}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """One run of a mode; the constructor reads, and so checks, the config."""

    def __init__(self, mode: str, raw: dict[str, dict[str, str]],
                 out_dir: Path | str | None, strict: bool):
        self.mode = mode
        self.raw = raw
        self.conf = read_config(raw)
        self.out = Path(out_dir or self.conf["run"]["out"])
        self.strict = strict
        self.artifacts: list[Path] = []
        self.seed = self.conf["run"]["seed"]
        self.rng = np.random.default_rng(self.seed)

    def grid(self) -> Grid:
        g = self.conf["grid"]
        return Grid(g["dim"], g["n"], g["length"], g["dealias"])

    def params(self, dim: int) -> ModelParams:
        p = self.conf["physics"]
        law = (PressureLaw.power(p["gamma_gas"]) if p["pressure"] == "power"
               else PressureLaw.quadratic())
        return ModelParams(Viscosity(p["mu"], p["lambda"], dim), p["alpha"], law)

    def emit(self, name: str) -> Path:
        path = self.out / name
        self.artifacts.append(path)
        return path

    def manifest(self, final: bool):
        data = {
            "tool": "viscoflow",
            "version": __version__,
            "mode": self.mode,
            "seed": self.seed,
            "threads_cap": os.environ.get("VISCOFLOW_THREADS"),
            "config": self.raw,
            "artifacts": [
                {"name": p.name, "sha256": _sha256(p) if final and p.exists() else None}
                for p in self.artifacts
            ],
        }
        with open(self.out / "manifest.json", "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # -- modes ----------------------------------------------------------

    def run(self) -> int:
        self._plan()
        try:  # the first writes: a file on the path, or no permission, stops here
            self.out.mkdir(parents=True, exist_ok=True)
            self.manifest(final=False)
        except OSError as exc:
            raise InputError(f"cannot write {exc.filename or self.out}: {exc.strerror}") from None
        with np.errstate(all="ignore"):  # the explicit checks report faults, once
            getattr(self, f"mode_{self.mode}")()
        self.manifest(final=True)
        return 0

    def _plan(self):
        planned = {
            "analyze": ["norms.csv"],
            "linear": ["decay.csv"],
            "simulate": ["norms.csv", "summary.json", "final_state_rho.vfs"],
            "iterate": ["contraction.csv", "summary.json"],
            "constraints": ["residuals.csv", "majorants.csv"],
            "scaling": ["scaling.csv"],
        }[self.mode]
        for name in planned:
            self.emit(name)

    def mode_analyze(self):
        an = self.conf["analyze"]
        if an["input"] is None:
            raise InputError("analyze needs a snapshot path: [analyze] input = <path>")
        field = load_field(an["input"])
        rows = []
        for s in an["s_values"]:
            with _in_section("analyze", "s_values"):
                rows.append(("homogeneous", s, "",
                             _finite_norm(besov_norm(field.project_mean_zero(), s), s)))
        for s, t in an["hybrid_pairs"]:
            with _in_section("analyze", "hybrid_pairs"):
                rows.append(("hybrid", s, t,
                             _finite_norm(hybrid_norm(field.project_mean_zero(), s, t), (s, t))))
        write_csv(self.artifacts[0], ["kind", "s", "t", "norm"], rows,
                  "frequency-block norms of one field snapshot")

    def mode_linear(self):
        lin = self.conf["linear"]
        grid = self.grid()
        params = self.params(grid.dim)
        rows = []
        for xi in lin["xi_values"]:
            # a seed is one grid mode k = xi * length, never moved to the nearest
            if abs(round(xi * grid.length) - xi * grid.length) > 1e-9 * xi * grid.length:
                raise InputError(f"[linear] xi_values: xi = {xi:g} times length = "
                                 f"{grid.length:g} is not a whole number")
        for pair in lin["pairs"]:
            for xi in lin["xi_values"]:
                k = int(round(xi * grid.length))
                kvec = (k,) + (0,) * (grid.dim - 1)
                with _in_section("linear"):
                    res = run_pair_decay(grid, pair, kvec, params.visc,
                                         n_samples=lin["samples"],
                                         horizon_efolds=lin["efolds"])
                rows.append((res["pair"], res["xi"], res["fitted"], res["oracle"],
                             res["rel_error"]))
                if self.strict and res["rel_error"] > 0.02:
                    raise InvariantViolation(
                        f"decay rate off oracle by {res['rel_error']:.2%} for "
                        f"{pair} at |xi|={xi}")
        write_csv(self.artifacts[0], ["pair", "xi", "fitted_rate", "oracle_rate",
                                      "rel_error"], rows,
                  "free-decay rates vs constant-coefficient oracle")

    def _small_data(self, grid: Grid, amplitude: float) -> PrimitiveState:
        k = max(1, int(round(grid.length)))
        m1 = shear_map(grid, (k, 0) + (0,) * (grid.dim - 2), (0, 1) + (0,) * (grid.dim - 2), 1.0)
        m2 = shear_map(grid, (0, k) + (0,) * (grid.dim - 2), (1, 0) + (0,) * (grid.dim - 2), 1.0)
        for m in (m1, m2):
            m.eps = amplitude / max(m.grad_sup(), 1e-300)
        data = generate_admissible(ComposedMap([m1, m2]))
        u0 = random_field(grid, "vector", self.rng,
                          band=(1.0, 2.0), amplitude=amplitude)
        data.state.u = u0
        return data.state

    def mode_simulate(self):
        sim = self.conf["simulate"]
        grid = self.grid()
        params = self.params(grid.dim)
        prim0 = self._small_data(grid, sim["amplitude"])
        with _in_section("simulate"):
            config = RunConfig(params, sim["dt"], sim["t_final"],
                               rotation_correction=sim["rotation_correction"])
        result = direct_solve(prim0, config)
        write_csv(self.artifacts[0],
                  ["t", "inst_rho", "inst_u", "inst_E", "diss_rho", "diss_u",
                   "diss_E", "acc_rho", "acc_u", "acc_E"],
                  result.norms.table, "instantaneous and accumulated norms")
        final = result.final
        rho_hat = final.rho.copy()
        rho_hat.coeff[(0,) * grid.dim] += 1.0
        F = final.E.copy()
        for i in range(grid.dim):
            F.coeff[(i, i) + (0,) * grid.dim] += 1.0
        div, curl, *_ = constraint_residuals(rho_hat, F)
        summary = {
            "measured_gain": result.measured_gain,
            "initial_norm": result.initial_norm,
            "sup_instant": result.norms.sup_instant(),
            "l1_total": result.norms.final_l1(),
            "l1_tail_fraction": result.norms.l1_tail_fraction(),
            "steps": result.steps,
            "final_div_residual": div,
            "final_curl_residual": curl,
        }
        with open(self.artifacts[1], "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        save_field(self.artifacts[2], result.final.rho)
        if self.strict and summary["sup_instant"] > 10.0 * summary["initial_norm"]:
            raise InvariantViolation("instantaneous norm exceeded 10x data norm")

    def mode_iterate(self):
        it = self.conf["iterate"]
        grid = self.grid()
        params = self.params(grid.dim)
        prim0 = self._small_data(grid, it["amplitude"])
        with _in_section("iterate"):
            config = RunConfig(params, it["dt"], it["t_final"],
                               picard_iterations=it["iterations"],
                               init_mollified=it["init"] == "mollified")
        result = picard_solve(prim0, config)
        rows = []
        for i, u_n in enumerate(result.differences):
            ratio = result.ratios[i - 1] if i >= 1 else ""
            rows.append((i + 1, u_n, ratio, result.iterate_norms[i].bnorm()))
        write_csv(self.artifacts[0], ["sweep", "difference_norm", "ratio",
                                      "iterate_norm"], rows,
                  "consecutive-difference contraction report")
        monitor = uniform_bound_monitor(result)
        monitor["contraction_ratios"] = result.ratios
        with open(self.artifacts[1], "w") as fh:
            json.dump(monitor, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if self.strict and not all(r <= 0.9 for r in result.ratios[1:]):
            raise InvariantViolation("iteration failed to contract below 0.9")

    def mode_constraints(self):
        con = self.conf["constraints"]
        grid = self.grid()
        rows, data = [], None
        with _in_section("constraints"):
            for n in con["refine_levels"]:
                # a level on the run grid is the transport's initial data too
                level = grid if n == grid.n else Grid(grid.dim, n, grid.length, grid.dealias_frac)
                level_data = generate_admissible(FlowMap(level, _default_modes(level), con["eps"]))
                if level is grid:
                    data = level_data
                div, curl, *_ = constraint_residuals(level_data.rho_hat, level_data.F)
                rows.append((n, div, curl, level_data.det_defect))
        write_csv(self.artifacts[0], ["n", "div_residual", "curl_residual",
                                      "det_defect"], rows,
                  "flow-map data residuals under grid refinement")

        k = max(1, int(round(grid.length)))
        u = _solenoidal_velocity(grid, k, con["u_amplitude"])
        with _in_section("constraints"):
            if data is None:
                data = generate_admissible(FlowMap(grid, _default_modes(grid), con["eps"]))
            times, snaps = transport_simulate(data.rho_hat, data.F, u, con["dt"],
                                              con["t_final"], sample_every=5)
        rep = check_trajectory(times, snaps, u, strict=self.strict)
        write_csv(self.artifacts[1],
                  ["t", "div_residual", "curl_residual", "gauge_integral"],
                  zip(rep.times, rep.div_res, rep.curl_res, rep.gauge_integral),
                  "constraint residuals along a transport trajectory")

    def mode_scaling(self):
        sc = self.conf["scaling"]
        grid = self.grid()
        quarter = (grid.n // 2 - 1) // 2 / grid.length
        f = random_field(grid, "scalar", self.rng, band=(1.0 / grid.length, quarter),
                         amplitude=sc["amplitude"])
        g = scale_dyadic(f)
        rows = []
        for s in sc["s_values"]:
            with _in_section("scaling", "s_values"):
                base = besov_norm(f, s)
                scaled = besov_norm(g, s)
            if not 0.0 < base < np.inf:  # a zero, underflowing or overflowing amplitude
                raise InputError(f"[scaling] amplitude = {sc['amplitude']} gives norm {base}")
            rows.append((s, base, scaled, scaled / base, 2.0 ** s,
                         abs(scaled / base - 2.0 ** s)))
            if self.strict and not abs(scaled / base - 2.0 ** s) <= 1e-10 * 2.0 ** s:
                raise InvariantViolation(f"scaling law violated at s={s}")
        write_csv(self.artifacts[0], ["s", "norm", "scaled_norm", "ratio",
                                      "expected", "abs_error"], rows,
                  "dyadic scaling-law check")


def _default_modes(grid: Grid):
    L = int(round(grid.length))
    k1 = (L, 0) + (0,) * (grid.dim - 2)
    k2 = (0, 2 * L) + (0,) * (grid.dim - 2)
    a1 = np.zeros(grid.dim); a1[1] = 1.0
    b2 = np.zeros(grid.dim); b2[0] = 0.7
    return [(k1, a1, np.zeros(grid.dim)), (k2, np.zeros(grid.dim), b2)]


def _solenoidal_velocity(grid: Grid, k: int, amplitude: float) -> SpectralField:
    u = cosine_mode(grid, (k, 0) + (0,) * (grid.dim - 2), amplitude,
                    rank="vector", component=(1,))
    v = cosine_mode(grid, (0, k) + (0,) * (grid.dim - 2), amplitude,
                    rank="vector", component=(0,), phase="sin")
    return u + v


def _sweep_configs(spec: str, raw: dict[str, dict[str, str]]):
    """One (config, directory name) per value of ``section.key=v1,v2,...``."""
    key, eq, values = spec.partition("=")
    section, dot, name = key.partition(".")
    if not (eq and dot and section and name and values):
        raise InputError(f"--sweep {spec!r}: expected section.key=v1,v2,...")
    for v in values.split(","):
        sub = {s: dict(keys) for s, keys in raw.items()}
        sub.setdefault(section, {})[name] = v
        yield sub, f"{key.replace('.', '_')}={v}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="viscoflow", description=__doc__)
    ap.add_argument("mode", choices=MODES)
    ap.add_argument("--config", required=True)
    ap.add_argument("--strict", action="store_true")
    ap.add_argument("--out", default=None)
    ap.add_argument("--sweep", default=None,
                    help="section.key=v1,v2,... fan out one run per value")
    args = ap.parse_args(argv)

    try:
        base = Runner(args.mode, _load_config(args.config), args.out, args.strict)
        if not args.sweep:
            return base.run()
        # every job's config is read, and so checked, before the first job runs
        runners = [Runner(args.mode, sub, base.out / name, args.strict)
                   for sub, name in _sweep_configs(args.sweep, base.raw)]
        threads = os.environ.get("VISCOFLOW_THREADS", "1")
        try:
            cap = int(threads)
        except ValueError:
            cap = 0
        if cap < 1:
            raise InputError(f"VISCOFLOW_THREADS = {threads!r}: expected a positive integer")
        if cap == 1:
            return max(runner.run() for runner in runners)
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(cap, len(runners))) as pool:
            return max(pool.map(Runner.run, runners))
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (StabilityError, DiagnosticError) as exc:
        print(f"run stopped: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
