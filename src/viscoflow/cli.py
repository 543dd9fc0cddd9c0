"""Configuration-driven command line front end.

Usage:
    viscoflow <mode> --config <path> [--strict] [--out <dir>]
                     [--sweep <key>=<v1,v2,...>]

Modes: analyze, linear, simulate, iterate, constraints, scaling.  Every run
writes a manifest first (config echo, parameters, planned artifacts), runs
the requested study, then rewrites the manifest with artifact checksums.
Identical config and seed give byte-identical CSV output.  Exit codes:
0 success, 1 input or configuration error, 2 invariant violation in strict
mode, 3 run stopped (the state left the valid regime, or a diagnostic could
not be measured).  Every non-zero exit prints one line on stderr.

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
from pathlib import Path

import numpy as np

from . import __version__
from .constraints import (check_trajectory, generate_admissible, shear_map,
                          transport_simulate, ComposedMap, FlowMap)
from .dyadic import DyadicFamily, besov_norm, hybrid_norm
from .errors import (ConfigurationError, DiagnosticError, InputError,
                     InvariantViolation, StabilityError)
from .evolve import (RunConfig, direct_solve, picard_solve,
                     uniform_bound_monitor)
from .grid import Grid, SpectralField, random_field, scale_dyadic
from .linear import EnergyConstants, run_pair_decay, PAIRS
from .model import ModelParams, PressureLaw, PrimitiveState
from .operators import Viscosity
from .snapshots import load_field, save_field

MODES = ("analyze", "linear", "simulate", "iterate", "constraints", "scaling")

_SCHEMA = {
    "run": {"seed", "out"},
    "grid": {"dim", "n", "length", "dealias"},
    "physics": {"mu", "lambda", "alpha", "pressure", "gamma_gas"},
    "analyze": {"input", "s_values", "hybrid_pairs"},
    "linear": {"pairs", "xi_values", "samples", "efolds"},
    "simulate": {"dt", "t_final", "amplitude", "rotation_correction"},
    "iterate": {"dt", "t_final", "amplitude", "iterations", "init"},
    "constraints": {"eps", "refine_levels", "dt", "t_final", "u_amplitude"},
    "scaling": {"s_values", "amplitude"},
}


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
    def __init__(self, mode: str, cfg: configparser.ConfigParser,
                 out_dir: Path, strict: bool):
        self.mode = mode
        self.cfg = cfg
        self.out = out_dir
        self.strict = strict
        self.artifacts: list[Path] = []
        self.seed = cfg.getint("run", "seed", fallback=1234)
        self.rng = np.random.default_rng(self.seed)

    # -- config helpers -------------------------------------------------

    def section(self, name: str):
        """The named config section; an absent one reads as all defaults."""
        return self.cfg[name] if self.cfg.has_section(name) else {}

    def grid(self) -> Grid:
        g = self.section("grid")
        return Grid(int(g.get("dim", 2)), int(g.get("n", 64)),
                    float(g.get("length", 8.0)),
                    float(g.get("dealias", 2.0 / 3.0)))

    def params(self, dim: int) -> ModelParams:
        p = self.section("physics")
        law_name = p.get("pressure", "quadratic")
        if law_name == "quadratic":
            law = PressureLaw.quadratic()
        elif law_name == "power":
            law = PressureLaw.power(float(p.get("gamma_gas", 1.4)))
        else:
            raise InputError(f"unknown pressure law {law_name!r}")
        visc = Viscosity(float(p.get("mu", 1.0)), float(p.get("lambda", 1.0)), dim)
        return ModelParams(visc, float(p.get("alpha", 1.0)), law)

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
            "config": {s: dict(self.cfg[s]) for s in self.cfg.sections()},
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
        self.out.mkdir(parents=True, exist_ok=True)
        self._plan()
        self.manifest(final=False)
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
        sec = self.section("analyze")
        if "input" not in sec:
            raise InputError("analyze needs a snapshot path: [analyze] input = <path>")
        field = load_field(sec["input"])
        fam = DyadicFamily(field.grid)
        s_values = [float(s) for s in sec.get("s_values", "0,1").split(",")]
        pairs = sec.get("hybrid_pairs", "")
        rows = []
        for s in s_values:
            rows.append(("homogeneous", s, "", besov_norm(field.project_mean_zero(), s, fam)))
        if pairs:
            for chunk in pairs.split(";"):
                s, t = (float(v) for v in chunk.split(","))
                rows.append(("hybrid", s, t,
                             hybrid_norm(field.project_mean_zero(), s, t, fam)))
        write_csv(self.artifacts[0], ["kind", "s", "t", "norm"], rows,
                  "frequency-block norms of one field snapshot")

    def mode_linear(self):
        sec = self.section("linear")
        pair_names = sec.get("pairs", ",".join(PAIRS)).split(",")
        xi_values = [float(v) for v in sec.get("xi_values", "1,2,4,8").split(",")]
        grid = self.grid()
        params = self.params(grid.dim)
        consts = EnergyConstants.from_viscosity(params.visc)
        rows = []
        for pair in pair_names:
            for xi in xi_values:
                k = int(round(xi * grid.length))
                kvec = (k,) + (0,) * (grid.dim - 1)
                res = run_pair_decay(grid, pair.strip(), kvec, params.visc, consts,
                                     n_samples=int(sec.get("samples", 600)),
                                     horizon_efolds=float(sec.get("efolds", 96.0)))
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
        sec = self.section("simulate")
        grid = self.grid()
        params = self.params(grid.dim)
        amp = float(sec.get("amplitude", 1e-2))
        prim0 = self._small_data(grid, amp)
        config = RunConfig(params, float(sec.get("dt", 0.02)),
                           float(sec.get("t_final", 20.0)),
                           rotation_correction=sec.get("rotation_correction",
                                                       "true") == "true")
        result = direct_solve(prim0, config)
        write_csv(self.artifacts[0],
                  ["t", "inst_rho", "inst_u", "inst_E", "diss_rho", "diss_u",
                   "diss_E", "acc_rho", "acc_u", "acc_E"],
                  result.norms.rows(), "instantaneous and accumulated norms")
        from .constraints import curl_residual, div_residual
        final = result.final
        rho_hat = final.rho.copy()
        rho_hat.coeff[(0,) * grid.dim] += 1.0
        F = final.E.copy()
        for i in range(grid.dim):
            F.coeff[(i, i) + (0,) * grid.dim] += 1.0
        summary = {
            "measured_gain": result.measured_gain,
            "initial_norm": result.initial_norm,
            "sup_instant": result.norms.sup_instant(),
            "l1_total": result.norms.final_l1(),
            "l1_tail_fraction": result.norms.l1_tail_fraction(),
            "steps": result.steps,
            "final_div_residual": div_residual(rho_hat, F),
            "final_curl_residual": curl_residual(F),
        }
        with open(self.artifacts[1], "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        save_field(self.artifacts[2], result.final.rho)
        if self.strict and summary["sup_instant"] > 10.0 * summary["initial_norm"]:
            raise InvariantViolation("instantaneous norm exceeded 10x data norm")

    def mode_iterate(self):
        sec = self.section("iterate")
        grid = self.grid()
        params = self.params(grid.dim)
        amp = float(sec.get("amplitude", 1e-2))
        prim0 = self._small_data(grid, amp)
        config = RunConfig(params, float(sec.get("dt", 0.005)),
                           float(sec.get("t_final", 2.0)),
                           picard_iterations=int(sec.get("iterations", 6)),
                           init_mollified=sec.get("init", "mollified") == "mollified")
        result = picard_solve(prim0, config)
        rows = []
        for i, u_n in enumerate(result.differences):
            ratio = result.ratios[i - 1] if i >= 1 else ""
            rows.append((i + 1, u_n, ratio, result.iterate_norms[i].bnorm()))
        write_csv(self.artifacts[0], ["sweep", "difference_norm", "ratio",
                                      "iterate_norm"], rows,
                  "consecutive-difference contraction report")
        monitor = uniform_bound_monitor(result, amp)
        monitor["contraction_ratios"] = result.ratios
        with open(self.artifacts[1], "w") as fh:
            json.dump(monitor, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if self.strict and result.ratios and min(result.ratios[1:], default=0.0) > 0.9:
            raise InvariantViolation("iteration failed to contract below 0.9")

    def mode_constraints(self):
        sec = self.section("constraints")
        eps = float(sec.get("eps", 0.05))
        levels = [int(v) for v in sec.get("refine_levels", "16,32,64").split(",")]
        rows = []
        for n in levels:
            grid = Grid(self.grid().dim, n, self.grid().length)
            flow = FlowMap(grid, _default_modes(grid), eps)
            data = generate_admissible(flow)
            from .constraints import curl_residual, div_residual
            rows.append((n, div_residual(data.rho_hat, data.F),
                         curl_residual(data.F), data.det_defect))
        write_csv(self.artifacts[0], ["n", "div_residual", "curl_residual",
                                      "det_defect"], rows,
                  "flow-map data residuals under grid refinement")

        grid = self.grid()
        flow = FlowMap(grid, _default_modes(grid), eps)
        data = generate_admissible(flow)
        u_amp = float(sec.get("u_amplitude", 0.05))
        k = max(1, int(round(grid.length)))
        u = _solenoidal_velocity(grid, k, u_amp)
        times, snaps = transport_simulate(data.rho_hat, data.F, lambda t: u,
                                          float(sec.get("dt", 0.02)),
                                          float(sec.get("t_final", 1.0)),
                                          sample_every=5)
        rep = check_trajectory(times, snaps, strict=self.strict)
        write_csv(self.artifacts[1],
                  ["t", "div_residual", "curl_residual", "gauge_integral"],
                  zip(rep.times, rep.div_res, rep.curl_res, rep.gauge_integral),
                  "constraint residuals along a transport trajectory")

    def mode_scaling(self):
        sec = self.section("scaling")
        grid = self.grid()
        fam = DyadicFamily(grid)
        s_values = [float(v) for v in
                    sec.get("s_values", "-1,0,1").split(",")]
        quarter = (grid.n // 2 - 1) // 2 / grid.length
        f = random_field(grid, "scalar", self.rng, band=(1.0 / grid.length, quarter),
                         amplitude=float(sec.get("amplitude", 1.0)))
        g = scale_dyadic(f)
        rows = []
        for s in s_values:
            base = besov_norm(f, s, fam)
            scaled = besov_norm(g, s, fam)
            rows.append((s, base, scaled, scaled / base, 2.0 ** s,
                         abs(scaled / base - 2.0 ** s)))
            if self.strict and abs(scaled / base - 2.0 ** s) > 1e-10 * 2.0 ** s:
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
    from .grid import cosine_mode
    u = cosine_mode(grid, (k, 0) + (0,) * (grid.dim - 2), amplitude,
                    rank="vector", component=(1,))
    v = cosine_mode(grid, (0, k) + (0,) * (grid.dim - 2), amplitude,
                    rank="vector", component=(0,), phase="sin")
    return u + v


def validate_config(cfg: configparser.ConfigParser):
    for section in cfg.sections():
        if section not in _SCHEMA:
            raise InputError(f"unknown config section [{section}]")
        for key in cfg[section]:
            if key not in _SCHEMA[section]:
                raise InputError(f"unknown key {key!r} in section [{section}]")


def _run_job(job) -> int:
    """One sweep worker: rebuild the config and run in its own directory."""
    mode, cfg_dict, out_dir, strict = job
    sub = configparser.ConfigParser()
    sub.optionxform = str
    sub.read_dict(cfg_dict)
    return Runner(mode, sub, Path(out_dir), strict).run()


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
        cfg = configparser.ConfigParser()
        cfg.optionxform = str
        if not Path(args.config).exists():
            raise InputError(f"config file not found: {args.config}")
        cfg.read(args.config)
        validate_config(cfg)
        out_base = Path(args.out or cfg.get("run", "out", fallback="viscoflow-out"))

        if args.sweep:
            key, _, values = args.sweep.partition("=")
            jobs = []
            for v in values.split(","):
                sub = {s: dict(cfg[s]) for s in cfg.sections()}
                section, _, name = key.partition(".")
                sub.setdefault(section, {})[name] = v
                jobs.append((args.mode, sub,
                             str(out_base / f"{key.replace('.', '_')}={v}"),
                             args.strict))
            cap = max(1, int(os.environ.get("VISCOFLOW_THREADS", "1")))
            if cap == 1:
                return max(_run_job(job) for job in jobs)
            import concurrent.futures
            with concurrent.futures.ProcessPoolExecutor(max_workers=cap) as pool:
                return max(pool.map(_run_job, jobs))
        return Runner(args.mode, cfg, out_base, args.strict).run()
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
