"""Time evolution: integrating-factor IMEX stepping of the split nonlinear
system, and the frozen-coefficient iteration that solves a linear system per
sweep and contracts to the same solution for small data.

Both modes share one stepper, one run loop and one norm ledger.  The stepper
is the integrating-factor Heun rule (IFRK2, Cox & Matthews, J. Comput. Phys.
176:430, 2002): the viscous diagonal (nu on d, mu on Omega) is integrated
exactly per mode, and a non-stiff right-hand side, a callable
``(state, node, u=None) -> ReformState``, advances with the explicit
second-order two-stage rule (``u`` is the state's velocity when the run loop
already holds it).  The direct mode's callable is the reformulated system
without its viscous diagonal; an iteration sweep's holds the linear
couplings plus the sources frozen at the previous sweep.  The skew
couplings are non-stiff (first-order symbols against second-order viscous
ones), so no linear solves are needed anywhere.
The run loop samples the state at t = 0 and after every step into a
``NormSeries``; the consecutive-difference norms of the iteration are a
``NormSeries`` over the differences.

Every state is one coefficient block (``model.FieldTuple``): the stepper
damps with one multiply by a per-row factor block, writes each stage into a
fresh block in place and zeros its means (Omega is antisymmetric by layout),
and a trajectory keeps one ``PrimitiveState`` block per node, so a sweep's
difference from the previous one is one subtraction per node.
The first sweep is measured against the zero trajectory, which is never
built: its difference norm is its own norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, StabilityError
from .grid import Grid, SpectralField
from .model import (ModelParams, PrimitiveState, ReformState, assemble_sources,
                    reformulated_rhs, skew_couplings)
from .operators import convect

CFL_LIMIT = 0.5
CFL_CHECK_EVERY = 10      # steps between CFL checks, the first at step 0
DIVERGENCE_FACTOR = 10.0  # a sweep norm past this times the data norm aborts


def step_count(dt: float, t_final: float) -> int:
    """Number of steps of size dt that end at t_final.

    A t_final that is not a whole number of steps (to 1e-9 relative) is
    rejected rather than moved to the nearest one.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_final < math.inf):
        raise InputError(f"dt and t_final must be positive and finite, "
                         f"got dt = {dt}, t_final = {t_final}")
    n = round(t_final / dt)
    if abs(n * dt - t_final) > 1e-9 * t_final:
        raise InputError(f"t_final = {t_final} is not a whole number of "
                         f"steps of dt = {dt}")
    return n


@dataclass
class RunConfig:
    """Knobs of one evolution run (shared by direct and iteration modes)."""
    params: ModelParams
    dt: float
    t_final: float
    rotation_correction: bool = True
    picard_iterations: int = 6
    init_mollified: bool = True

    def __post_init__(self):
        step_count(self.dt, self.t_final)
        if self.picard_iterations < 1:
            raise InputError(f"picard_iterations = {self.picard_iterations}: "
                             f"at least one sweep is needed")

    @property
    def n_steps(self) -> int:
        return step_count(self.dt, self.t_final)


# ----------------------------------------------------------------------
# norm bookkeeping
# ----------------------------------------------------------------------

class NormSeries:
    """Instantaneous critical-regularity norms plus running L1-in-time
    integrals of the smoothing norms; their sum is the global-bound norm.

    At index s = N/2: rho and E are measured in the hybrid (s-1, s) norm
    instantaneously and (s+1, s) under the integral; u in the homogeneous
    (s-1) and (s+1) norms.  Accumulation is by the trapezoid rule, so the
    integrals are nondecreasing by construction.  The blocks are the
    grid's own dyadic family.
    """

    def __init__(self, grid: Grid):
        self.fam = grid.dyadic
        self.s = grid.dim / 2.0
        self.times: list[float] = []
        self.inst = {"rho": [], "u": [], "E": []}
        self.diss = {"rho": [], "u": [], "E": []}
        self.acc = {"rho": [0.0], "u": [0.0], "E": [0.0]}

    def record(self, t: float, rho: SpectralField, u: SpectralField,
               E: SpectralField):
        s = self.s
        inst, diss = {}, {}
        for key, f in (("rho", rho), ("u", u), ("E", E)):
            high = None if key == "u" else s    # homogeneous u, hybrid rho and E
            profile = self.fam.block_l2_profile(f)
            inst[key] = self.fam.weighted_sum(profile, s - 1.0, high)
            diss[key] = self.fam.weighted_sum(profile, s + 1.0, high)
        if self.times:
            dt = t - self.times[-1]
            if dt < 0:
                raise InputError("sample times must be monotone")
            for key in ("rho", "u", "E"):
                self.acc[key].append(self.acc[key][-1]
                                     + 0.5 * dt * (self.diss[key][-1] + diss[key]))
        for key in ("rho", "u", "E"):
            self.inst[key].append(inst[key])
            self.diss[key].append(diss[key])
        self.times.append(t)

    def sup_instant(self) -> float:
        return sum(max(self.inst[k]) for k in ("rho", "u", "E"))

    def final_l1(self) -> float:
        return sum(self.acc[k][-1] for k in ("rho", "u", "E"))

    def bnorm(self) -> float:
        """Sum of the three sup-in-time norms and the three L1 integrals."""
        return self.sup_instant() + self.final_l1()

    def l1_tail_fraction(self, window: float = 0.25) -> float:
        """Share of the total dissipation integral accrued in the last
        ``window`` fraction of the run; small when the integrals are Cauchy."""
        total = self.final_l1()
        if total == 0.0:
            return 0.0
        idx = int(len(self.times) * (1.0 - window))
        early = sum(self.acc[k][idx] for k in ("rho", "u", "E"))
        return (total - early) / total

    def rows(self):
        for i, t in enumerate(self.times):
            yield (t, self.inst["rho"][i], self.inst["u"][i], self.inst["E"][i],
                   self.diss["rho"][i], self.diss["u"][i], self.diss["E"][i],
                   self.acc["rho"][i], self.acc["u"][i], self.acc["E"][i])


def initial_bnorm(prim: PrimitiveState) -> float:
    """Critical norm of the data, hybrid for rho and E and homogeneous for
    u: the instantaneous part of one ``NormSeries`` sample."""
    norms = NormSeries(prim.rho.grid)
    norms.record(0.0, prim.rho, prim.u, prim.E)
    return norms.sup_instant()


# ----------------------------------------------------------------------
# the stepper and the run loop
# ----------------------------------------------------------------------

class IFStepper:
    """Integrating-factor Heun step (IFRK2) around a non-stiff right-hand side.

    ``nonstiff(state, node, u)`` is evaluated at the step's two stage nodes,
    ``node`` and ``node + 1``; the viscous factors exp(-nu|xi|^2 dt) on d and
    exp(-mu|xi|^2 dt) on Omega are applied exactly, as one multiply by a
    factor block cached here (1 on the rho and E rows).
    """

    def __init__(self, grid: Grid, config: RunConfig, nonstiff):
        self.grid = grid
        self.dt = config.dt
        self.nonstiff = nonstiff
        p = config.params
        self.damping = np.ones(ReformState.block_shape(grid))
        rows = ReformState.of_block(grid, self.damping)
        rows.d.coeff[...] = np.exp(-p.nu * grid.xi_sq * config.dt)
        rows.omega.coeff[...] = np.exp(-p.mu * grid.xi_sq * config.dt)

    def check_cfl(self, u: SpectralField):
        umax = float(np.max(np.abs(u.to_physical())))
        number = self.dt * umax * self.grid.xi_max
        if not (number <= CFL_LIMIT):
            raise StabilityError(f"CFL number {number:.3g} exceeds limit {CFL_LIMIT}")

    def step(self, state: ReformState, node: int,
             u: SpectralField | None = None) -> ReformState:
        """One step from ``state``, whose velocity ``u`` the caller may hold.
        The predictor and the Heun sum are fresh blocks, written in place;
        ``state`` and the right-hand sides' results are only read, since
        recorders keep states."""
        dt, x = self.dt, state.block
        k1 = self.nonstiff(state, node, u).block
        pred = np.multiply(k1, dt)
        pred += x
        pred *= self.damping
        k2 = self.nonstiff(ReformState.of_block(self.grid, pred), node + 1).block
        new = np.multiply(k1, 0.5 * dt)
        new += x
        new *= self.damping
        new += k2 * (0.5 * dt)
        return ReformState.of_block(self.grid, new)._zero_means()


def direct_rhs(config: RunConfig):
    """Non-stiff part of the split nonlinear system: the reformulated
    right-hand side without the viscous diagonal the stepper integrates."""
    p = config.params

    def nonstiff(state: ReformState, node: int, u: SpectralField | None = None) -> ReformState:
        return reformulated_rhs(state, p, config.rotation_correction, viscous=False, u=u)
    return nonstiff


def _march(stepper: IFStepper, state: ReformState, n_steps: int,
           recorders) -> ReformState:
    """The run loop of both modes: hand the state to every
    ``record(t, rho, u, E)`` at t = 0 and after each step, and check the CFL
    number every CFL_CHECK_EVERY steps.  A StabilityError names the step."""
    for k in range(n_steps + 1):
        u = state.velocity()
        for record in recorders:
            record(k * stepper.dt, state.rho, u, state.E)
        if k == n_steps:
            return state
        try:
            if k % CFL_CHECK_EVERY == 0:
                stepper.check_cfl(u)
            state = stepper.step(state, k, u)
        except StabilityError as exc:
            raise StabilityError(f"step {k + 1}: {exc}") from exc


@dataclass
class Trajectory:
    """Primitive-variable snapshots at every accepted step, each copied
    once into its own ``PrimitiveState`` block, which nothing writes again
    (tested with the arrays set read-only)."""
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)

    def record(self, t, rho: SpectralField, u: SpectralField, E: SpectralField):
        self.times.append(t)
        self.states.append(PrimitiveState(rho, u, E))


# ----------------------------------------------------------------------
# direct mode
# ----------------------------------------------------------------------

@dataclass
class DirectResult:
    norms: NormSeries
    final: ReformState
    steps: int
    initial_norm: float

    @property
    def measured_gain(self) -> float:
        """Global-bound norm divided by the initial-data norm."""
        return self.norms.bnorm() / max(self.initial_norm, 1e-300)


def direct_solve(prim0: PrimitiveState, config: RunConfig) -> DirectResult:
    """Advance the split nonlinear system from primitive initial data."""
    grid = prim0.rho.grid
    norms = NormSeries(grid)
    init = initial_bnorm(prim0)
    final = _march(IFStepper(grid, config, direct_rhs(config)),
                   ReformState.from_primitive(prim0), config.n_steps,
                   (norms.record,))
    return DirectResult(norms, final, config.n_steps, init)


# ----------------------------------------------------------------------
# frozen-coefficient iteration
# ----------------------------------------------------------------------

def mollify(f: SpectralField, count: int) -> SpectralField:
    """Partial dyadic sum over |q| <= count; full data once count covers the
    active range, which matches the intended limit on a finite grid."""
    fam = f.grid.dyadic
    rows = [abs(q) <= count for q in fam.q_range]
    return SpectralField(f.grid, f.coeff * fam.psi_stack[rows].sum(axis=0))


class _SweepRHS:
    """Non-stiff part of one iteration sweep.

    The couplings act on the current sweep's unknowns; the convecting
    velocity and every quadratic source are frozen at the previous sweep's
    trajectory (none on the first sweep), sampled at the stage nodes.
    """

    def __init__(self, params: ModelParams, prev: Trajectory | None):
        self.params = params
        self.prev = prev
        self._cache: dict[int, tuple[ReformState, np.ndarray]] = {}

    def _sources(self, idx: int) -> tuple[ReformState, np.ndarray]:
        if idx not in self._cache:
            self._cache[idx] = assemble_sources(self.prev.states[idx], self.params)
            for old in [k for k in self._cache if k < idx - 1]:
                del self._cache[old]
        return self._cache[idx]

    def __call__(self, state: ReformState, node: int,
                 u: SpectralField | None = None) -> ReformState:
        out = skew_couplings(state, self.params.coupling,
                             state.velocity() if u is None else u)
        if self.prev is None:
            return out
        sources, u_frozen = self._sources(node)
        moved = ReformState.empty(state.grid)
        convect(u_frozen, *state, out=[f.coeff for f in moved])
        out.block -= moved.block
        out.block += sources.block
        return out


def _difference_bnorm(a: Trajectory, b: Trajectory) -> float:
    """Global-bound norm of the trajectory difference (same time nodes)."""
    norms = NormSeries(a.states[0].rho.grid)
    for t, x, y in zip(a.times, a.states, b.states, strict=True):
        diff = x - y
        norms.record(t, diff.rho, diff.u, diff.E)
    return norms.bnorm()


@dataclass
class PicardResult:
    iterate_norms: list          # NormSeries per sweep
    differences: list            # consecutive-difference global norms U_n
    ratios: list                 # U_{n+1} / U_n
    final_states: list           # final-time PrimitiveState per sweep
    initial_norm: float

    @property
    def measured_gains(self):
        return [ns.bnorm() / max(self.initial_norm, 1e-300)
                for ns in self.iterate_norms]


def picard_solve(prim0: PrimitiveState, config: RunConfig) -> PicardResult:
    """Run the frozen-coefficient iteration from small data.

    Sweep 0 is the zero trajectory; sweep n+1 solves the linear system with
    velocity and sources frozen at sweep n and data mollified to |q| <= n
    (or full data when ``init_mollified`` is off).  Sweep 1 has no frozen
    terms, and its difference from sweep 0 is its own norm.  Divergence beyond
    DIVERGENCE_FACTOR times the data norm aborts: the smallness hypothesis
    is violated.  A StabilityError names the sweep.
    """
    grid = prim0.rho.grid
    init_norm = initial_bnorm(prim0)
    limit = DIVERGENCE_FACTOR * max(init_norm, 1e-300)

    prev: Trajectory | None = None
    results: list[NormSeries] = []
    diffs: list[float] = []
    finals: list[PrimitiveState] = []
    for sweep in range(1, config.picard_iterations + 1):
        if config.init_mollified:
            data = prim0.map(lambda f: mollify(f, sweep))
        else:
            data = prim0.copy()
        rhs = _SweepRHS(config.params, prev)
        norms = NormSeries(grid)
        traj = Trajectory()
        try:
            _march(IFStepper(grid, config, rhs), ReformState.from_primitive(data),
                   config.n_steps, (norms.record, traj.record))
            if not (norms.bnorm() <= limit):  # NaN-safe
                raise StabilityError(
                    f"iterate norm {norms.bnorm():.3g} exceeds {DIVERGENCE_FACTOR} "
                    "x data norm; small-data hypothesis violated")
        except StabilityError as exc:
            raise StabilityError(f"sweep {sweep}: {exc}") from exc
        results.append(norms)
        diffs.append(norms.bnorm() if prev is None else _difference_bnorm(traj, prev))
        finals.append(traj.states[-1])
        prev = traj

    ratios = [diffs[i + 1] / diffs[i] if diffs[i] > 0 else 0.0
              for i in range(len(diffs) - 1)]
    return PicardResult(results, diffs, ratios, finals, init_norm)


def uniform_bound_monitor(result: PicardResult, gamma_data: float) -> dict:
    """Uniformity report across sweeps: measured gain constants, the
    smallness-ledger products, and a growth flag.

    Flags when the per-sweep gains trend upward (latest above 1.5x the
    median of the earlier sweeps); the smallness products are reported with
    the measured constant, never asserted.
    """
    gains = result.measured_gains
    med = float(np.median(gains[:-1])) if len(gains) > 1 else gains[0]
    flagged = len(gains) > 1 and gains[-1] > 1.5 * med
    gain = max(gains)
    c_measured = gain / 4.0
    return {
        "gains": gains,
        "gain": gain,
        "gamma_data": gamma_data,
        "smallness_product": gain ** 2 * gamma_data,
        "exp_product": math.exp(c_measured * gain * gamma_data),
        "smallness_ok": gain ** 2 * gamma_data <= 1.0
                        and math.exp(c_measured * gain * gamma_data) <= 2.0,
        "flagged": bool(flagged),
    }
