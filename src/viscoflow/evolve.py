"""Time evolution: integrating-factor IMEX stepping of the split nonlinear
system, and the frozen-coefficient iteration that solves a linear system per
sweep and contracts to the same solution for small data.

Both modes share one stepper, one run loop and one norm ledger, and each run
builds one stepper.  The stepper is the integrating-factor Heun rule (IFRK2,
Cox & Matthews, J. Comput. Phys. 176:430, 2002): the viscous diagonal (nu
on d, mu on Omega) is integrated exactly per mode, and a non-stiff
right-hand side, a callable ``(state, node, u=None) -> ReformState`` handed
to each step, advances with the explicit second-order two-stage rule (``u``
is the state's velocity when the run loop already holds it).  The direct
mode's callable is the reformulated system without its viscous diagonal; an
iteration sweep's holds the linear couplings plus the sources frozen at the
previous sweep.  The skew couplings are non-stiff (first-order symbols
against second-order viscous ones), so no linear solves are needed anywhere.
The run loop (``_march``) yields the nodes, which its consumers sample
into ``NormSeries``.  The iteration's sweeps march together with the run's
one stepper, each one node behind the one before and keeping the run loop's
own states and velocities at its last two nodes (the staggered schedule of
Christlieb, Macdonald & Ong, SIAM J. Sci. Comput. 32:818, 2010), so memory
does not grow with the step count.  At each node one pass serves a sweep's
stage-1 convection and its successor's sources; both read the stored d and
Omega, so they cancel at the fixed point even where a 3-D Omega leaves the
range of |grad|^-1 curl.

Every state is one coefficient block (``model.FieldTuple``): the stepper
damps with one multiply by a per-row factor block, writes each stage into a
fresh block in place and zeros its means (Omega is antisymmetric by layout).
The ledger samples fields: ``NormSeries.record`` measures the state's rho
and E rows and the velocity the run loop holds with the dyadic family's
block-profile kernel, and a sweep's difference from the previous one is one
state-block and one velocity subtraction per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    integrals are nondecreasing by construction.  Each field of a sample is
    measured by one block profile (``DyadicFamily.block_l2_profile``) of the
    grid's own dyadic family, weighted twice (``weighted_sum``): the kernel
    of ``besov_norm`` and ``hybrid_norm``.  ``table`` holds one row per
    sample, the columns of ``norms.csv``: t, the instantaneous, smoothing and
    accumulated norms of rho, u and E.
    """

    def __init__(self, grid: Grid):
        self.fam = grid.dyadic
        self.s = grid.dim / 2.0
        self.table: list[tuple[float, ...]] = []

    def record(self, t: float, rho: SpectralField, u: SpectralField, E: SpectralField):
        """Sample the fields ``rho``, ``u`` and ``E`` at time ``t``."""
        fam, s = self.fam, self.s
        inst, diss = [], []
        for f, high in ((rho, s), (u, None), (E, s)):  # homogeneous u, hybrid rho and E
            profile = fam.block_l2_profile(f)
            inst.append(fam.weighted_sum(profile, s - 1.0, high))
            diss.append(fam.weighted_sum(profile, s + 1.0, high))
        acc = [0.0, 0.0, 0.0]
        if self.table:
            last = self.table[-1]
            dt = t - last[0]
            if dt < 0:
                raise InputError("sample times must be monotone")
            acc = [a + 0.5 * dt * (d0 + d) for a, d0, d in zip(last[7:], last[4:7], diss)]
        self.table.append((t, *inst, *diss, *acc))

    def sup_instant(self) -> float:
        return sum(max(row[i] for row in self.table) for i in (1, 2, 3))

    def final_l1(self) -> float:
        return sum(self.table[-1][7:])

    def bnorm(self) -> float:
        """Sum of the three sup-in-time norms and the three L1 integrals."""
        return self.sup_instant() + self.final_l1()

    def l1_tail_fraction(self, window: float = 0.25) -> float:
        """Share of the total dissipation integral accrued in the last
        ``window`` fraction of the run; small when the integrals are Cauchy."""
        total = self.final_l1()
        if total == 0.0:
            return 0.0
        early = sum(self.table[int(len(self.table) * (1.0 - window))][7:])
        return (total - early) / total


def initial_bnorm(prim: PrimitiveState) -> float:
    """Critical norm of the data, hybrid for rho and E and homogeneous for
    u: the instantaneous part of one ``NormSeries`` sample."""
    norms = NormSeries(prim.grid)
    norms.record(0.0, *prim)
    return norms.sup_instant()


# ----------------------------------------------------------------------
# the stepper and the run loop
# ----------------------------------------------------------------------

class IFStepper:
    """Integrating-factor Heun step (IFRK2) around a non-stiff right-hand side.

    A run builds one stepper, and each step is handed its right-hand side:
    ``nonstiff(state, node, u)`` is evaluated at the run loop's state and at
    the predictor (with no ``u``), nodes ``node`` and ``node + 1``.  The
    factors exp(-nu|xi|^2 dt) on d and exp(-mu|xi|^2 dt) on Omega are applied
    exactly, as one multiply by a factor block cached here (1 elsewhere).
    """

    def __init__(self, grid: Grid, config: RunConfig):
        self.grid = grid
        self.dt = config.dt
        p = config.params
        self.damping = np.ones(ReformState.block_shape(grid))
        rows = ReformState.of_block(grid, self.damping)
        rows.d.coeff[...] = np.exp(-p.nu * grid.xi_sq * config.dt)
        rows.omega.coeff[...] = np.exp(-p.mu * grid.xi_sq * config.dt)

    def check_cfl(self, u: SpectralField):
        umax = float(np.max(np.abs(u.to_physical())))
        number = self.dt * umax * self.grid.xi_max
        if not (number <= CFL_LIMIT):
            raise StabilityError(f"CFL number {number:.3g} exceeds limit {CFL_LIMIT} in field u")

    def step(self, nonstiff, state: ReformState, node: int,
             u: SpectralField | None = None) -> ReformState:
        """One step of ``nonstiff`` from ``state``, whose velocity ``u`` the
        caller may hold.  The predictor and the Heun sum are fresh blocks,
        written in place; ``state`` and the right-hand sides' results are only
        read, since the sweeps keep the run loop's states."""
        dt, x = self.dt, state.block
        k1 = nonstiff(state, node, u).block
        pred = np.multiply(k1, dt)
        pred += x
        pred *= self.damping
        k2 = nonstiff(ReformState.of_block(self.grid, pred), node + 1).block
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


def _march(stepper: IFStepper, nonstiff, state: ReformState, n_steps: int):
    """The run loop of both modes: steps with ``nonstiff``, yields
    ``(t, state, velocity)`` per node and checks the CFL number every
    CFL_CHECK_EVERY steps; errors name the step."""
    for k in range(n_steps + 1):
        u = state.velocity()
        yield k * stepper.dt, state, u
        if k == n_steps:
            return
        try:
            if k % CFL_CHECK_EVERY == 0:
                stepper.check_cfl(u)
            state = stepper.step(nonstiff, state, k, u)
        except StabilityError as exc:
            raise StabilityError(f"step {k + 1}: {exc}") from exc


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
    for t, final, u in _march(IFStepper(grid, config), direct_rhs(config),
                              ReformState.from_primitive(prim0), config.n_steps):
        norms.record(t, final.rho, u, final.E)
    return DirectResult(norms, final, config.n_steps, init)


# ----------------------------------------------------------------------
# frozen-coefficient iteration
# ----------------------------------------------------------------------

def mollify(prim: PrimitiveState, count: int) -> PrimitiveState:
    """Partial dyadic sum over |q| <= count, one multiply of the block; full
    data once count covers the active range, the intended limit on a finite grid."""
    fam = prim.grid.dyadic
    rows = [abs(q) <= count for q in fam.q_range]
    return PrimitiveState.of_block(prim.grid, prim.block * fam.psi_stack[rows].sum(axis=0))


class _Sweep:
    """One iteration sweep: its non-stiff right-hand side, and its nodes.  The
    velocity and sources are frozen at the previous sweep's ``window`` (none
    on the first sweep); at stage 1, given the run loop's ``u``, a sweep with
    a successor (``hands_on``) assembles its own sources in the same pass.
    ``kept`` holds the run loop's own ``(state, velocity)`` at the last two
    nodes, which the successor's difference reads."""

    def __init__(self, number: int, grid: Grid, params: ModelParams,
                 prev: _Sweep | None = None, hands_on: bool = False):
        self.number, self.params, self.prev, self.hands_on = number, params, prev, hands_on
        self.window: dict[int, tuple[ReformState, np.ndarray]] = {}
        self.kept: dict[int, tuple[ReformState, SpectralField]] = {}
        self.norms = NormSeries(grid)
        self.diff = self.norms if prev is None else NormSeries(grid)

    def _hand_on(self, node: int, sources: ReformState, u_phys: np.ndarray):
        self.window[node] = (sources, u_phys)
        self.window.pop(node - 2, None)

    def __call__(self, state: ReformState, node: int,
                 u: SpectralField | None = None) -> ReformState:
        out = skew_couplings(state, self.params.coupling, state.velocity() if u is None else u)
        frozen = None if self.prev is None else self.prev.window[node]
        if u is not None and self.hands_on:  # stage 1: the successor's source pass too
            sources, u_phys, *terms = assemble_sources(state, self.params, u, frozen)
            self._hand_on(node, sources, u_phys)
            if terms:
                out.block += terms[0].block
        elif frozen is not None:
            out.block += frozen[0].block - convect(state.grid, frozen[1], state.block)
        return out

    def nodes(self, stepper: IFStepper, prim0: PrimitiveState, config: RunConfig,
              limit: float):
        """The sweep's nodes, then its divergence check and final source pass."""
        data = mollify(prim0, self.number) if config.init_mollified else prim0
        march = _march(stepper, self, ReformState.from_primitive(data), n := config.n_steps)
        del data  # the start lives on only as the march's first state
        for k, (t, state, u) in enumerate(march):
            self.kept[k] = (state, u)
            self.kept.pop(k - 2, None)
            self.norms.record(t, state.rho, u, state.E)
            if self.prev is not None:
                prev_state, prev_u = self.prev.kept[k]
                delta = state - prev_state
                self.diff.record(t, delta.rho, u - prev_u, delta.E)
            yield
        if not (self.norms.bnorm() <= limit):  # NaN-safe
            raise StabilityError(
                f"iterate norm {self.norms.bnorm():.3g} exceeds {DIVERGENCE_FACTOR} "
                "x data norm; small-data hypothesis violated")
        if self.hands_on:
            try:
                self._hand_on(n, *assemble_sources(state, self.params, u))
            except StabilityError as exc:
                raise StabilityError(f"step {n}: {exc}") from exc


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
    terms, and its difference from sweep 0 is its own norm.  Divergence
    beyond DIVERGENCE_FACTOR times the data norm at a sweep's end aborts.  A
    failing sweep stops every later one, the earlier ones run on, and the
    lowest failing sweep's StabilityError is raised, naming it.
    """
    grid = prim0.rho.grid
    init_norm = initial_bnorm(prim0)
    limit = DIVERGENCE_FACTOR * max(init_norm, 1e-300)
    count = config.picard_iterations

    sweeps: list[_Sweep] = []
    for number in range(1, count + 1):
        sweeps.append(_Sweep(number, grid, config.params, sweeps[-1] if sweeps else None,
                             hands_on=number < count))
    stepper = IFStepper(grid, config)  # one damping block for every sweep
    marches = [sweep.nodes(stepper, prim0, config, limit) for sweep in sweeps]
    failed: dict[int, StabilityError] = {}
    for tick in range(config.n_steps + count + 1):
        # sweep s starts at tick s - 1; a failed sweep stops every later one
        for number, nodes in enumerate(marches[:min([tick + 1, *failed])], 1):
            try:
                next(nodes, None)
            except StabilityError as exc:
                failed[number] = exc
                break
    if failed:
        number = min(failed)
        raise StabilityError(f"sweep {number}: {failed[number]}") from failed[number]

    diffs = [sweep.diff.bnorm() for sweep in sweeps]
    ratios = [b / a if a > 0 else 0.0 for a, b in zip(diffs, diffs[1:])]
    finals = [PrimitiveState(state.rho, u, state.E)
              for state, u in (sweep.kept[config.n_steps] for sweep in sweeps)]
    return PicardResult([sweep.norms for sweep in sweeps], diffs, ratios, finals, init_norm)


def uniform_bound_monitor(result: PicardResult) -> dict:
    """Uniformity report across sweeps: the measured gain constants and a
    growth flag, set when the per-sweep gains trend upward (latest above
    1.5x the median of the earlier sweeps).
    """
    gains = result.measured_gains
    med = float(np.median(gains[:-1])) if len(gains) > 1 else gains[0]
    flagged = len(gains) > 1 and gains[-1] > 1.5 * med
    return {"gains": gains, "gain": max(gains), "flagged": bool(flagged)}
