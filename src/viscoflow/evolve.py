"""Time evolution: integrating-factor IMEX stepping of the split nonlinear
system, and the frozen-coefficient iteration that solves a linear system per
sweep and contracts to the same solution for small data.

Both modes share one stepper and one norm ledger, and each run builds one
stepper.  The stepper is the integrating-factor Heun rule (IFRK2, Cox &
Matthews, J. Comput. Phys. 176:430, 2002): the viscous diagonal (nu on d,
mu on Omega) is integrated exactly per mode, and a non-stiff right-hand
side advances with the explicit second-order two-stage rule
(``IFStepper.predict`` and ``combine``, on one block or a stack of blocks).
The direct mode's right-hand side is the reformulated system without its
viscous diagonal, a callable ``(state, node, u=None) -> ReformState``
handed to each step of its run loop (``_march``, which yields the nodes
its consumer samples into ``NormSeries``; ``u`` is the state's velocity
when the loop already holds it).  An iteration sweep's right-hand side is
the linear couplings plus the sources frozen at the previous sweep.  The
skew couplings are non-stiff (first-order symbols against second-order
viscous ones), so no linear solves are needed anywhere.

The iteration's sweeps advance in lock step (``_Sweeps``), each one node
behind the one before: the staggered schedule of Christlieb, Macdonald &
Ong (SIAM J. Sci. Comput. 32:818, 2010), pipelined as in Emmett & Minion
(Commun. Appl. Math. Comput. Sci. 7:105, 2012).  At tick tau sweep s steps
from node tau - s, reading the pair its predecessor handed on at that node
one tick before (stage 1) and at the next node in this tick (stage 2), so
the sweeps of a tick are independent and one pass serves many.  Their
states form one stacked block with a sweep axis, in two-slot rings by tick
parity: a tick reads every sweep's previous node, velocity and handed-on
pair from the slot of tick tau - 1 and writes the other, so memory does not
grow with the step count.  The stepping sweeps go in groups of at most
``GROUP_BYTES // model.sweep_pass_bytes(grid)`` (one sweep's largest pass
against a 2 MiB L2 cache: 3 sweeps at 2-D n=32, 1 at 2-D n=64 and in 3-D),
and each group makes one stage-1 and one stage-2 pass (``model.sweep_pass``)
covering the workspace, the derivative rows, the couplings, the velocities
and the stepper's damping and sums of all its sweeps.  Sweep 1 (no frozen
terms) and the last sweep (it hands nothing on) are slices of the group,
so every sweep makes the transforms and adds the terms it made alone, and
the results do not depend on the grouping, bit for bit.  A sweep's stage-1
pass serves its frozen convection and its successor's sources; both read
the stored d and Omega, so they cancel at the fixed point even where a 3-D
Omega leaves the range of |grad|^-1 curl.

Every state is one coefficient block (``model.FieldTuple``): the stepper
damps with one multiply by a per-row factor block, writes each stage into a
fresh block in place and zeros its means (Omega is antisymmetric by layout).
The ledger samples fields: ``NormSeries.record`` measures the state's rho
and E rows and its velocity with the dyadic family's block-profile kernel,
and a sweep's difference from the previous one is one state-block and one
velocity subtraction per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, StabilityError
from .grid import Grid, SpectralField
from .model import (ModelParams, PrimitiveState, ReformState, assemble_sources,
                    reformulated_rhs, skew_couplings, sweep_pass, sweep_pass_bytes)
from .operators import helmholtz_velocity

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
        caller may hold.  ``state`` and the right-hand sides' results are
        only read."""
        k1 = nonstiff(state, node, u).block
        pred = self.predict(state.block, k1)
        k2 = nonstiff(ReformState.of_block(self.grid, pred), node + 1).block
        return ReformState.of_block(self.grid, self.combine(state.block, k1, k2))

    def predict(self, x: np.ndarray, k1: np.ndarray) -> np.ndarray:
        """The predictor D(x + dt k1), a fresh block written in place; ``x``
        and ``k1`` may be stacks of blocks, as in ``combine``."""
        pred = np.multiply(k1, self.dt)
        pred += x
        pred *= self.damping
        return pred

    def combine(self, x: np.ndarray, k1: np.ndarray, k2: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """The Heun sum D(x + dt/2 k1) + dt/2 k2 with its means zeroed,
        written into ``out`` (a fresh block when None).  The blocks may carry
        a leading member axis: the damping multiplies every member's rows."""
        new = np.multiply(k1, 0.5 * self.dt, out=out)
        new += x
        new *= self.damping
        new += k2 * (0.5 * self.dt)
        new[(Ellipsis,) + (0,) * self.grid.dim] = 0.0
        return new


def direct_rhs(config: RunConfig):
    """Non-stiff part of the split nonlinear system: the reformulated
    right-hand side without the viscous diagonal the stepper integrates."""
    p = config.params

    def nonstiff(state: ReformState, node: int, u: SpectralField | None = None) -> ReformState:
        return reformulated_rhs(state, p, config.rotation_correction, viscous=False, u=u)
    return nonstiff


def _march(stepper: IFStepper, nonstiff, state: ReformState, n_steps: int):
    """The direct mode's run loop: steps with ``nonstiff``, yields
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


GROUP_BYTES = 2 * 2 ** 20  # the slabs of one group's passes fit a 2 MiB L2 cache


class _Sweeps:
    """The iteration's sweeps in lock step, one stacked block with a sweep
    axis (see the module docstring).  Sweep s (from 1) records node
    tau - s + 1 at tick tau, into the slot tau % 2 of its ring; the slot of
    tick tau - 1 holds every sweep's previous node and the sources each
    sweep handed on there, so a tick reads one slot and writes the other."""

    def __init__(self, grid: Grid, prim0: PrimitiveState, config: RunConfig, limit: float):
        count, shape = config.picard_iterations, ReformState.block_shape(grid)
        self.grid, self.prim0, self.config, self.limit = grid, prim0, config, limit
        self.count, self.n = count, config.n_steps
        self.stepper = IFStepper(grid, config)  # one damping block for every sweep
        self.x = np.empty((2, count) + shape, dtype=np.complex128)
        self.u = np.empty((2, count, grid.dim) + grid.spectral_shape, dtype=np.complex128)
        # the (sources, velocity samples) each sweep but the last hands on
        self.sources = np.empty((2, count - 1) + shape, dtype=np.complex128)
        self.samples = np.empty((2, count - 1, grid.dim) + (grid.n,) * grid.dim)
        self.norms = [NormSeries(grid) for _ in range(count)]
        self.diff = self.norms[:1] + [NormSeries(grid) for _ in range(1, count)]
        self.failed: dict[int, StabilityError] = {}
        self.width = max(1, GROUP_BYTES // sweep_pass_bytes(grid))

    @property
    def live(self) -> int:
        """The lowest stopped sweep: a failed sweep stops every later one."""
        return min(self.failed, default=self.count + 1)

    def tick(self, tau: int):
        """The sweep that recorded its last node at tick tau - 1 ends, the
        sweeps between it and sweep tau step in groups of at most ``width``,
        and sweep tau + 1 starts."""
        end = tau - self.n
        if 1 <= end < self.live:
            self._finish(end, tau)
        top = min(tau, self.count)
        for first in range(max(1, end + 1), top + 1, self.width):
            group = range(first, min(first + self.width, top + 1, self.live))
            if group:
                self._group(group, tau)
        if tau + 1 <= self.count and tau + 1 < self.live:
            self._start(tau + 1, tau)

    def _slots(self, tau: int):
        return tau % 2, (tau - 1) % 2

    def _pair(self, slot: int, sweeps: range):
        """The (sources, velocity samples) stacks ``sweeps`` hand on, in the
        ring slot ``slot``."""
        at = slice(sweeps.start - 1, sweeps.stop - 1)
        return self.sources[slot, at], self.samples[slot, at]

    def _start(self, s: int, tau: int):
        data = mollify(self.prim0, s) if self.config.init_mollified else self.prim0
        self.x[tau % 2, s - 1] = ReformState.from_primitive(data).block
        self._record(range(s, s + 1), tau)

    def _finish(self, s: int, tau: int):
        """Sweep s's divergence check, and the final source pass of a sweep
        with a successor."""
        norm = self.norms[s - 1].bnorm()
        if not (norm <= self.limit):  # NaN-safe
            self.failed[s] = StabilityError(
                f"iterate norm {norm:.3g} exceeds {DIVERGENCE_FACTOR} "
                "x data norm; small-data hypothesis violated")
        elif s < self.count:
            cur, prev = self._slots(tau)
            state = ReformState.of_block(self.grid, self.x[prev, s - 1])
            try:
                sources, self.samples[cur, s - 1] = assemble_sources(
                    state, self.config.params, SpectralField(self.grid, self.u[prev, s - 1]))
            except StabilityError as exc:
                self.failed[s] = StabilityError(f"step {self.n}: {exc}")
            else:
                self.sources[cur, s - 1] = sources.block

    def _group(self, sweeps: range, tau: int):
        """One step of each sweep of ``sweeps``, from node tau - s: its CFL
        check, one stage-1 and one stage-2 pass for the whole group, the
        Heun sum into the ring and the new nodes' records."""
        cur, prev = self._slots(tau)
        for s in sweeps:
            k = tau - s
            if k % CFL_CHECK_EVERY == 0:
                try:
                    self.stepper.check_cfl(SpectralField(self.grid, self.u[prev, s - 1]))
                except StabilityError as exc:
                    self.failed[s] = StabilityError(f"step {k + 1}: {exc}")
                    sweeps = range(sweeps.start, s)
                    break
        k1, sweeps = self._stage1(sweeps, tau)
        if sweeps:
            at = slice(sweeps.start - 1, sweeps.stop - 1)
            pred = self.stepper.predict(self.x[prev, at], k1)
            k2 = self._stage2(sweeps, tau, pred)
            self.stepper.combine(self.x[prev, at], k1, k2, out=self.x[cur, at])
            self._record(sweeps, tau)

    def _stage1(self, sweeps: range, tau: int):
        """The stage-1 right-hand sides of ``sweeps`` at their nodes, and the
        sweeps that passed: the couplings plus, in one pass, the sources a
        sweep hands on (all but the last sweep) and the frozen terms (all but
        the first).  A fault in a sweep's samples stops it and every later
        one, and the pass is made again for the sweeps before it."""
        if not sweeps:
            return None, sweeps
        cur, prev = self._slots(tau)
        at = slice(sweeps.start - 1, sweeps.stop - 1)
        x, u = self.x[prev, at], self.u[prev, at]
        hands_on = range(sweeps.start, min(sweeps.stop, self.count))
        frozen = range(max(sweeps.start, 2), sweeps.stop)
        if hands_on or frozen:
            given = self._pair(prev, range(frozen.start - 1, frozen.stop - 1)) if frozen else None
            terms, fault, _ = sweep_pass(self.grid, self.config.params, x, u, len(hands_on),
                                         given, self._pair(cur, hands_on))
            if fault:
                s = sweeps.start + fault[0]
                self.failed[s] = StabilityError(f"step {tau - s + 1}: {fault[1]}")
                return self._stage1(range(sweeps.start, s), tau)
        k1 = skew_couplings(self.grid, x, self.config.params.coupling, u)
        if frozen:
            k1[len(sweeps) - len(frozen):] += terms
        return k1, sweeps

    def _stage2(self, sweeps: range, tau: int, pred: np.ndarray) -> np.ndarray:
        """The stage-2 right-hand sides of ``sweeps`` at the predictors
        ``pred``: the couplings, plus the frozen terms of all but the first
        sweep in one convection pass."""
        g = self.grid
        omega = ReformState.field_rows(g, "omega")
        k2 = skew_couplings(g, pred, self.config.params.coupling,
                            helmholtz_velocity(g, pred[:, 1], pred[:, omega]))
        frozen = range(max(sweeps.start, 2), sweeps.stop)
        if frozen:
            given = self._pair(tau % 2, range(frozen.start - 1, frozen.stop - 1))
            terms, _, _ = sweep_pass(g, self.config.params, pred[len(sweeps) - len(frozen):],
                                     None, 0, given)
            k2[len(sweeps) - len(frozen):] += terms
        return k2

    def _record(self, sweeps: range, tau: int):
        """The velocities of the sweeps' new nodes in one batch, and their
        samples in each sweep's ledger and difference ledger."""
        g, (cur, prev) = self.grid, self._slots(tau)
        at = slice(sweeps.start - 1, sweeps.stop - 1)
        x = self.x[cur, at]
        helmholtz_velocity(g, x[:, 1], x[:, ReformState.field_rows(g, "omega")],
                           out=self.u[cur, at])
        for s in sweeps:
            t = (tau - s + 1) * self.stepper.dt
            state = ReformState.of_block(g, self.x[cur, s - 1])
            u = SpectralField(g, self.u[cur, s - 1])
            self.norms[s - 1].record(t, state.rho, u, state.E)
            if s > 1:
                delta = state - ReformState.of_block(g, self.x[prev, s - 2])
                self.diff[s - 1].record(t, delta.rho, u - SpectralField(g, self.u[prev, s - 2]),
                                        delta.E)

    def final(self, s: int) -> PrimitiveState:
        """Sweep s's state at the final time, recorded at tick n + s - 1."""
        slot = (self.n + s - 1) % 2
        state = ReformState.of_block(self.grid, self.x[slot, s - 1])
        return PrimitiveState(state.rho, SpectralField(self.grid, self.u[slot, s - 1]), state.E)


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
    lowest failing sweep's StabilityError is raised, naming it.  The sweeps
    advance in lock step, in groups (``_Sweeps``).
    """
    grid = prim0.rho.grid
    init_norm = initial_bnorm(prim0)
    sweeps = _Sweeps(grid, prim0, config, DIVERGENCE_FACTOR * max(init_norm, 1e-300))
    for tick in range(config.n_steps + config.picard_iterations + 1):
        sweeps.tick(tick)
    if sweeps.failed:
        number = min(sweeps.failed)
        raise StabilityError(f"sweep {number}: {sweeps.failed[number]}") from sweeps.failed[number]

    diffs = [series.bnorm() for series in sweeps.diff]
    ratios = [b / a if a > 0 else 0.0 for a, b in zip(diffs, diffs[1:])]
    finals = [sweeps.final(s) for s in range(1, config.picard_iterations + 1)]
    return PicardResult(sweeps.norms, diffs, ratios, finals, init_norm)


def uniform_bound_monitor(result: PicardResult) -> dict:
    """Uniformity report across sweeps: the measured gain constants and a
    growth flag, set when the per-sweep gains trend upward (latest above
    1.5x the median of the earlier sweeps).
    """
    gains = result.measured_gains
    med = float(np.median(gains[:-1])) if len(gains) > 1 else gains[0]
    flagged = len(gains) > 1 and gains[-1] > 1.5 * med
    return {"gains": gains, "gain": max(gains), "flagged": bool(flagged)}
