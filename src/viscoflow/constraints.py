"""Deformation-gradient constraints: residuals, admissible-data generation,
and propagation checks along trajectories.

Two pointwise identities characterize physically admissible data: the
weighted divergence div(rho F^T) vanishes, and the Lagrangian curl
compatibility F_{lk} d_l F_{ij} = F_{lj} d_l F_{ik} holds.  Both are
automatic for deformations pulled back from a flow map (chain rule plus the
volume identity rho * det F = 1), which yields a constructive generator
with a built-in oracle.  Along transport by a steady velocity the
divergence residual obeys a Gronwall bound and the curl mismatch an
exponential majorant; both are verified sample-wise, never assumed.  The
transport right-hand side samples (rho, F) and the derivatives of F in one
inverse transform and takes rho u and the summed deformation products
(grad u) F - u.grad F through one dealiased forward transform: 19 scalar
transforms in 2-D and 49 in 3-D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InvariantViolation, StabilityError
from .evolve import step_count
from .grid import Grid, SpectralField, dealias_physical
from .model import PrimitiveState, deformation_flux
from .operators import derivative_rows, divergence, gradient, jacobian


# ----------------------------------------------------------------------
# flow maps
# ----------------------------------------------------------------------

INVERSE_TOL = 1e-12     # sup-norm step at which the inverse map's fixed point stops
INVERSE_MAX_ITER = 200  # fixed-point steps before the inverse map gives up


@dataclass
class FlowMap:
    """Periodic displacement map y -> y + eps * phi(y) on the torus.

    ``modes`` lists (k integer tuple, cos-amplitude vector, sin-amplitude
    vector); phi and its gradient are evaluated analytically at arbitrary
    points, so inverse maps and pullbacks carry no interpolation error.
    Invertibility needs eps * sup|grad phi| < 1/2.  Each wavevector must
    have ``dim`` entries, every one with |k_i| < n/2, so that the grid
    represents the mode.
    """
    grid: Grid
    modes: list
    eps: float

    def __post_init__(self):
        half = self.grid.n // 2
        for k, _, _ in self.modes:
            if len(k) != self.grid.dim:
                raise InputError(f"flow map mode k = {tuple(k)} has {len(k)} entries, "
                                 f"need dim = {self.grid.dim}")
            if any(abs(x) >= half for x in k):
                raise InputError(f"flow map is degenerate on this grid: mode k = {tuple(k)} "
                                 f"needs every |k_i| < {half} on n = {self.grid.n}")

    def displacement(self, y: np.ndarray) -> np.ndarray:
        """phi at points y of shape (dim, ...)."""
        out = np.zeros_like(y)
        L = self.grid.length
        for k, a, b in self.modes:
            phase = sum((k[i] / L) * y[i] for i in range(self.grid.dim))
            c, s = np.cos(phase), np.sin(phase)
            for i in range(self.grid.dim):
                out[i] += a[i] * c + b[i] * s
        return out

    def grad_displacement(self, y: np.ndarray) -> np.ndarray:
        """d phi_i / d y_j at points y; shape (dim, dim, ...)."""
        L = self.grid.length
        out = np.zeros((self.grid.dim,) + y.shape, dtype=np.float64)
        for k, a, b in self.modes:
            phase = sum((k[i] / L) * y[i] for i in range(self.grid.dim))
            c, s = np.cos(phase), np.sin(phase)
            for i in range(self.grid.dim):
                for j in range(self.grid.dim):
                    out[i, j] += (k[j] / L) * (-a[i] * s + b[i] * c)
        return out

    def grad_sup(self) -> float:
        y = self.grid.meshgrid()
        g = self.grad_displacement(y)
        return float(np.sqrt((g ** 2).sum(axis=(0, 1))).max())

    def check_invertible(self):
        if self.eps * self.grad_sup() >= 0.5:
            raise InputError("flow map too strong: eps * sup|grad phi| >= 1/2")

    def forward(self, y: np.ndarray) -> np.ndarray:
        return y + self.eps * self.displacement(y)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """Solve y + eps*phi(y) = x by damped fixed point y <- x - eps*phi(y),
        to ``INVERSE_TOL`` in at most ``INVERSE_MAX_ITER`` steps."""
        y = x.copy()
        for _ in range(INVERSE_MAX_ITER):
            y_new = x - self.eps * self.displacement(y)
            err = np.max(np.abs(y_new - y))
            y = y_new
            if err < INVERSE_TOL:
                return y
        raise InputError(f"inverse map did not converge below {INVERSE_TOL}")

    def deformation_at(self, y: np.ndarray) -> np.ndarray:
        """I + eps * grad phi evaluated at y; shape (dim, dim, ...)."""
        g = self.eps * self.grad_displacement(y)
        for i in range(self.grid.dim):
            g[i, i] += 1.0
        return g


def shear_map(grid: Grid, kvec, direction, eps: float) -> FlowMap:
    """Single-mode solenoidal shear: displacement along ``direction`` with
    phase k.y, direction orthogonal to k, hence volume preserving exactly."""
    k = np.asarray(kvec, dtype=float)
    v = np.asarray(direction, dtype=float)
    if abs(float(np.dot(k, v))) > 1e-12:
        raise InputError("shear direction must be orthogonal to the wavevector")
    zero = np.zeros(grid.dim)
    return FlowMap(grid, [(tuple(int(x) for x in kvec), v, zero)], eps)


# ----------------------------------------------------------------------
# residuals
# ----------------------------------------------------------------------

def _det(F: np.ndarray, dim: int) -> np.ndarray:
    if dim == 2:
        return F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
    return (F[0, 0] * (F[1, 1] * F[2, 2] - F[1, 2] * F[2, 1])
            - F[0, 1] * (F[1, 0] * F[2, 2] - F[1, 2] * F[2, 0])
            + F[0, 2] * (F[1, 0] * F[2, 1] - F[1, 1] * F[2, 0]))


def constraint_residuals(rho_hat: SpectralField, F: SpectralField):
    """(div, curl, L2 form, pointwise form) of (rho_hat, F) from one sampling
    of F.

    div is the L2 norm of div(rho F^T), componentwise d_j(rho F_{ji}).  The
    other three measure the curl mismatch T_{ijk} = F_{lk} d_l F_{ij} -
    F_{lj} d_l F_{ik} at the grid points: curl is the max over index triples
    of its grid-averaged L2 norm, and the two majorant-tracked forms of its
    square contract the first index, sum_i T_{ijk}^2, and take the max over
    (j,k) after grid averaging (L2 form) or over (j,k) and x (pointwise
    form).  Contracting over i is what the transport derivation controls at
    rate exactly 2*gauge, with no dimensional slack.
    """
    g = F.grid
    F_phys = F.to_physical()
    prod = dealias_physical(g, rho_hat.to_physical() * F_phys)
    div = divergence(SpectralField(g, prod.coeff.swapaxes(0, 1))).l2()
    dF = gradient(F).to_physical()
    T2 = (np.einsum("lk...,lij...->ijk...", F_phys, dF)
          - np.einsum("lj...,lik...->ijk...", F_phys, dF)) ** 2
    sq = T2.sum(axis=0)                             # (j, k, grid)
    return (div, float(np.sqrt(T2.mean(axis=tuple(range(3, 3 + g.dim))).max())),
            float(sq.mean(axis=tuple(range(2, 2 + g.dim))).max()), float(sq.max()))


# ----------------------------------------------------------------------
# admissible data
# ----------------------------------------------------------------------

@dataclass
class AdmissibleData:
    """Flow-map pullback: full density, full deformation, perturbation state."""
    rho_hat: SpectralField
    F: SpectralField
    state: PrimitiveState
    det_defect: float   # sup |det F * rho_hat - 1|, a construction identity


def generate_admissible(*maps: FlowMap) -> AdmissibleData:
    """Build constraint-satisfying (density, deformation) from flow maps.

    The maps compose left to right, X = X_last o ... o X_first, so F is the
    product of their Jacobians, each taken where the maps before it have
    carried the point.  Composing volume-preserving shears keeps det F
    identically one while producing deformations with genuinely nonlinear
    constraint structure.

    F(x) is the pullback of the composed Jacobian through the inverse maps
    and rho_hat = 1/det F, so both constraint residuals sit at interpolation
    error and det F * rho_hat = 1 holds pointwise by construction.  The
    state's velocity is zero; the constraints do not involve it.
    """
    grid = maps[0].grid
    for m in maps:
        m.check_invertible()
    y = grid.meshgrid()
    for m in reversed(maps):
        y = m.inverse(y)
    F_phys = maps[0].deformation_at(y)
    for before, m in zip(maps, maps[1:]):
        y = before.forward(y)
        F_phys = np.einsum("ij...,jk...->ik...", m.deformation_at(y), F_phys)
    det = _det(F_phys, grid.dim)
    if not np.all(det > 0.0):  # NaN-safe: comparisons with NaN are False
        raise InputError("flow map is degenerate on this grid: "
                         f"min det F = {np.min(det):.3g}")
    rho_phys = 1.0 / det
    if not np.all(np.isfinite(rho_phys)):
        raise InputError("flow map is degenerate on this grid: 1/det F is not finite")
    F = SpectralField.from_physical(grid, F_phys)
    rho_hat = SpectralField.from_physical(grid, rho_phys)
    det_defect = float(np.max(np.abs(det * rho_phys - 1.0)))

    state = PrimitiveState(rho_hat, SpectralField.zeros(grid, "vector"), F)
    state.rho.coeff[(0,) * grid.dim] -= 1.0
    for i in range(grid.dim):
        state.E.coeff[(i, i) + (0,) * grid.dim] -= 1.0
    return AdmissibleData(rho_hat, F, state, det_defect)


# ----------------------------------------------------------------------
# transport of (rho, F) under a steady velocity
# ----------------------------------------------------------------------

def transport_rhs(rho_hat: SpectralField, F: SpectralField, u_phys: np.ndarray,
                  grad_u: np.ndarray):
    """Continuity and deformation transport with a prescribed velocity, given
    its physical samples ``u_phys`` and those of its Jacobian ``grad_u``.

    One workspace pass: rho, F and the rows grad_F[l] = d_l F share one
    inverse transform.  The F equation's products are summed in physical
    space, F_dot = (grad u) F - u.grad F, as the model's deformation flux
    is, so rho u and F_dot share one dealiased forward transform; dealiasing
    is linear, so that is the same discrete system as transforming each
    product on its own.
    """
    g = rho_hat.grid
    d = g.dim
    with g.workspace() as ws:
        rho_s, F_s, grad_F = ws.spectral((), (d, d), (d, d * d))
        rho_s[...] = rho_hat.coeff
        F_s[...] = F.coeff
        derivative_rows(g, [F.coeff], grad_F)
        rho_p, F_p, grad_F = ws.inverse()
        flux, F_dot = ws.products((d,), (d, d))
        np.multiply(rho_p, u_phys, out=flux)
        deformation_flux(u_phys, grad_u, F_p, grad_F.reshape((d,) + F_p.shape), F_dot)
        flux, F_dot = ws.forward()
        return -divergence(flux), F_dot.copy()


def transport_simulate(rho_hat: SpectralField, F: SpectralField, u: SpectralField,
                       dt: float, t_final: float, sample_every: int = 1):
    """RK4 transport of (rho_hat, F) under the steady velocity u.

    u and grad u are sampled once per run.  Returns sampled times and
    snapshots (rho_hat, F): t = 0, every ``sample_every``-th step, and the
    final step whether or not it falls on that stride.  Pure advection has
    no stiff part, so classical RK4 is appropriate.  Snapshots are kept, not
    copied: every step builds new fields, so neither a snapshot nor the
    input is written again.  A step that leaves a non-finite coefficient
    raises ``StabilityError`` naming the step and the field.
    """
    nsteps = step_count(dt, t_final)
    u_phys = u.to_physical()
    grad_u = jacobian(u).to_physical()
    rho, Fc = rho_hat, F
    times, snaps = [0.0], [(rho, Fc)]
    for step in range(1, nsteps + 1):
        k1r, k1f = transport_rhs(rho, Fc, u_phys, grad_u)
        k2r, k2f = transport_rhs(rho + 0.5 * dt * k1r, Fc + 0.5 * dt * k1f, u_phys, grad_u)
        k3r, k3f = transport_rhs(rho + 0.5 * dt * k2r, Fc + 0.5 * dt * k2f, u_phys, grad_u)
        k4r, k4f = transport_rhs(rho + dt * k3r, Fc + dt * k3f, u_phys, grad_u)
        rho = rho + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        Fc = Fc + (dt / 6.0) * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        for name, f in (("F", Fc), ("rho", rho)):
            if not np.isfinite(f.coeff).all():
                raise StabilityError(f"step {step}: non-finite coefficients in field {name}")
        if step % sample_every == 0 or step == nsteps:
            times.append(step * dt)
            snaps.append((rho, Fc))
    return times, snaps


# ----------------------------------------------------------------------
# majorant checks
# ----------------------------------------------------------------------

def convection_gauge(u: SpectralField) -> float:
    """sup over the grid of (operator norm of grad u) + |div u|/2.

    This single gauge dominates the growth rates of all three propagation
    bounds (divergence Gronwall, pointwise curl majorant, and its L2-in-
    space surrogate including the transport dilation term), so every check
    below uses it as the ||grad u||_inf evaluator.
    """
    J = jacobian(u).to_physical()          # (dim, dim, grid)
    sing = _largest_singular_value(J)
    divu = np.abs(np.trace(J))
    return float((sing + 0.5 * divu).max())


def _largest_singular_value(J: np.ndarray) -> np.ndarray:
    """Pointwise operator norm of J, shape (dim, dim, grid).

    In 2-D it is the closed form hypot((a+d)/2, (c-b)/2) + hypot((a-d)/2,
    (c+b)/2) for J = [[a, b], [c, d]], a sum of two nonnegative terms and
    so free of cancellation; in 3-D an SVD of each point's matrix.
    """
    if len(J) == 2:
        (a, b), (c, d) = J
        return np.hypot(0.5 * (a + d), 0.5 * (c - b)) + np.hypot(0.5 * (a - d), 0.5 * (c + b))
    return np.linalg.svd(np.moveaxis(J, (0, 1), (-2, -1)), compute_uv=False)[..., 0]


@dataclass
class ConstraintReport:
    """Residual history and whether it stays under the Gronwall/curl majorants."""
    times: list = field(default_factory=list)
    div_res: list = field(default_factory=list)
    curl_res: list = field(default_factory=list)
    curl_sq_l2: list = field(default_factory=list)
    curl_sq_point: list = field(default_factory=list)
    gauge_integral: list = field(default_factory=list)
    div_ok: bool = True
    curl_ok: bool = True


# check_trajectory's floor on each bound and factor on each majorant's growth
ERROR_FLOOR = 1e-10
ALLOWANCE = 1.1


def check_trajectory(times, snaps, u: SpectralField, strict: bool = False) -> ConstraintReport:
    """Verify the divergence Gronwall bound and the curl majorant sample-wise.

    div:  r(t)^2   <= r(0)^2   * exp( (1/2) int gauge ) * ALLOWANCE + floor
    curl: M(t)     <= M(0)     * exp(  2   int gauge ) * ALLOWANCE + floor

    where M runs over both tracked forms of the squared curl mismatch (the
    grid-averaged and the pointwise one) and floor = (ERROR_FLOOR *
    max(|F(0)|, 1) * (1 + t))^2.  The floor absorbs integrator error when
    the initial residual is at round-off; ``ALLOWANCE`` (1.1) is the one
    factor on the growth.  Violations raise in strict mode.  ``snaps`` are
    the (rho_hat, F) pairs of ``transport_simulate`` under the steady
    velocity u, so the gauge is evaluated once and integrated sample by
    sample.
    """
    rep = ConstraintReport()
    gauge = convection_gauge(u)
    gauge_acc = 0.0
    for t, (rho, F) in zip(times, snaps):
        if rep.times:
            gauge_acc += (t - rep.times[-1]) * gauge
        rep.times.append(t)
        rep.gauge_integral.append(gauge_acc)
        div, curl, l2, point = constraint_residuals(rho, F)
        rep.div_res.append(div)
        rep.curl_res.append(curl)
        rep.curl_sq_l2.append(l2)
        rep.curl_sq_point.append(point)

    r0sq = rep.div_res[0] ** 2
    scale = max(snaps[0][1].l2(), 1.0)
    for i, t in enumerate(rep.times):
        floor = (ERROR_FLOOR * scale * (1.0 + t)) ** 2
        grow_div = r0sq * np.exp(0.5 * rep.gauge_integral[i]) * ALLOWANCE
        if not (rep.div_res[i] ** 2 <= grow_div + floor):  # a NaN residual violates
            rep.div_ok = False
        grow = np.exp(2.0 * rep.gauge_integral[i]) * ALLOWANCE
        for series in (rep.curl_sq_l2, rep.curl_sq_point):
            bound = series[0] * grow + floor
            if not (series[i] <= bound):
                rep.curl_ok = False
    if strict and not (rep.div_ok and rep.curl_ok):
        raise InvariantViolation("constraint propagation majorant violated")
    return rep
