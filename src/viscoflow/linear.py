"""Auxiliary linear system with convection, per-block energy functionals,
and a constant-coefficient eigenvalue oracle for its decay rates.

The system couples five unknowns (rho, d, Omega, W = E^T - E, scalar
potential) through first-order frequency multipliers and carries viscous
smoothing on d and Omega only.  Without convection it decouples per
Fourier mode into 2x2 pairs:

    (rho, d):        x'' + nu |xi|^2 x' + 2 |xi|^2 x = 0
    (Omega, W):      x'' + mu |xi|^2 x' +   |xi|^2 x = 0
    (potential, d):  x'' + nu |xi|^2 x' + 4 |xi|^2 x = 0

(each obtained by eliminating one variable from the corresponding pair),
which makes every damping/smoothing claim quantitatively testable.
``linear_rhs`` drives d by the density, so its potential follows d; the
(potential, d) pair is the same d equation driven by the potential instead,
and is exercised only by the free pair runs below.

A free run seeded at one mode is therefore sampled in closed form: one 2x2
propagator over all sample times, and the block energy as a quadratic form
in four fixed states (see ``run_pair_decay``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import psi
from .errors import DiagnosticError, InputError, InvariantViolation
from .grid import Grid, SpectralField, cosine_mode
from .model import HelmholtzState
from .operators import convect, fractional_power, laplacian, pair_rows, skew_l2

PAIRS = ("rho_d", "omega_w", "potential_d")


# ----------------------------------------------------------------------
# energy constants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyConstants:
    """Coupling weights of the low/high-frequency block energies.

    ``block_split`` is chosen deterministically so that on every block above
    it the first-order multiplier amplifies the L2 norm by at least
    2*gamma: block q carries frequencies >= 2^q * 5/6, hence
    block_split = ceil(log2(2*gamma*6/5)) suffices for all fields at once.
    """
    nu: float
    mu: float

    @property
    def gamma(self) -> float:
        return max(2.0 / self.mu ** 2, 5.0 / self.nu ** 2) + 1.0

    @property
    def block_split(self) -> int:
        return math.ceil(math.log2(2.0 * self.gamma * 6.0 / 5.0))

    @property
    def eta(self) -> float:
        q0 = self.block_split
        return max((4.0 ** q0 * self.nu ** 2 + 3.0) / 2.0,
                   self.nu,
                   self.nu / self.mu,
                   4.0 ** q0 * self.mu * self.nu / 2.0) + 1.0

    @property
    def beta1(self) -> float:
        return 2.0 / self.nu

    @property
    def beta2(self) -> float:
        return 2.0 / self.mu


# ----------------------------------------------------------------------
# right-hand side
# ----------------------------------------------------------------------

def linear_rhs(state: HelmholtzState, visc,
               u: SpectralField | None = None) -> HelmholtzState:
    """Time derivative of the five-field linear system, the compressible
    equation driven by the density (coefficient 2).

    Convection (when u is given) moves the whole state block in one
    ``convect`` call, dealiased; mean-zero is preserved by construction,
    antisymmetry by the layout of Omega and skew.
    """
    lam_d = fractional_power(state.d, 1.0)
    rhs = HelmholtzState(-1.0 * lam_d,
                         visc.nu * laplacian(state.d) + 2.0 * fractional_power(state.rho, 1.0),
                         visc.mu * laplacian(state.omega) + fractional_power(state.skew, 1.0),
                         -1.0 * fractional_power(state.omega, 1.0),
                         -2.0 * lam_d)
    if u is not None:
        rhs = rhs - HelmholtzState.of_block(state.grid, convect(state.grid, u.to_physical(),
                                                                state.block))
    return rhs.project_mean_zero()


# ----------------------------------------------------------------------
# block energies
# ----------------------------------------------------------------------

def block_radicand(state: HelmholtzState, q: int, consts: EnergyConstants) -> float:
    """Square of the block energy g_q before its weight 2^(q(N/2-1)).

    A real quadratic form in the blocks of the state.  The low form
    (q <= block_split) combines the L2 norms of (rho, d, skew, potential,
    Omega) with weights 2, 2, 1, 1, 1 and three cross terms scaled by
    nu/eta; eta keeps it nonnegative for every state.  The high
    form (q > block_split) takes first-order norms of (rho, skew, potential),
    weights 2*gamma and gamma on (d, Omega), and cross terms beta1, beta2,
    2*beta1; gamma makes it coercive for every state.  Omega and skew enter
    by Frobenius norms and inner products: each stored entry counts twice.
    """
    fam = state.rho.grid.dyadic
    b = {name: fam.block(getattr(state, name), q)
         for name in ("rho", "d", "omega", "skew", "potential")}
    lam = {name: fractional_power(b[name], 1.0) for name in ("rho", "skew", "potential")}
    skew_omega = 2.0 * lam["skew"].inner(b["omega"])
    if q <= consts.block_split:
        ce = consts.nu / consts.eta
        return (2.0 * b["rho"].l2() ** 2 + 2.0 * b["d"].l2() ** 2
                + skew_l2(b["skew"]) ** 2 + b["potential"].l2() ** 2 + skew_l2(b["omega"]) ** 2
                - ce * skew_omega
                - ce * lam["rho"].inner(b["d"])
                - ce * lam["potential"].inner(b["d"]))
    return (lam["rho"].l2() ** 2 + skew_l2(lam["skew"]) ** 2 + lam["potential"].l2() ** 2
            + 2.0 * consts.gamma * b["d"].l2() ** 2 + consts.gamma * skew_l2(b["omega"]) ** 2
            - consts.beta1 * lam["rho"].inner(b["d"])
            - consts.beta2 * skew_omega
            - 2.0 * consts.beta1 * lam["potential"].inner(b["d"]))


def _weighted_sqrt(sq: float, q: int, dim: int) -> float:
    # written so that a NaN radicand fails the check too
    if not sq >= -1e-13 * max(abs(sq), 1.0):
        raise InvariantViolation(
            f"block energy radicand negative or NaN at q={q}: {sq:.3e}; "
            f"constants misconfigured or state not finite")
    return 2.0 ** (q * (dim / 2.0 - 1.0)) * math.sqrt(max(sq, 0.0))


def block_energy(state: HelmholtzState, q: int, consts: EnergyConstants) -> float:
    """Block energy g_q in the low or high form, by q against block_split."""
    return _weighted_sqrt(block_radicand(state, q, consts), q, state.rho.grid.dim)


def equivalence_ratio(state: HelmholtzState, E: SpectralField, q: int,
                      consts: EnergyConstants) -> float | None:
    """Measured ratio of g_q to the weighted block norms of (rho, E, d, Omega).

    The denominator weights rho and E by the hybrid exponent (N/2-1 low,
    N/2 high) and d, Omega by N/2-1.  Returns None on an empty block.
    """
    fam = state.rho.grid.dyadic
    dim = state.rho.grid.dim
    w_re = dim / 2.0 - 1.0 if q <= 0 else dim / 2.0
    w_do = dim / 2.0 - 1.0
    denom = (2.0 ** (q * w_re) * (fam.block(state.rho, q).l2() + fam.block(E, q).l2())
             + 2.0 ** (q * w_do) * (fam.block(state.d, q).l2()
                                    + skew_l2(fam.block(state.omega, q))))
    if denom < 1e-300:
        return None
    return block_energy(state, q, consts) / denom


# ----------------------------------------------------------------------
# constant-coefficient oracle
# ----------------------------------------------------------------------

def constant_coeff_spectrum(xi: float, nu: float, mu: float) -> dict:
    """Eigenvalues of the three decoupled pairs at frequency magnitude xi.

    Derived by eliminating one unknown from each 2x2 system; see the module
    docstring for the resulting quadratics.
    """
    if xi <= 0.0:
        raise InputError("frequency magnitude must be positive")
    out = {}
    for pair, (damp, stiff) in {
        "rho_d": (nu, 2.0),
        "omega_w": (mu, 1.0),
        "potential_d": (nu, 4.0),
    }.items():
        b = damp * xi ** 2
        disc = complex(b * b - 4.0 * stiff * xi ** 2)
        root = np.sqrt(disc)
        out[pair] = ((-b + root) / 2.0, (-b - root) / 2.0)
    return out


def oracle_decay_rate(pair: str, xi: float, nu: float, mu: float) -> float:
    """Slowest decay rate min |Re lambda| of the pair at frequency xi."""
    lams = constant_coeff_spectrum(xi, nu, mu)[pair]
    return min(-lam.real for lam in lams)


def pair_matrix(pair: str, s, nu: float, mu: float):
    """Entries (a, b, c, d) of the pair's 2x2 generator at |xi| = s.

    Works elementwise on arrays of s.  Variable order is (rho, d),
    (Omega, W) and (potential, d) respectively.
    """
    s = np.asarray(s, dtype=np.float64)
    z = np.zeros_like(s)
    if pair == "rho_d":
        return z, -s, 2.0 * s, -nu * s ** 2
    if pair == "omega_w":
        return -mu * s ** 2, s, -s, z
    if pair == "potential_d":
        return z, -2.0 * s, 2.0 * s, -nu * s ** 2
    raise InputError(f"unknown pair {pair!r}")


def expm2(a, b, c, d, t):
    """exp(t*[[a,b],[c,d]]) for elementwise array entries, overflow-safe.

    ``t`` is a scalar or an array of times broadcast against the entries.

    Uses exp of the two eigenvalues directly, so decaying systems never
    evaluate a growing cosh; the defective (double-root) case is handled by
    the sinh(x)/x limit.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    c = np.asarray(c, dtype=np.complex128)
    d = np.asarray(d, dtype=np.complex128)
    half_tr = 0.5 * (a + d)
    delta = np.sqrt(0.25 * (a - d) ** 2 + b * c)
    ep = np.exp((half_tr + delta) * t)
    em = np.exp((half_tr - delta) * t)
    cosh_term = 0.5 * (ep + em)
    small = np.abs(delta * t) < 1e-8
    safe = np.where(small, 1.0, delta)
    sinh_term = np.where(small,
                         t * np.exp(half_tr * t) * (1.0 + (delta * t) ** 2 / 6.0),
                         (ep - em) / (2.0 * safe))
    return (cosh_term + (a - half_tr) * sinh_term, b * sinh_term,
            c * sinh_term, cosh_term + (d - half_tr) * sinh_term)


def evolve_pair_exact(x: SpectralField, y: SpectralField, pair: str,
                      visc, t: float):
    """Advance a seeded pair by the exact per-mode propagator.

    Exact per Fourier mode (the free system is constant-coefficient mode by
    mode), so rate fits carry no time-discretization error.
    """
    g = x.grid
    a, b, c, d = pair_matrix(pair, g.xi_mag, visc.nu, visc.mu)
    m11, m12, m21, m22 = expm2(a, b, c, d, t)
    mask = g.keep_mask & (g.xi_mag > 0)
    x2 = SpectralField(g, (m11 * x.coeff + m12 * y.coeff) * mask)
    y2 = SpectralField(g, (m21 * x.coeff + m22 * y.coeff) * mask)
    return x2, y2


# ----------------------------------------------------------------------
# decay measurement
# ----------------------------------------------------------------------

FIT_START_FRAC = 0.5    # leading share of the samples left out of the rate fit
MIN_FIT_SAMPLES = 20    # fewest usable samples the rate fit accepts


def measure_block_decay(times, values) -> float:
    """Fitted exponential decay rate from a positive time series.

    Least-squares slope of log(values) over the trailing window; the
    leading ``FIT_START_FRAC`` is skipped so slave modes and defective-root
    transients do not bias the fit.  Raises if fewer than
    ``MIN_FIT_SAMPLES`` usable points remain or they span less than one
    e-fold.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    start = int(len(times) * FIT_START_FRAC)
    t, v = times[start:], values[start:]
    ok = v > 1e-290
    t, v = t[ok], v[ok]
    if len(t) < MIN_FIT_SAMPLES:
        raise DiagnosticError(f"only {len(t)} usable samples for the rate fit")
    logv = np.log(v)
    if logv.max() - logv.min() < 1.0:
        raise DiagnosticError("fit window spans less than one e-fold")
    slope = np.polyfit(t, logv, 1)[0]
    return -float(slope)


def pair_state(grid: Grid, kvec):
    """Seed (x, y) scalar coefficient fields of unit amplitude for one pair
    at a single mode."""
    return cosine_mode(grid, kvec), cosine_mode(grid, kvec, phase="sin")


def _assemble_state(grid: Grid, pair: str, x: SpectralField, y: SpectralField) -> HelmholtzState:
    state = HelmholtzState.zeros(grid)
    if pair == "rho_d":
        state.rho, state.d = x, y
    elif pair == "potential_d":
        state.d, state.potential = y, x
    else:
        pair_rows(state.omega)[0], pair_rows(state.skew)[0] = x.coeff, y.coeff
    return state


def run_pair_decay(grid: Grid, pair: str, kvec, visc,
                   n_samples: int = 600, horizon_efolds: float = 96.0) -> dict:
    """Free-decay run of one pair seeded at a single mode, with rate fit.

    The block energy at the seeded frequency is sampled in closed form and
    its fitted rate is compared with the oracle.  Only the +-k modes are
    nonzero and share |xi|, so the exact propagator is one 2x2 matrix
    exp(t M) per time: the state is c(t) . (A(x0, 0), A(y0, 0), A(0, x0),
    A(0, y0)) with c = (m11, m12, m21, m22) and A the (linear) assembly of
    the pair into the five fields.  The block radicand is a quadratic form,
    so its 4x4 Gram matrix Q on these states (by polarization) gives every
    sample as c^T Q c; each sample is still checked for a negative or NaN
    radicand.  The energy constants are those of ``visc``.

    The fitted block is q = round(log2 |xi|), or q - 1 when |xi| 2^-q lies
    in [2^-1/2, 5/6], below block q's shell, where block q - 1 has psi = 1;
    so every representable frequency has a block.  A horizon that is not
    finite and positive, or too few samples for the rate fit, is rejected.
    So is a zero wavevector (the mean) or one at or past Nyquist.
    """
    if not (math.isfinite(horizon_efolds) and horizon_efolds > 0.0):
        raise InputError(f"efolds = {horizon_efolds}: the horizon in e-folds must be "
                         f"finite and > 0")
    window = n_samples - int(n_samples * FIT_START_FRAC)
    if window < MIN_FIT_SAMPLES:
        raise InputError(f"samples = {n_samples} leaves {window} in the trailing fit "
                         f"window, fewer than the {MIN_FIT_SAMPLES} the rate fit needs")
    xi = float(np.sqrt(sum((k / grid.length) ** 2 for k in kvec)))
    if not any(kvec) or any(2 * abs(k) >= grid.n for k in kvec):
        raise InputError(f"|xi| = {xi:g} (wavevector {tuple(kvec)}) is not "
                         f"representable on n = {grid.n}: need k nonzero and "
                         f"every |k_i| < n/2")
    q_seed = int(np.round(np.log2(xi)))
    if not psi(xi * 2.0 ** -q_seed) > 0.0:
        q_seed -= 1
    consts = EnergyConstants(visc.nu, visc.mu)
    oracle = oracle_decay_rate(pair, xi, visc.nu, visc.mu)
    times = np.linspace(0.0, horizon_efolds / oracle, n_samples)
    # real generator: exp(t M) is real, its imaginary part exactly zero
    c = np.array([m.real for m in expm2(*pair_matrix(pair, xi, visc.nu, visc.mu), times)])
    # the checks above keep +-k off the mean and the Nyquist planes, so the
    # direct path's mask keep_mask & (xi_mag > 0) leaves the seed as it is
    x0, y0 = pair_state(grid, kvec)
    zero = SpectralField.zeros(grid, "scalar")
    basis = [_assemble_state(grid, pair, x0, zero), _assemble_state(grid, pair, y0, zero),
             _assemble_state(grid, pair, zero, x0), _assemble_state(grid, pair, zero, y0)]
    gram = np.diag([block_radicand(s, q_seed, consts) for s in basis])
    for i, j in itertools.combinations(range(4), 2):
        both = block_radicand(basis[i] + basis[j], q_seed, consts)
        gram[i, j] = gram[j, i] = (both - gram[i, i] - gram[j, j]) / 2.0
    radicands = np.einsum("it,ij,jt->t", c, gram, c)
    series = np.array([_weighted_sqrt(sq, q_seed, grid.dim) for sq in radicands])
    rate = measure_block_decay(times, series)
    return {"pair": pair, "xi": xi, "q": q_seed, "fitted": rate, "oracle": oracle,
            "rel_error": abs(rate - oracle) / oracle, "times": times, "energy": series}

