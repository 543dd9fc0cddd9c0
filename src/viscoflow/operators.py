"""Fourier-multiplier calculus: fractional powers, Helmholtz split, Lame
operator, the double-divergence reduction, and the symmetric-part scalar.

Conventions (fixed package-wide):

* Jacobian (grad u)_{ij} = d_j u_i.
* Matrix divergence is taken along rows: (div E)_i = d_j E_{ij}.
* curl of a vector is the antisymmetric matrix (curl u)_{ij} = d_j u_i - d_i u_j;
  the adjoint-type curl of an antisymmetric matrix is the vector
  (curl Om)_i = d_j Om_{ji}, so that split/reconstruct is an exact involution
  and div u = lam d, curl u = lam Om hold as identities (lam = |grad|).
* An antisymmetric field is stored by its i < j entries (``_pairs`` order,
  component shape ``SKEW_SHAPE[N]``); ``skew_l2`` is its Frobenius norm.

All operators are diagonal in Fourier space, hence commute with each other
and with dyadic blocks exactly.  Each differential map is one contraction
with the grid's symbol stack ``Grid.nabla`` (``nabla[l] = 1j * xi_l``, shape
``(dim,) + spectral_shape``): ``gradient`` puts the direction on a new
leading axis, ``jacobian`` on a new last component axis, ``divergence``
contracts it with the last component axis; the coefficients are always the
left factor of a product with the symbols.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .grid import Grid, SpectralField, dealias_physical


def _nabla(grid: Grid, lead: int) -> np.ndarray:
    """The symbol stack shaped to multiply coefficients whose last component
    axis is followed by ``lead`` more axes before the spectral ones: member
    axes of a group of states, or component axes the map passes over."""
    return grid.nabla.reshape((grid.dim,) + (1,) * lead + grid.spectral_shape)


def gradient(f: SpectralField) -> SpectralField:
    """Partial derivatives stacked on a new leading axis: scalar -> vector,
    and for any rank out[l] = d_l f."""
    g = f.grid
    return SpectralField(g, f.coeff * _nabla(g, f.coeff.ndim - g.dim))


def jacobian(u: SpectralField, out=None) -> SpectralField:
    """Vector -> matrix J_{ij} = d_j u_i, written into ``out`` when given."""
    return SpectralField(u.grid, jacobian_rows(u.grid, u.coeff, out))


def jacobian_rows(grid: Grid, u: np.ndarray, out=None) -> np.ndarray:
    """``jacobian`` on coefficients of shape ``(dim,) + lead +
    spectral_shape``, ``lead`` the member axes of a group of states."""
    return np.multiply(u[:, None], _nabla(grid, u.ndim - 1 - grid.dim), out=out)


def divergence(f: SpectralField) -> SpectralField:
    """Contraction of the last component axis: vector -> scalar, matrix ->
    vector (row divergence), and a ``(pairs, dim)`` stack -> one row per pair."""
    g = f.grid
    if f.coeff.ndim == g.dim:
        raise InputError("divergence needs a vector or matrix field")
    return SpectralField(g, divergence_rows(g, f.coeff))


def divergence_rows(grid: Grid, c: np.ndarray, lead: int = 0) -> np.ndarray:
    """``divergence`` on coefficients whose component axes are followed by
    ``lead`` member axes."""
    return np.add.reduce(c * _nabla(grid, lead), axis=c.ndim - lead - grid.dim - 1)


def _pairs(dim: int):
    """Index pairs i < j: the stored entries of an antisymmetric matrix."""
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


# component shape of an antisymmetric field, by dimension: one entry in 2-D, three in 3-D
SKEW_SHAPE = {2: (), 3: (3,)}


def pair_rows(f: SpectralField) -> np.ndarray:
    """A view of an antisymmetric field's coefficients with one row per pair."""
    return f.coeff.reshape((-1,) + f.grid.spectral_shape)


def skew_l2(f: SpectralField) -> float:
    """Frobenius L2 norm of the antisymmetric matrix stored as ``f``: each entry counts twice."""
    return float(np.sqrt(2.0 * np.sum(f.power_profile())))


def skew_field(grid: Grid, upper) -> SpectralField:
    """The antisymmetric field with the i < j entries ``upper``, one per pair."""
    return SpectralField(grid, np.stack(upper).reshape(SKEW_SHAPE[grid.dim] + grid.spectral_shape))


def curl_matrix(u: SpectralField) -> SpectralField:
    """Vector -> antisymmetric matrix C_{ij} = d_j u_i - d_i u_j, the
    antisymmetric part J - J^T of the Jacobian: ``gradient(u)`` is J^T."""
    g = u.grid
    return SpectralField(g, curl_rows(g, u.coeff).reshape(SKEW_SHAPE[g.dim] + g.spectral_shape))


def curl_rows(grid: Grid, u: np.ndarray, lead: int = 0) -> np.ndarray:
    """``curl_matrix`` on vector coefficients followed by ``lead`` member
    axes, one row per pair: ``transpose_gap`` of the gradient's rows."""
    d = grid.dim
    rows = (u * _nabla(grid, 1 + lead)).reshape((d * d,) + u.shape[1:])
    lower, upper = _gap_rows(d)
    return rows.take(lower, axis=0) - rows.take(upper, axis=0)


def curl_vector(grid: Grid, om: np.ndarray) -> np.ndarray:
    """Antisymmetric matrix -> vector v_i = d_j Om_{ji}, from the pair rows
    ``om`` (``pair_rows`` of a field, or a state block's Omega rows), shape
    ``lead + (pairs,) + spectral_shape``, into a new ``lead + (dim,) +
    spectral_shape`` array; ``lead`` is empty or one member axis."""
    ax = -grid.dim - 1  # the component axis of a row stack
    out = np.zeros(om.shape[:ax] + (grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    components = out.swapaxes(0, out.ndim + ax)
    for row, (i, j) in zip(om.swapaxes(0, om.ndim + ax), _pairs(grid.dim)):
        components[i] -= row * grid.nabla[j]  # Om_{ji} = -Om_{ij}
        components[j] += row * grid.nabla[i]
    return out


def laplacian(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, -f.grid.xi_sq * f.coeff)


def fractional_power(f: SpectralField, s: float) -> SpectralField:
    """Apply |grad|^s: coefficient at k is scaled by (|k|/L)^s.

    Negative powers require a mean-zero field; the mean mode of the result
    is always zero.
    """
    g = f.grid
    if s == 0.0:
        return f.copy()
    if s < 0.0 and np.max(np.abs(f.mean_values())) > 1e-13 * (f.l2() + 1e-300):
        raise InputError("negative fractional power needs a mean-zero field")
    return SpectralField(g, f.coeff * g.xi_power(s))


def inverse_mag_times(f: SpectralField) -> SpectralField:
    """|grad|^{-1} f with the mean mode dropped (used by split/reductions)."""
    return SpectralField(f.grid, f.coeff * f.grid.inv_xi)


# ----------------------------------------------------------------------
# Helmholtz decomposition
# ----------------------------------------------------------------------

def helmholtz_split(u: SpectralField):
    """Vector -> (compressible scalar d, incompressible antisymmetric Om).

    d = |grad|^{-1} div u and Om = |grad|^{-1} curl u, so div u = lam d and
    curl u = lam Om hold exactly on the grid.
    """
    if np.max(np.abs(u.mean_values())) > 1e-13 * (u.l2() + 1e-300):
        raise InputError("helmholtz_split needs a mean-zero velocity")
    d = inverse_mag_times(divergence(u))
    om = inverse_mag_times(curl_matrix(u))
    return d, om


def helmholtz_reconstruct(d: SpectralField, om: SpectralField) -> SpectralField:
    """Inverse of the split: u = -|grad|^{-1} grad d + |grad|^{-1} curl Om."""
    return SpectralField(d.grid, helmholtz_velocity(d.grid, d.coeff, pair_rows(om)))


def helmholtz_velocity(grid: Grid, d: np.ndarray, om: np.ndarray, out=None) -> np.ndarray:
    """The coefficients of ``helmholtz_reconstruct`` from coefficient rows,
    written into ``out`` when it is given: ``d`` of the compressible scalar,
    shape ``lead + spectral_shape``, and ``om`` of Omega's i < j entries,
    shape ``lead + (pairs,) + spectral_shape`` (a state block's rows, or
    those of a stack of blocks, ``lead`` its member axis).  The result has
    shape ``lead + (dim,) + spectral_shape``.  The gradient part is one
    operation per step on all rows; the curl part is ``curl_vector``'s
    accumulation, in the operand order of the field-by-field definition."""
    ax = -grid.dim - 1  # the component axis of a row stack
    u = np.multiply(np.expand_dims(d, ax), grid.nabla, out=out)
    u *= grid.inv_xi
    np.negative(u, out=u)
    curl = curl_vector(grid, om)
    curl *= grid.inv_xi
    u += curl
    return u


# ----------------------------------------------------------------------
# Lame operator and the deformation reductions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Viscosity:
    """Shear/bulk viscosity pair with the ellipticity condition enforced."""
    mu: float
    lam: float
    dim: int

    def __post_init__(self):
        if not (0.0 < self.mu < np.inf and 0.0 < 2.0 * self.mu + self.dim * self.lam < np.inf):
            raise ConfigurationError(  # NaN-safe; both finite makes lambda finite
                f"need finite mu > 0 and 2*mu + N*lambda > 0, got mu={self.mu}, lambda={self.lam}")

    @property
    def nu(self) -> float:
        """Longitudinal coefficient lambda + 2*mu."""
        return self.lam + 2.0 * self.mu


@dataclass(frozen=True)
class SplitViscosity:
    """Damping pair (nu, mu) of the split system, taken as free parameters.

    The auxiliary linear system sees only the longitudinal and transverse
    coefficients; studying it at, say, nu = mu does not require a Lame pair
    behind them (in 2-D strict ellipticity would force nu > mu).
    """
    nu: float
    mu: float

    def __post_init__(self):
        if not (0.0 < self.nu < np.inf and 0.0 < self.mu < np.inf):  # NaN-safe
            raise ConfigurationError("both damping coefficients must be positive and finite, "
                                     f"got nu={self.nu}, mu={self.mu}")


def lame_operator(u: SpectralField, visc: Viscosity, out=None) -> SpectralField:
    """Elliptic viscosity operator mu*Lap + (lambda+mu)*grad div on vectors;
    the coefficients are written into ``out`` when it is given."""
    return SpectralField(u.grid, lame_rows(u.grid, u.coeff, visc, out))


def lame_rows(grid: Grid, u: np.ndarray, visc: Viscosity, out=None) -> np.ndarray:
    """``lame_operator`` on velocity coefficients of shape ``(dim,) + lead +
    spectral_shape`` (``lead`` the member axes of a group of states)."""
    nabla = _nabla(grid, u.ndim - 1 - grid.dim)
    div = np.add.reduce(u * nabla, axis=0)
    return np.add(-visc.mu * grid.xi_sq * u, (visc.lam + visc.mu) * nabla * div, out=out)


def _contract_dd(g: Grid, c: np.ndarray) -> np.ndarray:
    """sum_ij c_ij (i xi_i)(i xi_j): the symbol of d_i d_j contracted with
    matrix coefficients c, summed in row-major (i, j) order."""
    return np.add.reduce(c * g.nabla[:, None] * g.nabla, axis=(0, 1))


def double_divergence(E: SpectralField) -> SpectralField:
    """|grad|^{-1} div div E, a scalar first-order reduction of a matrix."""
    return SpectralField(E.grid, _contract_dd(E.grid, E.coeff) * E.grid.inv_xi)


def symmetric_scalar(E: SpectralField) -> SpectralField:
    """Scalar potential of the symmetric part:
    |grad|^{-1} d_i |grad|^{-1} d_j (E_{ij} + E_{ji}), indices summed.

    Antisymmetric input gives exactly zero; together with E - E^T this
    scalar controls the full matrix in every block norm.
    """
    g = E.grid
    acc = _contract_dd(g, E.coeff + np.swapaxes(E.coeff, 0, 1))
    return SpectralField(g, acc * g.inv_xi ** 2)


@functools.cache
def _gap_rows(dim: int):
    """Flat (i, j) indices of E_ji and of E_ij, one per pair i < j."""
    pairs = _pairs(dim)
    return np.array([j * dim + i for i, j in pairs]), np.array([i * dim + j for i, j in pairs])


def transpose_gap(E: SpectralField, out=None) -> SpectralField:
    """Antisymmetric record E^T - E, one subtraction of gathered rows; written
    into ``out`` (one row per pair) when it is given."""
    g = E.grid
    lower, upper = _gap_rows(g.dim)
    rows = E.coeff.reshape((-1,) + g.spectral_shape)
    gap = np.subtract(rows.take(lower, axis=0), rows.take(upper, axis=0), out=out)
    return SpectralField(g, gap.reshape(SKEW_SHAPE[g.dim] + g.spectral_shape))


# ----------------------------------------------------------------------
# dealiased nonlinear contractions
# ----------------------------------------------------------------------

def transport(u_phys: np.ndarray, grad_phys, out=None) -> np.ndarray:
    """Samples of u . grad f, given grad_phys[l] = d_l f for f of any rank
    (or a stack of such f); written into ``out`` when given."""
    out = np.multiply(u_phys[0], grad_phys[0], out=out)
    for l in range(1, len(u_phys)):
        out += u_phys[l] * grad_phys[l]
    return out


def derivative_rows(grid: Grid, coeffs, out: np.ndarray):
    """Write out[l, r] = d_l c_r into a pass's derivative rows, shape
    ``(dim, count) + trailing``, c_r running over the stored components of
    the coefficient arrays ``coeffs`` in order (a field's ``coeff``, a
    state's ``block``; an antisymmetric field's i < j entries).  ``trailing``
    is ``grid.spectral_shape``, or a member axis and it for the rows of a
    group of states (each array then shaped ``comp + trailing``)."""
    trailing = out.shape[2:]
    nabla = _nabla(grid, 1 + len(trailing) - grid.dim)
    start = 0
    for c in coeffs:
        c = c.reshape((-1,) + trailing)
        np.multiply(c, nabla, out=out[:, start:start + len(c)])
        start += len(c)


def convect(grid: Grid, u_phys: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Dealiased u . grad c, given the velocity's samples ``u_phys``, for every
    component of ``coeff``: a coefficient array of any leading shape (a
    field's ``coeff``, a state's ``block``).  One inverse transform of the
    derivative rows, one forward transform of the products; the result has
    ``coeff``'s shape and owns its memory."""
    rows = coeff.reshape((-1,) + grid.spectral_shape)
    with grid.workspace() as ws:
        (grads,) = ws.spectral((grid.dim, len(rows)))
        derivative_rows(grid, [rows], grads)
        (grads,) = ws.inverse()
        (moved,) = ws.products((len(rows),))
        transport(u_phys, grads, moved)
        (moved,) = ws.forward()
        return moved.coeff.reshape(coeff.shape).copy()


def matrix_product(A: SpectralField, B: SpectralField) -> SpectralField:
    """Dealiased matrix product (A B)_{ij} = A_{ik} B_{kj}."""
    g = A.grid
    a = A.to_physical()
    b = B.to_physical()
    return dealias_physical(g, np.einsum("ik...,kj...->ij...", a, b))
