"""Physical model: pressure law, perturbation states about the equilibrium
(density 1, deformation I), and assembly of every right-hand side of the
near-equilibrium system.

Two equivalent evolution paths are provided:

* ``primitive_rhs`` -- the direct system in (density perturbation, velocity,
  deformation perturbation);
* ``reformulated_rhs`` -- the Helmholtz-split system in (rho, d, Omega, E),
  whose compressible/rotational equations absorb the deformation coupling
  through the divergence and curl structure of the constraint manifold.

On data satisfying the deformation constraints the two paths produce the
same time derivatives of (rho, d, Omega, E^T - E, symmetric scalar); off the
constraint manifold they differ, and that gap is itself a diagnostic.

The elastic coupling a = alpha / P'(1) is kept general (a = 1 recovers the
usual normalization); the linear-system module always works at a = 1.

Every state owns one coefficient block (``FieldTuple``): one complex array
of shape ``(rows,) + grid.spectral_shape`` with the components of its
fields stacked in field order, each field a view of its rows built at its
first access.  Omega and
E^T - E (rank ``"skew"``) keep only their i < j entries: antisymmetric by
layout, and measured by the Frobenius norm (``operators.skew_l2``).  A
``ReformState`` has 7 rows in 2-D and 14 in 3-D, a ``HelmholtzState`` 5 and
9, a ``PrimitiveState`` 1 + N + N^2.  ``reformulated_rhs`` and
``assemble_sources`` write their results into the rows of one new block.
The linear part works on block rows: the velocity
(``ReformState.velocity``, ``operators.helmholtz_velocity``) reads the d and
Omega rows, and ``skew_couplings`` fills each row range of a new block with
one operation per coupling; both also take a stack of blocks with a
leading member axis, as the iteration's lock-step sweeps hold them.

Every right-hand side evaluates its state in physical space once
(``PhysicalBundle``: rho, u, A u, E and the derivative rows), in one pass
over the grid's transform workspace: all families are written into its
spectral slab and take one inverse transform, and all products are
written into its products slab and take one dealiased forward transform.
Every derivative is a row of one ``(dim, count)`` stack
(``operators.derivative_rows``) over [u | rho | E], or of the state's block
when the pass also convects the state (the sweeps' ``sweep_pass``, with
grad u apart), so grad u, grad rho, grad E and the rows u.grad moves are
slices of it.  Products that share a
destination are summed there; by linearity that equals dealiasing each
product alone.  A pass tests its samples for finiteness in one scan.  The
transforms per call are the README's table ("Right-hand sides"), read from
``Grid.transforms``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, InputError, StabilityError
from .grid import Grid, SpectralField, Workspace, dealiased_product
from .operators import (Viscosity, curl_rows, derivative_rows, divergence, divergence_rows,
                        double_divergence, fractional_power, gradient,
                        helmholtz_split, helmholtz_velocity, jacobian, jacobian_rows,
                        lame_operator, lame_rows,
                        laplacian, SKEW_SHAPE, skew_field, skew_l2,
                        symmetric_scalar, transport, transpose_gap, _gap_rows, _pairs)

RHO_SUP_LIMIT = 0.5  # composition terms need the density perturbation below this


# ----------------------------------------------------------------------
# pressure law
# ----------------------------------------------------------------------

class PressureLaw:
    """Barotropic pressure, held by its derivative P'.

    The flow sees the law only through ``dp1 = P'(1)``, which sets the
    elastic coupling a = alpha / P'(1), and through ``deviation(r)``, the
    normalized pressure nonlinearity P'(1+r)/((1+r) P'(1)) - 1, which
    vanishes identically for the quadratic reference law.
    """

    def __init__(self, dp):
        self.dp = dp
        dp1 = float(dp(1.0))
        if not (0.0 < dp1 < np.inf):  # NaN-safe
            raise InputError(f"pressure law must have P'(1) > 0 and finite, got P'(1) = {dp1}")
        self.dp1 = dp1

    @classmethod
    def quadratic(cls) -> "PressureLaw":
        """P(x) = x^2."""
        return cls(lambda x: 2.0 * x)

    @classmethod
    def power(cls, gamma_gas: float) -> "PressureLaw":
        """P(x) = x^gamma_gas."""
        if not (gamma_gas > 0.0):  # NaN-safe
            raise InputError(f"gas exponent must be positive, got {gamma_gas}")
        return cls(lambda x, g=gamma_gas: g * x ** (g - 1.0))

    def deviation(self, r: np.ndarray) -> np.ndarray:
        """K(r) = P'(1+r)/((1+r) P'(1)) - 1, evaluated pointwise."""
        one_plus = 1.0 + r
        return self.dp(one_plus) / (one_plus * self.dp1) - 1.0


@dataclass(frozen=True)
class ModelParams:
    """Viscosities, elastic coupling, and pressure law for one run."""
    visc: Viscosity
    alpha: float = 1.0
    pressure: PressureLaw = field(default_factory=PressureLaw.quadratic)

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ConfigurationError(f"alpha must be finite, got {self.alpha}")

    @property
    def coupling(self) -> float:
        """Elastic coupling a = alpha / P'(1)."""
        return self.alpha / self.pressure.dp1

    @property
    def nu(self) -> float:
        return self.visc.nu

    @property
    def mu(self) -> float:
        return self.visc.mu


# ----------------------------------------------------------------------
# states: one coefficient block per state
# ----------------------------------------------------------------------
# PrimitiveState (rho, u, E), ReformState (rho, d, Omega, E) and
# HelmholtzState (rho, d, Omega, E^T - E, potential) declare their fields and
# ranks in one table, ``FIELDS``; FieldTuple stores them in one block and
# supplies +, -, scalar *, copy and project_mean_zero.

@functools.cache
def _layout(cls: type, dim: int) -> tuple[int, dict]:
    """The row count of a state type's block, and each field's (row slice,
    component shape), in field order."""
    fields, row = {}, 0
    for name, rank in cls.FIELDS.items():
        comp = {"scalar": (), "vector": (dim,), "matrix": (dim, dim),
                "skew": SKEW_SHAPE[dim]}[rank]
        fields[name] = (slice(row, row + math.prod(comp)), comp)
        row += math.prod(comp)
    return row, fields


class FieldTuple:
    """Base of the state types: every state owns one coefficient block.

    Each type declares its fields once, in ``FIELDS`` (name to rank, in block
    order).  The block, of shape ``(rows,) + grid.spectral_shape``, holds the
    fields' components in that order; each field is a ``SpectralField`` view
    of its rows, built at its first access and kept.  Building a state from
    its fields copies them into a new block, and assigning a field copies
    into its rows, so no field aliases an input or leaves the block; copies
    and pickles rebuild the state from its block (``__reduce__``) for the
    same reason.  States have no value equality.  The arithmetic is one numpy
    operation on the blocks and returns the same type.
    """

    FIELDS: ClassVar[dict[str, str]]
    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __init__(self, *fields: SpectralField):
        if len(fields) != len(self.FIELDS):
            raise TypeError(f"{type(self).__name__} takes the fields {tuple(self.FIELDS)}")
        grid = fields[0].grid
        self._bind(grid, np.empty(self.block_shape(grid), dtype=np.complex128))
        for name, value in zip(self.FIELDS, fields):
            setattr(self, name, value)

    def __reduce__(self):  # copies and pickles keep every field a view of the block
        return type(self).of_block, (self.grid, self.block)

    @classmethod
    def block_shape(cls, grid: Grid) -> tuple:
        return (_layout(cls, grid.dim)[0],) + grid.spectral_shape

    @classmethod
    def of_block(cls, grid: Grid, block: np.ndarray):
        """The state whose block is ``block`` itself, not a copy."""
        if block.shape != cls.block_shape(grid):
            raise InputError(f"{cls.__name__} on {grid} needs a block of shape "
                             f"{cls.block_shape(grid)}, got {block.shape}")
        state = cls.__new__(cls)
        state._bind(grid, block)
        return state

    @classmethod
    def empty(cls, grid: Grid):
        return cls.of_block(grid, np.empty(cls.block_shape(grid), dtype=np.complex128))

    @classmethod
    def zeros(cls, grid: Grid):
        return cls.of_block(grid, np.zeros(cls.block_shape(grid), dtype=np.complex128))

    @classmethod
    def field_rows(cls, grid: Grid, name: str) -> slice:
        """The rows of field ``name`` in a block on ``grid``."""
        return _layout(cls, grid.dim)[1][name][0]

    def _bind(self, grid: Grid, block: np.ndarray):
        self.__dict__["grid"], self.__dict__["block"] = grid, block

    def __getattr__(self, name):
        """A field's view of its rows, built at the first access and kept."""
        attrs = self.__dict__
        if "block" not in attrs or name not in self.FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        grid = attrs["grid"]
        rows, comp = _layout(type(self), grid.dim)[1][name]
        view = attrs[name] = SpectralField(
            grid, attrs["block"][rows].reshape(comp + grid.spectral_shape))
        return view

    def __setattr__(self, name, value):
        if name == "block" and value is self.block:  # ``state.block += x`` wrote in place
            return
        if name not in self.FIELDS:
            raise AttributeError(f"{type(self).__name__} has no field {name!r}")
        rows = getattr(self, name).coeff
        if not (isinstance(value, SpectralField) and value.coeff.shape == rows.shape
                and value.grid.compatible(self.grid)):
            raise InputError(f"{type(self).__name__}.{name} needs a field of shape "
                             f"{rows.shape} on {self.grid}")
        rows[...] = value.coeff

    def __iter__(self):
        return (getattr(self, name) for name in self.FIELDS)

    def norms(self) -> dict[str, float]:
        """Frobenius L2 norm of each field by name (``skew_l2`` on a skew field)."""
        return {name: skew_l2(f) if rank == "skew" else f.l2()
                for (name, rank), f in zip(self.FIELDS.items(), self)}

    def _like(self, block: np.ndarray) -> "FieldTuple":
        return self.of_block(self.grid, block)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._like(self.block + other.block)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._like(self.block - other.block)

    def __mul__(self, scalar):
        return self._like(self.block * scalar)

    __rmul__ = __mul__

    def copy(self):
        return self._like(self.block.copy())

    def project_mean_zero(self):
        return self.copy()._zero_means()

    def _zero_means(self):
        """Zero the mean mode of every row, in place; for blocks the caller
        has just built."""
        self.block[(slice(None),) + (0,) * self.grid.dim] = 0.0
        return self


class PrimitiveState(FieldTuple):
    """Perturbation variables (density - 1, velocity, deformation - I)."""
    FIELDS = {"rho": "scalar", "u": "vector", "E": "matrix"}


class HelmholtzState(FieldTuple):
    """Split variables: rho, compressible d, rotational Omega, the
    antisymmetric record E^T - E, and the symmetric-part scalar."""
    FIELDS = {"rho": "scalar", "d": "scalar", "omega": "skew", "skew": "skew",
              "potential": "scalar"}


def split_state(prim: PrimitiveState) -> HelmholtzState:
    d, om = helmholtz_split(prim.u)
    return HelmholtzState(prim.rho, d, om, transpose_gap(prim.E), symmetric_scalar(prim.E))


# ----------------------------------------------------------------------
# one physical evaluation per state
# ----------------------------------------------------------------------

@dataclass
class PhysicalBundle:
    """Physical samples of one state, every family in one inverse transform.

    Index conventions follow the operator layer: grad_u[i, j] = d_j u_i (the
    Jacobian) and grad_E[l, i, j] = d_l E_{ij}, slices of one derivative
    stack ``grads`` (``operators.derivative_rows``) over [u | rho | E].  A
    source pass (``sweep_pass``) builds its bundle from its own rows: a
    member axis before the spatial axes, grad u apart, and ``grads`` over
    the whole state's block, whose d and Omega rows it also convects.  The
    samples are views of the workspace ``ws`` and valid only inside its
    pass.  ``of`` scans the pass's samples once and raises
    ``StabilityError`` with the bundle's first ``fault``.  ``prim``
    supplies rho and E, and the velocity unless ``u`` is given.
    """
    ws: Workspace
    rho: np.ndarray
    grad_rho: np.ndarray
    u: np.ndarray
    grad_u: np.ndarray
    lame: np.ndarray
    E: np.ndarray
    grad_E: np.ndarray
    grads: np.ndarray

    @classmethod
    def of(cls, prim: PrimitiveState | ReformState, visc: Viscosity, ws: Workspace,
           u: SpectralField | None = None) -> "PhysicalBundle":
        g = ws.grid
        d = g.dim
        vel = prim.u if u is None else u
        coeffs = [vel.coeff, prim.rho.coeff, prim.E.coeff]
        count = sum(c.size for c in coeffs) // math.prod(g.spectral_shape)
        rho, u, lame, E, grads = ws.spectral((), (d,), (d,), (d, d), (d, count))
        rho[...] = prim.rho.coeff
        u[...] = vel.coeff
        E[...] = prim.E.coeff
        lame_operator(vel, visc, out=lame)
        derivative_rows(g, coeffs, grads)
        rho, u, lame, E, grads = ws.inverse()
        ph = cls(ws, rho, grads[:, d], u, grads[:, :d].swapaxes(0, 1), lame, E,
                 grads[:, -d * d:].reshape((d,) + E.shape), grads)
        fault = ph.fault(np.isfinite(ws.samples).all())
        if fault:
            raise StabilityError(fault)
        return ph

    def fault(self, finite: bool, member: int | None = None) -> str | None:
        """The first check the samples fail, or None: a family (in field
        order; ``grads`` for the d and Omega rows of a source pass) with a
        non-finite sample, then a density perturbation outside the small-data
        regime.  ``finite`` is the pass's one scan of its
        samples; the families only name the fault.  Given ``member``, only
        that member of a group pass (``sweep_pass``) is checked."""
        at = Ellipsis if member is None else (Ellipsis, member) + (slice(None),) * self.ws.grid.dim
        if not finite:
            for name in ("rho", "grad_rho", "u", "grad_u", "lame", "E", "grad_E", "grads"):
                if not np.isfinite(getattr(self, name)[at]).all():
                    return f"non-finite samples in field {name}"
        sup = float(np.max(np.abs(self.rho[at])))
        if not (sup <= RHO_SUP_LIMIT):  # NaN-safe: comparisons with NaN are False
            return f"density perturbation sup {sup:.3g} exceeds limit {RHO_SUP_LIMIT} in field rho"
        return None


def rotation_correction(ph: PhysicalBundle, out: np.ndarray):
    """Physical products of the antisymmetric quadratic correction in the
    rotational equation.

    S_{ij} = |grad|^{-1} d_k (B_{ijk} - B_{jik}) with
    B_{ijk} = E_{lk} d_l E_{ij} - E_{lj} d_l E_{ik}.  The difference
    C_{pk} = B_{ijk} - B_{jik} is formed for the pairs p = (i, j), i < j,
    and written into ``out`` (shape ``(pairs, dim)``), product rows of the
    caller's workspace pass; ``rotation_from_products`` finishes S from
    their dealiased coefficients after the pass's one forward transform.
    """
    E, dE = ph.E, ph.grad_E
    for p, (i, j) in enumerate(_pairs(ph.ws.grid.dim)):
        np.einsum("lk...,l...->k...", E, dE[:, i, j] - dE[:, j, i], out=out[p])
        out[p] -= np.einsum("l...,lk...->k...", E[:, j], dE[:, i])
        out[p] += np.einsum("l...,lk...->k...", E[:, i], dE[:, j])


def rotation_from_products(C: SpectralField) -> SpectralField:
    """The correction S from the dealiased coefficients of the products of
    ``rotation_correction``: S_{ij} = |grad|^{-1} d_k C_{pk}, stored by its
    i < j entries."""
    return skew_field(C.grid, divergence(C).coeff * C.grid.inv_xi)


def _common_vector(ph: PhysicalBundle, params: ModelParams, out: np.ndarray):
    """u.grad u + K(rho) grad rho + (rho/(1+rho)) A u - a E_{jk} d_j E_{ik}."""
    transport(ph.u, ph.grad_u.swapaxes(0, 1), out)
    out += params.pressure.deviation(ph.rho) * ph.grad_rho
    out += ph.rho / (1.0 + ph.rho) * ph.lame
    out -= params.coupling * np.einsum("jk...,jik...->i...", ph.E, ph.grad_E)


def _mass_flux(ph: PhysicalBundle, out: np.ndarray):
    """rho div u + u.grad rho."""
    np.multiply(ph.rho, np.trace(ph.grad_u), out=out)
    out += transport(ph.u, ph.grad_rho)


def _stretch(grad_u: np.ndarray, E: np.ndarray, out: np.ndarray):
    """Samples of (grad u) E, written into ``out``."""
    np.einsum("ik...,kj...->ij...", grad_u, E, out=out)


def deformation_flux(u: np.ndarray, grad_u: np.ndarray, E: np.ndarray, grad_E: np.ndarray,
                     out: np.ndarray):
    """Samples of (grad u) E - u.grad E, written into ``out``: the flux of the
    deformation equation, and of the transported F (``constraints``)."""
    _stretch(grad_u, E, out)
    out -= transport(u, grad_E)


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------

def primitive_rhs(prim: PrimitiveState, params: ModelParams) -> PrimitiveState:
    """Direct evolution of (rho, u, E); all products dealiased."""
    a = params.coupling
    d = prim.rho.grid.dim
    with prim.rho.grid.workspace() as ws:
        ph = PhysicalBundle.of(prim, params.visc, ws)
        mass, G, flux = ws.products((), (d,), (d, d))
        _mass_flux(ph, mass)
        _common_vector(ph, params, G)
        deformation_flux(ph.u, ph.grad_u, ph.E, ph.grad_E, flux)
        mass, G, flux = ws.forward()
        rho_dot = -divergence(prim.u) - mass
        u_dot = (lame_operator(prim.u, params.visc) - gradient(prim.rho)
                 + a * divergence(prim.E) - G)
        E_dot = jacobian(prim.u) + flux
    return PrimitiveState(rho_dot, u_dot, E_dot).project_mean_zero()


class ReformState(FieldTuple):
    """State advanced by the split path: (rho, d, Omega, E).

    The antisymmetric record and the symmetric scalar are derived fields;
    their displayed evolutions follow identically from the E equation.
    """
    FIELDS = {"rho": "scalar", "d": "scalar", "omega": "skew", "E": "matrix"}

    @classmethod
    def from_primitive(cls, prim: PrimitiveState) -> "ReformState":
        d, om = helmholtz_split(prim.u)
        return cls(prim.rho, d, om, prim.E)

    def velocity(self) -> SpectralField:
        """u = -|grad|^{-1} grad d + |grad|^{-1} curl Omega, from the block's rows."""
        g, x = self.grid, self.block
        return SpectralField(g, helmholtz_velocity(g, x[1], x[self.field_rows(g, "omega")]))

    def to_primitive(self) -> PrimitiveState:
        return PrimitiveState(self.rho, self.velocity(), self.E)


def reformulated_rhs(state: ReformState, params: ModelParams,
                     include_rotation_correction: bool = True, *,
                     viscous: bool = True, u: SpectralField | None = None) -> ReformState:
    """Evolution of (rho, d, Omega, E) in the split formulation.

    The d equation carries the (1+a) density coupling produced by folding
    the double-divergence of the deformation into the density gradient; the
    Omega equation carries the antisymmetric part plus (optionally) the
    quadratic rotation correction, which belongs to the exact system but is
    absent from the frozen-coefficient iteration sources.  ``viscous=False``
    leaves out the viscous diagonal (nu Lap d, mu Lap Omega), which an
    integrating-factor stepper applies exactly.  ``u`` is the state's
    velocity when the caller holds it.  The result is written into the rows
    of one new block.
    """
    g = state.grid
    a = params.coupling
    d = g.dim
    u = state.velocity() if u is None else u
    out = ReformState.of_block(g, skew_couplings(g, state.block, a, u.coeff))
    rho_dot, d_dot, om_dot, E_dot = (f.coeff for f in out)
    rotation = [(len(_pairs(d)), d)] if include_rotation_correction else []
    with g.workspace() as ws:
        ph = PhysicalBundle.of(state, params.visc, ws, u=u)
        mass, G, rho_E, flux, *rot = ws.products((), (d,), (d, d), (d, d), *rotation)
        _mass_flux(ph, mass)
        _common_vector(ph, params, G)
        # rho E is its own dealiased product: folding its divergence into G by
        # the product rule is exact only on band-limited data
        np.multiply(ph.rho, ph.E, out=rho_E)
        deformation_flux(ph.u, ph.grad_u, ph.E, ph.grad_E, flux)
        if rot:
            rotation_correction(ph, rot[0])
        mass, G, rho_E, flux, *rot = ws.forward()
        # the couplings plus the terms of the dealiased products
        rho_dot -= mass.coeff
        if viscous:
            d_dot += params.nu * laplacian(state.d).coeff
            om_dot += params.mu * laplacian(state.omega).coeff
        _subtract_momentum(g, out.block, G.coeff, rho_E.coeff, a)
        if rot:
            om_dot += a * rotation_from_products(rot[0]).coeff
        E_dot += flux.coeff
    return out._zero_means()


def skew_couplings(grid: Grid, x: np.ndarray, a: float, u: np.ndarray) -> np.ndarray:
    """The first-order couplings of the split system in one new block:
    -|grad| d, (1+a) |grad| rho, a |grad| (E^T - E) and grad u, with ``u``
    the velocity coefficients of the state block ``x``.  Both may carry one
    leading member axis (a stack of blocks and its velocities); each
    coupling is one operation on whole rows of the blocks."""
    d = grid.dim
    out = np.empty_like(x)
    # rows (and velocity components) first, then the member axis if any
    x_rows, rows, u = (y.swapaxes(0, y.ndim - d - 1) for y in (x, out, u))
    lam = grid.xi_power(1.0)
    omega, E = ReformState.field_rows(grid, "omega"), ReformState.field_rows(grid, "E")
    np.multiply(x_rows[1::-1], lam, out=rows[:2])  # rows 0, 1 are rho, d: |grad| d, |grad| rho
    np.negative(rows[0], out=rows[0])
    rows[1] *= 1.0 + a
    lower, upper = _gap_rows(d)  # E^T - E, as ``transpose_gap``
    np.subtract(x_rows[E].take(lower, axis=0), x_rows[E].take(upper, axis=0), out=rows[omega])
    rows[omega] *= lam
    rows[omega] *= a
    jacobian_rows(grid, u, out=rows[E].reshape((d, d) + rows.shape[1:]))  # grad u
    return out


def _subtract_momentum(grid: Grid, rows: np.ndarray, G: np.ndarray, rho_E: np.ndarray,
                       a: float):
    """Subtract |grad|^{-1} div(G + a div(rho E)) from the d row of the block
    ``rows`` and |grad|^{-1} curl G from its Omega rows, given the
    coefficients of G and rho E.  ``rows`` is row-first: a state's block, or
    the rows of a group's blocks with G and rho E on the group's member axis
    before the spectral axes."""
    lead, inv = G.ndim - 1 - grid.dim, grid.inv_xi
    rows[1] -= divergence_rows(grid, G + divergence_rows(grid, rho_E, lead) * a, lead) * inv
    rows[ReformState.field_rows(grid, "omega")] -= curl_rows(grid, G, lead) * inv


# ----------------------------------------------------------------------
# frozen-state sources of the linear iteration
# ----------------------------------------------------------------------

def assemble_sources(state: ReformState, params: ModelParams,
                     u: SpectralField | None = None, frozen=None):
    """Sources of the frozen-coefficient iteration at one frozen state.

    Returns the sources as a ``ReformState``, each in the slot of the
    unknown whose equation it drives (rho: the mass source -rho div u; d and
    Omega: the compressible and rotational sources, which convect the stored
    d and Omega; E: the stretch (grad u) E), and the physical samples of the
    frozen velocity ``u`` (the state's, when the caller holds it).  Every
    product is dealiased, compositions are evaluated pointwise in physical
    space, and the rotational source is stored by its i < j entries.
    Requires the density perturbation below 1/2 in sup norm.
    Given ``frozen``, the previous sweep's pair at this node, the pass also
    convects every row of ``state`` by the frozen velocity (as ``convect``
    does, bit for bit) and returns the frozen sources less that convection.
    This is the one-member group of ``sweep_pass``.
    """
    g = state.grid
    u = state.velocity() if u is None else u
    pair = None if frozen is None else (frozen[0].block[None], frozen[1][None])
    terms, fault, (sources, samples) = sweep_pass(g, params, state.block[None], u.coeff[None],
                                                  1, pair)
    if fault:
        raise StabilityError(fault[1])
    out = ReformState.of_block(g, sources[0])
    if frozen is None:
        return out, samples[0]
    return out, samples[0], ReformState.of_block(g, terms[0])


def sweep_pass(grid: Grid, params: ModelParams, x: np.ndarray, u: np.ndarray | None,
               sources: int, frozen=None, out=None):
    """One transform pass for a group of iteration sweeps, their states
    stacked on a leading member axis: ``x``, shape ``(m, rows) +
    spectral_shape``, holds the members' blocks in sweep order.

    The first ``sources`` members assemble their sources as
    ``assemble_sources`` does, at the velocities ``u`` (stacked as ``x``),
    into ``out``: a stack of source blocks and one of velocity samples,
    ``(sources, dim) + (n,) * dim`` (new arrays when ``out`` is None).
    ``frozen``, the pairs the previous sweeps handed on, stacked as ``out``,
    belongs to the last ``len(frozen[0])`` members: each is convected by
    its frozen velocity, as ``convect`` does, and its frozen sources less
    that convection are its frozen terms.  A member computes only what its
    part asks for, so each member's rows and transforms are those of its own
    ``assemble_sources`` or ``convect`` call.  Inside the pass every family
    keeps its component axes first and the member axis before the spatial
    axes, so each product is the one-state product on a longer array.

    Returns ``(terms, fault, out)``.  ``fault`` is None, or ``(i,
    message)`` for the first source member whose samples fail the checks of
    ``PhysicalBundle.fault``; the pass then stops after its inverse
    transform, and ``terms`` is None.
    """
    g, d = grid, grid.dim
    m, rows = x.shape[:2]
    s, f = sources, 0 if frozen is None else len(frozen[0])
    x = x.swapaxes(0, 1)  # rows first, then members: the layout of every family
    if out is None:
        out = (np.empty((s, rows) + g.spectral_shape, dtype=np.complex128),
               np.empty((s, d) + (g.n,) * d))
    n_moved = rows - 1 - d * d
    split = slice(1, 1 + n_moved)  # the d and Omega rows of a block, between rho and E
    drive = [(rows, f)] if f else []
    with g.workspace() as ws:
        if s:
            vel = u[:s].swapaxes(0, 1)
            rho, u_rows, lame, E, grad_u, grads = ws.spectral(
                (s,), (d, s), (d, s), (d, d, s), (d, d, s), (d, rows, m))
            rho[...] = x[0, :s]
            u_rows[...] = vel
            E[...] = x[-d * d:, :s].reshape(E.shape)
            lame_rows(g, vel, params.visc, out=lame)
            derivative_rows(g, [vel], grad_u)
        else:
            (grads,) = ws.spectral((d, rows, m))
        derivative_rows(g, [x], grads)
        *families, grads = ws.inverse()
        if s:
            rho, u_rows, lame, E, grad_u = families
            ph = PhysicalBundle(ws, rho, grads[:, 0, :s], u_rows, grad_u.swapaxes(0, 1), lame,
                                E, grads[:, -d * d:, :s].reshape((d,) + E.shape),
                                grads[:, :, :s])
            finite = np.isfinite(ws.samples).all()
            for i in range(s):
                fault = ph.fault(finite, i)
                if fault:
                    return None, (i, fault), out
            moved, G, rho_E, mass, stretch, *drive = ws.products(
                (n_moved, s), (d, s), (d, d, s), (s,), (d, d, s), *drive)
            transport(ph.u, grads[:, split, :s], moved)
            _common_vector(ph, params, G)
            np.multiply(ph.rho, ph.E, out=rho_E)
            np.multiply(ph.rho, np.trace(ph.grad_u), out=mass)
            _stretch(ph.grad_u, ph.E, stretch)
            out[1][...] = u_rows.swapaxes(0, 1)
        else:
            drive = ws.products(*drive)
        if f:
            transport(frozen[1].swapaxes(0, 1), grads[:, :, m - f:], drive[0])
        coeffs = ws.forward()
        if s:
            moved, G, rho_E, mass, stretch = coeffs[:5]
            block = out[0].swapaxes(0, 1)
            np.negative(mass.coeff, out=block[0])
            block[split] = moved.coeff
            _subtract_momentum(g, block, G.coeff, rho_E.coeff, params.coupling)
            block[-d * d:] = stretch.coeff.reshape((d * d,) + stretch.coeff.shape[2:])
            out[0][(Ellipsis,) + (0,) * d] = 0.0  # zero means
        terms = frozen[0] - coeffs[-1].coeff.swapaxes(0, 1) if f else None
    return terms, None, out


def sweep_pass_bytes(grid: Grid) -> int:
    """Bytes of the three workspace slabs that one member of ``sweep_pass``
    fills at most: a source member with frozen terms, whose spectral and
    sample rows are rho, u, A u, E, grad u and the block's derivative rows,
    and whose product rows are the moved rows, G, rho E, the mass source,
    the stretch and the frozen convection."""
    d = grid.dim
    rows = ReformState.block_shape(grid)[0]
    spectral = 1 + 2 * d + 2 * d * d + d * rows
    products = (rows - 1 - d * d) + d + 2 * d * d + 1 + rows
    points = grid.n ** d
    return spectral * (16 * math.prod(grid.spectral_shape) + 8 * points) + products * 8 * points


def deformation_identity_gap(prim: PrimitiveState) -> SpectralField:
    """Residual of the double-divergence identity
    T(E) - lam(rho) + |grad|^{-1} div div(rho E); zero on admissible data."""
    rho_E = dealiased_product(prim.rho, prim.E)
    return (double_divergence(prim.E) - fractional_power(prim.rho, 1.0)
            + double_divergence(rho_E))


def dual_path_gap(prim: PrimitiveState, params: ModelParams) -> dict:
    """Compare d/dt of (rho, d, Omega, skew, potential) between the two paths
    (the split path with its rotation correction).

    Returns absolute gaps and the relative gap against the primitive-path
    derivative magnitudes.  Small only on constraint-satisfying data.
    """
    dot_a = split_state(primitive_rhs(prim, params))
    rdot = reformulated_rhs(ReformState.from_primitive(prim), params)
    dot_b = HelmholtzState(rdot.rho, rdot.d, rdot.omega,
                           transpose_gap(rdot.E), symmetric_scalar(rdot.E))
    gaps = (dot_a - dot_b).norms()
    scale = np.sqrt(sum(v * v for v in dot_a.norms().values()))
    gaps["relative"] = float(np.sqrt(sum(v * v for v in gaps.values())) / max(scale, 1e-300))
    return gaps
