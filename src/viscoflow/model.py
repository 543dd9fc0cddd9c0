"""Physical model: pressure law, nondimensionalized perturbation states, and
assembly of every right-hand side of the near-equilibrium system.

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

Every right-hand side evaluates its state in physical space once
(``PhysicalBundle``: rho, grad rho, u, grad u, A u, E and grad E), in one
pass over the grid's transform workspace: all families are written into
its spectral stack and take one inverse transform, and all products are
written into its physical stack and take one dealiased forward transform.
Products that share a destination are summed there; by linearity that
equals dealiasing each product alone.  ``operators.Convection`` adds the
u.grad f of whole fields to the same pass.  Scalar transforms and
``rfftn``/``irfftn`` calls per call:

    call                 2-D   3-D   calls
    reformulated_rhs      36    86     3   (the rotation correction's own forward)
    primitive_rhs         30    68     2
    assemble_sources      40    93     2
    evolve._SweepRHS      21    56     2   (frozen sources cached)
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, InputError, StabilityError
from .grid import Grid, SpectralField, Workspace, dealiased_product
from .operators import (Convection, Viscosity, antisymmetric, curl_matrix, divergence,
                        double_divergence, fractional_power, gradient,
                        helmholtz_reconstruct, helmholtz_split, inverse_mag_times,
                        jacobian, lame_operator, laplacian, symmetric_scalar,
                        transport, transpose_gap, _deriv_mult, _pairs)

RHO_SUP_LIMIT = 0.5  # composition terms need the density perturbation below this


# ----------------------------------------------------------------------
# pressure law
# ----------------------------------------------------------------------

class PressureLaw:
    """Barotropic pressure with the derived constants used downstream.

    ``chi0 = P'(1)^(-1/2)`` rescales time and space in the
    nondimensionalization; ``deviation(r)`` is the normalized pressure
    nonlinearity P'(1+r)/((1+r) P'(1)) - 1, which vanishes identically for
    the quadratic reference law.
    """

    def __init__(self, name: str, p, dp):
        self.name = name
        self.p = p
        self.dp = dp
        dp1 = float(dp(1.0))
        if dp1 <= 0.0:
            raise InputError("pressure law must have P'(1) > 0")
        self.dp1 = dp1
        self.chi0 = dp1 ** -0.5

    @classmethod
    def quadratic(cls) -> "PressureLaw":
        return cls("quadratic", lambda x: x ** 2, lambda x: 2.0 * x)

    @classmethod
    def power(cls, gamma_gas: float) -> "PressureLaw":
        if not (gamma_gas > 0.0):  # NaN-safe
            raise InputError(f"gas exponent must be positive, got {gamma_gas}")
        return cls(f"power({gamma_gas})",
                   lambda x, g=gamma_gas: x ** g,
                   lambda x, g=gamma_gas: g * x ** (g - 1.0))

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
# states: one field-tuple type, three views of the same unknowns
# ----------------------------------------------------------------------
# PrimitiveState (rho, u, E), ReformState (rho, d, Omega, E) and
# HelmholtzState (rho, d, Omega, E^T - E, potential) only declare their
# fields; FieldTuple supplies +, -, scalar *, copy and project_mean_zero.

class FieldTuple:
    """Base of the state dataclasses, whose fields are all ``SpectralField``s.

    The arithmetic acts field by field and returns the same subclass, so a
    state update reads ``state + a * delta``.
    """

    def __iter__(self):
        return (getattr(self, f.name) for f in fields(self))

    def map(self, fn, *others) -> "FieldTuple":
        """Same type; each field is ``fn`` of this state's field and the
        matching fields of ``others``."""
        return type(self)(*(fn(*fs) for fs in zip(self, *others, strict=True)))

    def __add__(self, other):
        return self.map(operator.add, other)

    def __sub__(self, other):
        return self.map(operator.sub, other)

    def __mul__(self, scalar):
        return self.map(lambda f: f * scalar)

    __rmul__ = __mul__

    def copy(self):
        return self.map(SpectralField.copy)

    def project_mean_zero(self):
        return self.map(SpectralField.project_mean_zero)


@dataclass
class PrimitiveState(FieldTuple):
    """Perturbation variables (density - 1, velocity, deformation - I)."""
    rho: SpectralField
    u: SpectralField
    E: SpectralField


@dataclass
class HelmholtzState(FieldTuple):
    """Split variables: rho, compressible d, rotational Omega, the
    antisymmetric record E^T - E, and the symmetric-part scalar."""
    rho: SpectralField
    d: SpectralField
    omega: SpectralField
    skew: SpectralField
    potential: SpectralField


def split_state(prim: PrimitiveState) -> HelmholtzState:
    d, om = helmholtz_split(prim.u)
    return HelmholtzState(prim.rho.copy(), d, om,
                          transpose_gap(prim.E), symmetric_scalar(prim.E))


# ----------------------------------------------------------------------
# nondimensionalization and energy
# ----------------------------------------------------------------------

def nondimensionalize(rho_hat: SpectralField, u_hat: SpectralField,
                      F: SpectralField, law: PressureLaw,
                      alpha: float, mu: float, lam: float):
    """Rescale (density, velocity, deformation) to perturbation form.

    Space and time contract by chi0 = P'(1)^(-1/2); on the torus this turns
    a domain of scale L into one of scale L/chi0 while the samples are
    reused verbatim.  The velocity picks up the factor chi0 and the elastic
    terms the coupling a = alpha/P'(1).
    """
    vals = rho_hat.to_physical()
    if np.min(vals) <= 0.0:
        raise InputError("density must be positive pointwise")
    old = rho_hat.grid
    new_grid = Grid(old.dim, old.n, old.length / law.chi0, old.dealias_frac)
    rho = SpectralField(new_grid, rho_hat.coeff.copy())
    rho.coeff[(Ellipsis,) + (0,) * old.dim] -= 1.0
    u = SpectralField(new_grid, law.chi0 * u_hat.coeff.copy())
    E = SpectralField(new_grid, F.coeff.copy())
    for i in range(old.dim):
        E.coeff[(i, i) + (0,) * old.dim] -= 1.0
    params = ModelParams(Viscosity(mu, lam, old.dim), alpha, law)
    return PrimitiveState(rho, u, E), params


def elastic_energy(F: SpectralField, alpha: float = 1.0) -> float:
    """Grid-averaged Hookean energy (alpha/2) |F|^2 of the full deformation."""
    vals = F.to_physical()
    return 0.5 * alpha * float(np.mean(np.sum(vals * vals, axis=(0, 1))))


# ----------------------------------------------------------------------
# one physical evaluation per state
# ----------------------------------------------------------------------

@dataclass
class PhysicalBundle:
    """Physical samples of one state, every family in one inverse transform.

    Index conventions follow the operator layer: grad_u[i, j] = d_j u_i (the
    Jacobian) and grad_E[l, i, j] = d_l E_{ij}.  The samples are views of the
    workspace ``ws`` and valid only inside its pass.  Building the bundle
    raises ``StabilityError`` naming the first family (in field order) that
    holds a non-finite sample, and when the density perturbation leaves the
    small-data regime.  ``convection`` holds the fields whose u . grad f the
    caller needs: their derivative rows are sampled in the same transform.
    """
    ws: Workspace
    rho: np.ndarray
    grad_rho: np.ndarray
    u: np.ndarray
    grad_u: np.ndarray
    lame: np.ndarray
    E: np.ndarray
    grad_E: np.ndarray
    convection: Convection | None = None
    grad_moved: np.ndarray | None = None

    @property
    def grid(self) -> Grid:
        return self.ws.grid

    @classmethod
    def of(cls, prim: PrimitiveState, visc: Viscosity, ws: Workspace,
           convected=()) -> "PhysicalBundle":
        d = ws.grid.dim
        rho, grad_rho, u, grad_u, lame, E, grad_E = ws.spectral(
            (), (d,), (d,), (d, d), (d,), (d, d), (d, d, d))
        rho[...] = prim.rho.coeff
        u[...] = prim.u.coeff
        E[...] = prim.E.coeff
        for l, sym in enumerate(ws.grid.deriv):
            np.multiply(prim.rho.coeff, sym, out=grad_rho[l])
            np.multiply(prim.u.coeff, sym, out=grad_u[:, l])
            np.multiply(prim.E.coeff, sym, out=grad_E[l])
        lame_operator(prim.u, visc, out=lame)
        conv = Convection(ws, convected) if convected else None
        samples = ws.inverse()
        names = ("rho", "grad_rho", "u", "grad_u", "lame", "E", "grad_E")
        for name, vals in zip(names, samples):
            if not np.isfinite(vals).all():
                raise StabilityError(f"non-finite samples in field {name}")
        sup = float(np.max(np.abs(samples[0])))
        if not (sup <= RHO_SUP_LIMIT):  # NaN-safe: comparisons with NaN are False
            raise StabilityError(
                f"density perturbation sup {sup:.3g} > {RHO_SUP_LIMIT}; left the small-data regime")
        return cls(ws, *samples[:7], conv, samples[7] if conv else None)

    def stretch(self, out=None) -> np.ndarray:
        """Samples of (grad u) E, written into ``out`` when given."""
        return np.einsum("ik...,kj...->ij...", self.grad_u, self.E, out=out)


def rotation_correction(ph: PhysicalBundle) -> SpectralField:
    """Antisymmetric quadratic correction in the rotational equation.

    S_{ij} = |grad|^{-1} d_k (B_{ijk} - B_{jik}) with
    B_{ijk} = E_{lk} d_l E_{ij} - E_{lj} d_l E_{ik}.  The difference
    B_{ijk} - B_{jik} is formed in physical space for i < j only and
    S_{ji} = -S_{ij}, so the result is antisymmetric exactly.  It takes its
    own forward transform in the bundle's workspace pass.
    """
    g = ph.grid
    E, dE = ph.E, ph.grad_E
    pairs = _pairs(g.dim)
    (C,) = ph.ws.products((len(pairs), g.dim))
    for p, (i, j) in enumerate(pairs):
        np.einsum("lk...,l...->k...", E, dE[:, i, j] - dE[:, j, i], out=C[p])
        C[p] -= np.einsum("l...,lk...->k...", E[:, j], dE[:, i])
        C[p] += np.einsum("l...,lk...->k...", E[:, i], dE[:, j])
    (Ch,) = ph.ws.forward()
    upper = sum(Ch.coeff[:, k] * _deriv_mult(g, k) for k in range(g.dim)) * g.inv_xi
    return antisymmetric(g, upper)


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


def _deformation_flux(ph: PhysicalBundle, out: np.ndarray):
    """(grad u) E - u.grad E."""
    ph.stretch(out)
    out -= transport(ph.u, ph.grad_E)


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
        _deformation_flux(ph, flux)
        mass, G, flux = ws.forward()
        rho_dot = -divergence(prim.u) - mass
        u_dot = (lame_operator(prim.u, params.visc) - gradient(prim.rho)
                 + a * divergence(prim.E) - G)
        E_dot = jacobian(prim.u) + flux
    return PrimitiveState(rho_dot, u_dot, E_dot).project_mean_zero()


@dataclass
class ReformState(FieldTuple):
    """State advanced by the split path: (rho, d, Omega, E).

    The antisymmetric record and the symmetric scalar are derived fields;
    their displayed evolutions follow identically from the E equation.
    """
    rho: SpectralField
    d: SpectralField
    omega: SpectralField
    E: SpectralField

    @classmethod
    def from_primitive(cls, prim: PrimitiveState) -> "ReformState":
        d, om = helmholtz_split(prim.u)
        return cls(prim.rho.copy(), d, om, prim.E.copy())

    def velocity(self) -> SpectralField:
        return helmholtz_reconstruct(self.d, self.omega)

    def to_primitive(self) -> PrimitiveState:
        return PrimitiveState(self.rho.copy(), self.velocity(), self.E.copy())


def reformulated_rhs(state: ReformState, params: ModelParams,
                     include_rotation_correction: bool = True) -> ReformState:
    """Evolution of (rho, d, Omega, E) in the split formulation.

    The d equation carries the (1+a) density coupling produced by folding
    the double-divergence of the deformation into the density gradient; the
    Omega equation carries the antisymmetric part plus (optionally) the
    quadratic rotation correction, which belongs to the exact system but is
    absent from the frozen-coefficient iteration sources.
    """
    g = state.rho.grid
    a = params.coupling
    u = state.velocity()
    with g.workspace() as ws:
        ph = PhysicalBundle.of(PrimitiveState(state.rho, u, state.E), params.visc, ws)
        mass, G, rho_E, flux = ws.products((), (g.dim,), (g.dim, g.dim), (g.dim, g.dim))
        _mass_flux(ph, mass)
        _common_vector(ph, params, G)
        # rho E is its own dealiased product: folding its divergence into G by
        # the product rule is exact only on band-limited data
        np.multiply(ph.rho, ph.E, out=rho_E)
        _deformation_flux(ph, flux)
        mass, G, rho_E, flux = ws.forward()

        rho_dot = -fractional_power(state.d, 1.0) - mass
        d_dot = ((1.0 + a) * fractional_power(state.rho, 1.0)
                 + params.nu * laplacian(state.d)
                 - inverse_mag_times(divergence(G + a * divergence(rho_E))))

        skew = transpose_gap(state.E)
        om_dot = (params.mu * laplacian(state.omega)
                  + a * fractional_power(skew, 1.0)
                  - inverse_mag_times(curl_matrix(G)))
        if include_rotation_correction:
            om_dot = om_dot + a * rotation_correction(ph)

        E_dot = jacobian(u) + flux

    return ReformState(rho_dot, d_dot, om_dot, E_dot).project_mean_zero()


# ----------------------------------------------------------------------
# frozen-state sources of the linear iteration
# ----------------------------------------------------------------------

def assemble_sources(prim: PrimitiveState,
                     params: ModelParams) -> tuple[ReformState, np.ndarray]:
    """Sources of the frozen-coefficient iteration at one frozen state.

    Returns the sources as a ``ReformState``, each in the slot of the
    unknown whose equation it drives (rho: the mass source -rho div u; d and
    Omega: the compressible and rotational sources; E: the stretch
    (grad u) E), and the physical samples of the frozen velocity.  Every
    product is dealiased, compositions are evaluated pointwise in physical
    space, and the rotational source is antisymmetric by construction.
    Requires the density perturbation below 1/2 in sup norm.
    """
    g = prim.rho.grid
    a = params.coupling
    d, om = helmholtz_split(prim.u)
    with g.workspace() as ws:
        ph = PhysicalBundle.of(prim, params.visc, ws, (d, om))
        moved, G, rho_E, mass, stretch = ws.products(
            (ph.convection.count,), (g.dim,), (g.dim, g.dim), (), (g.dim, g.dim))
        transport(ph.u, ph.grad_moved, moved)
        _common_vector(ph, params, G)
        np.multiply(ph.rho, ph.E, out=rho_E)
        np.multiply(ph.rho, np.trace(ph.grad_u), out=mass)
        ph.stretch(stretch)
        u_phys = ph.u.copy()
        moved, G, rho_E, mass, stretch = ws.forward()
        conv_d, conv_om = ph.convection.fields_of(moved.coeff)
        div_rho_E = divergence(rho_E)
        sources = ReformState(-mass,
                              conv_d - inverse_mag_times(divergence(G + a * div_rho_E)),
                              conv_om - inverse_mag_times(curl_matrix(G)),
                              stretch)
        return sources.project_mean_zero(), u_phys


def deformation_identity_gap(prim: PrimitiveState) -> SpectralField:
    """Residual of the double-divergence identity
    T(E) - lam(rho) + |grad|^{-1} div div(rho E); zero on admissible data."""
    rho_E = dealiased_product(prim.rho, prim.E)
    return (double_divergence(prim.E) - fractional_power(prim.rho, 1.0)
            + double_divergence(rho_E))


def dual_path_gap(prim: PrimitiveState, params: ModelParams,
                  include_rotation_correction: bool = True) -> dict:
    """Compare d/dt of (rho, d, Omega, skew, potential) between the two paths.

    Returns absolute gaps and the relative gap against the primitive-path
    derivative magnitudes.  Small only on constraint-satisfying data.
    """
    dot_a = split_state(primitive_rhs(prim, params))
    rdot = reformulated_rhs(ReformState.from_primitive(prim), params,
                            include_rotation_correction)
    dot_b = HelmholtzState(rdot.rho, rdot.d, rdot.omega,
                           transpose_gap(rdot.E), symmetric_scalar(rdot.E))
    gap = dot_a - dot_b
    gaps = {f.name: getattr(gap, f.name).l2() for f in fields(gap)}
    scale = np.sqrt(sum(getattr(dot_a, f.name).l2() ** 2 for f in fields(dot_a)))
    gaps["relative"] = float(np.sqrt(sum(v * v for v in gaps.values()))
                             / max(scale, 1e-300))
    return gaps
