"""Multiplier calculus: fractional powers, Helmholtz split, Lame symbol,
double-divergence reduction, symmetric scalar."""

import numpy as np
import pytest

from viscoflow import (SpectralField, besov_norm, double_divergence, fractional_power,
                       helmholtz_reconstruct, helmholtz_split, lame_operator,
                       random_field, symmetric_scalar)
from viscoflow.errors import ConfigurationError, InputError
from viscoflow.dyadic import DyadicFamily
from viscoflow.grid import cosine_mode, dealias_physical
from viscoflow.model import PrimitiveState, ReformState
from viscoflow.operators import (SplitViscosity, Viscosity, convect, curl_matrix,
                                 curl_vector, derivative_rows, divergence, gradient, jacobian,
                                 pair_rows, skew_l2, SKEW_SHAPE, transpose_gap, _pairs)


class TestFractionalPower:
    def test_identity_power(self, grid2d, rng):
        f = random_field(grid2d, "scalar", rng, mean_zero=False)
        assert (fractional_power(f, 0.0) - f).l2() == 0.0

    def test_single_mode(self, grid2d):
        f = cosine_mode(grid2d, (1, 0))  # physical frequency 1/8
        for s in (-1.0, 0.5, 2.0):
            g = fractional_power(f, s)
            assert (g - (1.0 / 8.0) ** s * f).l2() < 1e-15

    def test_unit_power_is_the_xi_mag_multiplier(self, grid2d, rng):
        f = random_field(grid2d, "vector", rng, mean_zero=False)
        assert np.array_equal(fractional_power(f, 1.0).coeff, f.coeff * grid2d.xi_mag)

    def test_multiplier_built_once_per_grid_and_power(self, grid2d, rng):
        f = random_field(grid2d, "scalar", rng)
        fractional_power(f, 1.0)
        mult = grid2d.xi_power(1.0)
        fractional_power(f, 1.0)
        assert grid2d.xi_power(1.0) is mult
        assert grid2d.xi_power(-1.0) is not mult and grid2d.xi_power(-1.0)[0, 0] == 0.0

    def test_roundtrip(self, grid2d, rng):
        f = random_field(grid2d, "scalar", rng)
        g = fractional_power(fractional_power(f, -1.0), 1.0)
        assert (g - f).l2() <= 1e-13 * f.l2()

    def test_negative_power_needs_mean_zero(self, grid2d):
        f = SpectralField.from_physical(grid2d, np.ones((32, 32)))
        with pytest.raises(InputError):
            fractional_power(f, -1.0)

    def test_commutes_with_blocks(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        f = random_field(grid2d, "scalar", rng)
        for q in (-1, 0, 1):
            a = fractional_power(fam.block(f, q), 0.7)
            b = fam.block(fractional_power(f, 0.7), q)
            assert (a - b).l2() <= 1e-15 * f.l2()  # same diagonal, ulp noise only


class TestHelmholtz:
    def test_gradient_field_has_no_rotation(self, grid2d, rng):
        phi = random_field(grid2d, "scalar", rng)
        u = gradient(phi)
        d, om = helmholtz_split(u)
        assert om.l2() < 1e-13 * u.l2()

    def test_divergence_free_has_no_compression(self, grid2d, rng):
        # perpendicular-gradient field in 2-D is exactly solenoidal
        phi = random_field(grid2d, "scalar", rng)
        g = gradient(phi)
        u = SpectralField(grid2d, np.stack([-g.coeff[1], g.coeff[0]]))
        d, om = helmholtz_split(u)
        assert d.l2() < 1e-13 * u.l2()

    def test_roundtrip_and_identities(self, grid2d, rng):
        u = random_field(grid2d, "vector", rng)
        d, om = helmholtz_split(u)
        back = helmholtz_reconstruct(d, om)
        assert (back - u).l2() <= 1e-12 * u.l2()
        assert (divergence(u) - fractional_power(d, 1.0)).l2() <= 1e-12 * u.l2()
        assert (curl_matrix(u) - fractional_power(om, 1.0)).l2() <= 1e-12 * u.l2()

    def test_roundtrip_3d(self, grid3d, rng):
        u = random_field(grid3d, "vector", rng)
        d, om = helmholtz_split(u)
        assert (helmholtz_reconstruct(d, om) - u).l2() <= 1e-12 * u.l2()

    def test_omega_antisymmetric(self, grid2d, grid3d, rng):
        # Omega is stored by its i < j entries |grad|^-1 (d_j u_i - d_i u_j)
        for grid in (grid2d, grid3d):
            u = random_field(grid, "vector", rng)
            _, om = helmholtz_split(u)
            assert om.coeff.shape == SKEW_SHAPE[grid.dim] + grid.spectral_shape
            for row, (i, j) in zip(pair_rows(om), _pairs(grid.dim)):
                curl = u.coeff[i] * (1j * grid.xi_axes[j]) - u.coeff[j] * (1j * grid.xi_axes[i])
                assert np.array_equal(row, curl * grid.inv_xi)


class TestLame:
    def test_ellipticity_enforced(self):
        with pytest.raises(ConfigurationError):
            Viscosity(0.0, 1.0, 2)
        with pytest.raises(ConfigurationError):
            Viscosity(1.0, -1.5, 2)
        Viscosity(1.0, -0.9, 2)  # 2*1 - 1.8 > 0 is fine

    @pytest.mark.parametrize("make", [
        lambda v: Viscosity(v, 1.0, 2), lambda v: Viscosity(1.0, v, 2),
        lambda v: SplitViscosity(v, 1.0), lambda v: SplitViscosity(1.0, v)])
    def test_nan_rejected(self, make):
        # NaN fails every comparison, so the checks are written to trip on it
        with pytest.raises(ConfigurationError):
            make(float("nan"))

    def test_longitudinal_eigenvalue(self, grid2d):
        # gradient single mode: A u = -(lambda+2 mu) |xi|^2 u
        visc = Viscosity(1.0, 0.5, 2)
        phi = cosine_mode(grid2d, (2, 1))
        u = gradient(phi)
        xi_sq = (2.0 ** 2 + 1.0 ** 2) / 8.0 ** 2
        out = lame_operator(u, visc)
        assert (out - (-(visc.nu) * xi_sq) * u).l2() < 1e-14

    def test_transverse_eigenvalue(self, grid2d):
        visc = Viscosity(0.7, 0.2, 2)
        u = cosine_mode(grid2d, (0, 3), rank="vector", component=(0,))
        xi_sq = 9.0 / 64.0
        out = lame_operator(u, visc)
        assert (out - (-visc.mu * xi_sq) * u).l2() < 1e-14

    def test_zero(self, grid2d):
        visc = Viscosity(1.0, 1.0, 2)
        u = SpectralField.zeros(grid2d, "vector")
        assert lame_operator(u, visc).l2() == 0.0


def _hessian_field(grid, kvec, amplitude=1.0):
    phi = cosine_mode(grid, kvec, amplitude)
    j = jacobian(gradient(phi))
    return SpectralField(grid, j.coeff.copy()), phi


class TestReductions:
    def test_curl_of_divergence_kills_hessians(self, grid2d):
        # div Hess(phi) = grad(Lap phi), and a gradient has no curl
        E, _ = _hessian_field(grid2d, (3, 2))
        assert divergence(E).l2() > 0.0
        assert curl_matrix(divergence(E)).l2() < 1e-14

    def test_zero_input(self, grid2d):
        z = SpectralField.zeros(grid2d, "matrix")
        assert double_divergence(z).l2() == 0.0

    def test_double_divergence_single_mode(self, grid2d):
        # E = Hessian(cos(k.x)): dbl-div = |xi|^3 * (-cos)'' structure;
        # with E_ij = -xi_i xi_j cos, d_i d_j E_ij = |xi|^4 cos, so the
        # reduction equals |xi|^3 cos(k.x)
        E, phi = _hessian_field(grid2d, (1, 2))
        xi = np.sqrt(5.0) / 8.0
        out = double_divergence(E)
        assert (out - xi ** 3 * phi).l2() < 1e-14

    def test_antisymmetric_input_gives_zero_scalar(self, grid2d, rng):
        E = random_field(grid2d, "matrix", rng)
        A = SpectralField(grid2d, 0.5 * (E.coeff - np.swapaxes(E.coeff, 0, 1)))
        assert symmetric_scalar(A).l2() < 1e-15

    def test_symmetric_scalar_single_mode(self, grid2d):
        # E = Hessian(phi): scalar = 2 * |grad|^-2 * sum d_i d_j E_ij = 2 |xi|^2 phi
        E, phi = _hessian_field(grid2d, (2, 2))
        xi_sq = 8.0 / 64.0
        out = symmetric_scalar(E)
        assert (out - 2.0 * xi_sq * phi).l2() < 1e-14

    def test_constant_matrix_projected_out(self, grid2d):
        E = SpectralField.zeros(grid2d, "matrix")
        for i in range(2):
            E.coeff[(i, i, 0, 0)] = 3.0
        assert symmetric_scalar(E).l2() == 0.0

    def test_norm_equivalence_bracket(self, grid2d, rng):
        # the scalar plus the antisymmetric record control the full matrix;
        # measured two-sided constants stay within [1/4, 4]
        fam = DyadicFamily(grid2d)
        for _ in range(10):
            E = random_field(grid2d, "matrix", rng)
            s = 0.5
            lhs = (besov_norm(symmetric_scalar(E), s, fam)
                   + besov_norm(transpose_gap(E), s, fam))
            rhs = besov_norm(E, s, fam)
            ratio = lhs / rhs
            assert 0.25 <= ratio <= 4.0

    def test_identity_reduction_on_admissible_structure(self, grid2d):
        # for E = Hessian(phi) and rho = -Lap(phi), the linearized divergence
        # constraint holds, so T(E) = lam(rho) exactly
        E, phi = _hessian_field(grid2d, (1, 3))
        from viscoflow.operators import laplacian
        rho = -1.0 * laplacian(phi)
        gap = double_divergence(E) - fractional_power(rho, 1.0)
        assert gap.l2() < 1e-14

    @pytest.mark.parametrize("grid_name", ["grid2d", "grid3d"])
    def test_shared_contraction_is_bit_identical(self, grid_name, request, rng):
        # both reductions contract with one d_i d_j helper; the loop's
        # multiplication order is kept, so they equal the per-reduction loops
        g = request.getfixturevalue(grid_name)
        E = random_field(g, "matrix", rng, mean_zero=False)
        dd = np.zeros(E.coeff.shape[2:], dtype=np.complex128)
        ss = np.zeros(E.coeff.shape[2:], dtype=np.complex128)
        for i in range(g.dim):
            for j in range(g.dim):
                di, dj = 1j * g.xi_axes[i], 1j * g.xi_axes[j]
                dd += E.coeff[i, j] * di * dj
                ss += (E.coeff[i, j] + E.coeff[j, i]) * di * dj
        assert (double_divergence(E).coeff == dd * g.inv_xi).all()
        assert (symmetric_scalar(E).coeff == ss * g.inv_xi ** 2).all()


def _convect_per_field(u_phys, f):
    """Reference: one inverse transform per derivative direction and one
    forward transform per field, each field on its own."""
    acc = None
    for j in range(f.grid.dim):
        dj = SpectralField(f.grid, f.coeff * (1j * f.grid.xi_axes[j])).to_physical()
        acc = u_phys[j] * dj if acc is None else acc + u_phys[j] * dj
    return dealias_physical(f.grid, acc)


def _fields_of_every_rank(grid, rng):
    """A scalar, a vector, a matrix and an antisymmetric field."""
    full = random_field(grid, "matrix", rng)
    return [random_field(grid, "scalar", rng), random_field(grid, "vector", rng),
            full, transpose_gap(full)]


class TestConvect:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_equals_per_field_loop(self, grid2d, grid3d, rng, dim):
        # one block of every field's components moves each component as the
        # per-field loop and a convect call of the field alone do, bit for bit
        grid = grid2d if dim == 2 else grid3d
        u_phys = random_field(grid, "vector", rng).to_physical()
        fields = _fields_of_every_rank(grid, rng)
        rows = [f.coeff.reshape((-1,) + grid.spectral_shape) for f in fields]
        block = np.concatenate(rows)
        moved = np.split(convect(grid, u_phys, block), np.cumsum([len(r) for r in rows])[:-1])
        for f, w in zip(fields, moved, strict=True):
            alone = convect(grid, u_phys, f.coeff)
            assert alone.shape == f.coeff.shape
            assert np.array_equal(w.reshape(f.coeff.shape), _convect_per_field(u_phys, f).coeff)
            assert np.array_equal(alone, w.reshape(f.coeff.shape))
        # the antisymmetric input is stored, and moved, by its i < j entries
        assert convect(grid, u_phys, fields[3].coeff).shape == SKEW_SHAPE[dim] + grid.spectral_shape


class TestDerivativeRows:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_are_the_gradients_of_every_component(self, grid2d, grid3d, rng, dim):
        # one (dim, count) stack for fields of every rank and a whole state
        # block: after the inverse, row r of direction l is d_l of component r
        grid = grid2d if dim == 2 else grid3d
        fields = _fields_of_every_rank(grid, rng)
        prim = PrimitiveState(*(random_field(grid, rank, rng, amplitude=0.05)
                                for rank in ("scalar", "vector", "matrix")))
        state = ReformState.from_primitive(prim)
        coeffs = [f.coeff for f in fields] + [state.block]
        count = sum(c.size for c in coeffs) // np.prod(grid.spectral_shape)
        with grid.workspace() as ws:
            (rows,) = ws.spectral((dim, count))
            derivative_rows(grid, coeffs, rows)
            (grads,) = ws.inverse()
            r = 0
            for f in fields + list(state):
                want = gradient(f).to_physical().reshape((dim, -1) + grads.shape[2:])
                for c in range(want.shape[1]):
                    for l in range(dim):
                        assert grads[l, r + c].tobytes() == want[l, c].tobytes(), (f, l, c)
                r += want.shape[1]
            assert r == count


def _per_index_cases(grid, rng):
    """Each differential map, and its definition as a loop over the symbols
    d_l = 1j * xi_l, the directions and the components."""
    dim, idx = grid.dim, range(grid.dim)
    d = [1j * x for x in grid.xi_axes]
    s, u, E = (random_field(grid, rank, rng, mean_zero=False)
               for rank in ("scalar", "vector", "matrix"))
    C = SpectralField(grid, np.stack([random_field(grid, "vector", rng).coeff
                                      for _ in _pairs(dim)]))
    visc = Viscosity(1.0, 0.5, dim)
    div_u = sum(u.coeff[j] * d[j] for j in idx)
    rows = np.concatenate([c.reshape((-1,) + grid.spectral_shape)
                           for c in (u.coeff, s.coeff, E.coeff)])
    got_rows = np.empty((dim, len(rows)) + grid.spectral_shape, dtype=np.complex128)
    derivative_rows(grid, [u.coeff, s.coeff, E.coeff], got_rows)
    return {
        "gradient-scalar": (gradient(s).coeff, [s.coeff * d[l] for l in idx]),
        "gradient-vector": (gradient(u).coeff, [[u.coeff[i] * d[l] for i in idx] for l in idx]),
        "gradient-matrix": (gradient(E).coeff, [[[E.coeff[i, j] * d[l] for j in idx]
                                                 for i in idx] for l in idx]),
        "jacobian": (jacobian(u).coeff, [[u.coeff[i] * d[j] for j in idx] for i in idx]),
        "divergence-vector": (divergence(u).coeff, div_u),
        "divergence-matrix": (divergence(E).coeff,
                              [sum(E.coeff[i, j] * d[j] for j in idx) for i in idx]),
        "divergence-pairs": (divergence(C).coeff,
                             [sum(C.coeff[p, k] * d[k] for k in idx) for p in range(len(C.coeff))]),
        "curl_matrix": (pair_rows(curl_matrix(u)),
                        [u.coeff[i] * d[j] - u.coeff[j] * d[i] for i, j in _pairs(dim)]),
        "lame_operator": (lame_operator(u, visc).coeff,
                          [-visc.mu * grid.xi_sq * u.coeff[i] + (visc.lam + visc.mu) * d[i] * div_u
                           for i in idx]),
        "derivative_rows": (got_rows, [[row * d[l] for row in rows] for l in idx]),
    }


@pytest.mark.parametrize("name", ["gradient-scalar", "gradient-vector", "gradient-matrix",
                                  "jacobian", "divergence-vector", "divergence-matrix",
                                  "divergence-pairs", "curl_matrix", "lame_operator",
                                  "derivative_rows"])
@pytest.mark.parametrize("dim", [2, 3])
def test_map_equals_its_per_index_definition(grid2d, grid3d, rng, dim, name):
    # every map is one contraction with Grid.nabla; it equals the loop over
    # directions and components that defines it, value for value
    got, want = _per_index_cases(grid2d if dim == 2 else grid3d, rng)[name]
    assert np.array_equal(got, np.array(want))


class TestSkewLayout:
    """An antisymmetric field is stored by its i < j entries in ``_pairs``
    order: one component in 2-D, three in 3-D."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_curl_matrix_and_transpose_gap_store_the_upper_entries(
            self, grid2d, grid3d, rng, dim):
        grid = grid2d if dim == 2 else grid3d
        u = random_field(grid, "vector", rng)
        E = random_field(grid, "matrix", rng)
        C, W = curl_matrix(u), transpose_gap(E)
        J = jacobian(u).coeff
        for f in (C, W):
            assert f.coeff.shape == SKEW_SHAPE[dim] + grid.spectral_shape
            assert f.ncomp == len(_pairs(dim))
        for p, (i, j) in enumerate(_pairs(dim)):
            assert np.array_equal(pair_rows(C)[p], J[i, j] - J[j, i])
            assert np.array_equal(pair_rows(W)[p], E.coeff[j, i] - E.coeff[i, j])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_curl_vector_of_the_expanded_matrix(self, grid2d, grid3d, rng, dim):
        # v_i = d_j Om_ji over the full matrix Om_ij = c_p, Om_ji = -c_p
        grid = grid2d if dim == 2 else grid3d
        om = curl_matrix(random_field(grid, "vector", rng))
        full = np.zeros((dim, dim) + grid.spectral_shape, dtype=np.complex128)
        for row, (i, j) in zip(pair_rows(om), _pairs(dim)):
            full[i, j], full[j, i] = row, -row
        want = [sum(full[j, i] * (1j * grid.xi_axes[j]) for j in range(dim)) for i in range(dim)]
        assert np.array_equal(curl_vector(grid, pair_rows(om)), np.stack(want))

    def test_skew_l2_is_the_frobenius_norm(self, grid3d, rng):
        om = curl_matrix(random_field(grid3d, "vector", rng))
        full = np.zeros((3, 3) + grid3d.spectral_shape, dtype=np.complex128)
        for row, (i, j) in zip(pair_rows(om), _pairs(3)):
            full[i, j], full[j, i] = row, -row
        assert skew_l2(om) == pytest.approx(SpectralField(grid3d, full).l2(), rel=1e-14)
