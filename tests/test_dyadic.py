"""Dyadic blocks, block norms, paraproducts, and hand values of the
convection and matrix products."""

import numpy as np
import pytest

from viscoflow import (DyadicFamily, SpectralField, besov_norm, bony_defect,
                       hybrid_norm, paraproduct, random_field, remainder)
from viscoflow import dyadic
from viscoflow.dyadic import chi, psi
from viscoflow.errors import InputError
from viscoflow.grid import cosine_mode, dealiased_product
from viscoflow.operators import convect, fractional_power, jacobian, matrix_product


class TestCutoffProfile:
    def test_chi_plateau_and_support(self):
        r = np.array([0.0, 1.0, 5.0 / 3.0])
        assert np.all(chi(r) == 1.0)
        r = np.array([12.0 / 5.0, 3.0, 100.0])
        assert np.all(chi(r) == 0.0)
        mid = chi(np.array([2.0]))
        assert 0.0 < mid[0] < 1.0

    def test_psi_shell_support(self):
        r = np.linspace(0.0, 4.0, 2001)
        vals = psi(r)
        inside = (r >= 5.0 / 6.0) & (r <= 12.0 / 5.0)
        assert np.all(vals[~inside] == 0.0)

    def test_psi_telescopes_to_one(self):
        # at any fixed r > 0 the two active shifted bumps sum to 1
        r = np.geomspace(0.01, 50.0, 500)
        total = sum(psi(r / 2.0 ** q) for q in range(-10, 12))
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestPartition:
    def test_partition_of_unity_on_grid(self, grid2d):
        assert DyadicFamily(grid2d).partition_defect() <= 1e-12

    def test_partition_of_unity_3d(self, grid3d):
        assert DyadicFamily(grid3d).partition_defect() <= 1e-12

    def test_block_disjointness(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        f = random_field(grid2d, "scalar", rng)
        for q in fam.q_range:
            for p in fam.q_range:
                if abs(p - q) >= 2:
                    assert fam.block(fam.block(f, q), p).l2() == 0.0

    def test_reconstruction(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        f = random_field(grid2d, "scalar", rng, band=(0.0, grid2d.xi_max))
        total = SpectralField.zeros(grid2d, "scalar")
        for q in fam.q_range:
            total = total + fam.block(f, q)
        assert (total - f).l2() <= 1e-12 * f.l2()

    def test_out_of_range_block_is_zero(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        f = random_field(grid2d, "scalar", rng)
        assert fam.block(f, fam.q_lo - 3).l2() == 0.0
        assert fam.block(f, fam.q_hi + 3).l2() == 0.0


class TestBlocks:
    def test_unit_frequency_hits_blocks_minus1_and_0(self, grid2d):
        # |xi| = 1 satisfies 5/6 <= 2^-q <= 12/5 exactly for q in {-1, 0}
        fam = DyadicFamily(grid2d)
        f = cosine_mode(grid2d, (8, 0))  # physical frequency 8/8 = 1
        active = [q for q in fam.q_range if fam.block(f, q).l2() > 1e-14]
        assert active == [-1, 0]

    def test_low_cutoff_limits(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        f = random_field(grid2d, "scalar", rng)
        assert fam.low_cutoff(f, fam.q_lo).l2() == 0.0
        full = fam.low_cutoff(f, fam.q_hi + 2)
        assert (full - f).l2() <= 1e-12 * f.l2()

    def test_low_cutoff_kills_unit_mode_below(self, grid2d):
        fam = DyadicFamily(grid2d)
        f = cosine_mode(grid2d, (8, 0))
        for q in range(fam.q_lo, 0):
            assert fam.low_cutoff(f, q).l2() == 0.0

    def test_low_cutoff_is_partial_sum(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        f = random_field(grid2d, "scalar", rng)
        q = 1
        total = SpectralField.zeros(grid2d, "scalar")
        for p in range(fam.q_lo, q):
            total = total + fam.block(f, p)
        assert (fam.low_cutoff(f, q) - total).l2() < 1e-13


class TestBesovNorms:
    def test_zero_field(self, grid2d):
        assert besov_norm(SpectralField.zeros(grid2d, "scalar"), 1.0) == 0.0

    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 2.0])
    def test_single_mode_closed_form(self, grid2d, s):
        # only blocks -1 and 0 see |xi| = 1; weights from the constructed cutoff
        f = cosine_mode(grid2d, (8, 0))
        l2 = f.l2()
        expected = (2.0 ** (-s) * psi(np.array([2.0]))[0]
                    + psi(np.array([1.0]))[0]) * l2
        assert besov_norm(f, s) == pytest.approx(expected, rel=1e-13)

    def test_hybrid_equals_homogeneous_bitwise(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        f = random_field(grid2d, "scalar", rng)
        for s in (-1.0, 0.0, 1.7):
            assert hybrid_norm(f, s, s, fam) == besov_norm(f, s, fam)

    def test_hybrid_low_block_ignores_t(self, grid2d):
        # |xi| = 5/8 lies where the shifted bump is exactly 1 and only q=-1 sees it
        f = cosine_mode(grid2d, (5, 0))
        for t in (-3.0, 0.0, 5.0):
            assert hybrid_norm(f, 2.0, t) == pytest.approx(2.0 ** -2.0 * f.l2(), rel=1e-13)

    def test_hybrid_embedding_monotonicity(self, grid2d, rng):
        # lower low-frequency exponent and higher high-frequency exponent dominate
        fam = DyadicFamily(grid2d)
        for _ in range(5):
            f = random_field(grid2d, "scalar", rng)
            assert hybrid_norm(f, 0.0, 2.0, fam) >= hybrid_norm(f, 1.0, 1.0, fam) - 1e-12

    def test_blockwise_derivative_equivalence(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        f = random_field(grid2d, "scalar", rng)
        for q in fam.q_range:
            b = fam.block(f, q)
            nb = b.l2()
            if nb < 1e-14:
                continue
            nl = fractional_power(b, 1.0).l2()
            assert (5.0 / 6.0) * 2.0 ** q * nb <= nl * (1 + 1e-12)
            assert nl <= (12.0 / 5.0) * 2.0 ** q * nb * (1 + 1e-12)

    def test_norm_level_derivative_bracket(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        f = random_field(grid2d, "scalar", rng)
        for s in (0.0, 1.0):
            base = besov_norm(f, s, fam)
            deriv = besov_norm(fractional_power(f, 1.0), s - 1.0, fam)
            assert (5.0 / 6.0) * base <= deriv <= (12.0 / 5.0) * base


class TestNormLedger:
    """The one-pass profile and weighted sums against per-block loops."""

    @pytest.mark.parametrize("rank", ["scalar", "vector", "matrix"])
    @pytest.mark.parametrize("grid_name", ["grid2d", "grid3d"])
    def test_profile_matches_block_l2(self, grid_name, rank, rng, request):
        grid = request.getfixturevalue(grid_name)
        fam = DyadicFamily(grid)
        f = random_field(grid, rank, rng, band=(0.0, grid.xi_max))
        profile = fam.block_l2_profile(f)
        assert profile.shape == (len(fam.q_range),)
        for i, q in enumerate(fam.q_range):
            assert profile[i] == pytest.approx(fam.block(f, q).l2(), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("grid_name", ["grid2d", "grid3d", "grid2d_unit"])
    def test_psi_stack_rows_equal_per_block_multipliers(self, grid_name, request):
        grid = request.getfixturevalue(grid_name)
        fam = DyadicFamily(grid)
        for q in fam.q_range:
            want = psi(grid.xi_mag * 2.0 ** (-q)) * grid.keep_mask
            assert np.array_equal(fam.psi_array(q), want)

    def test_weighted_sum_matches_explicit_sum(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        profile = fam.block_l2_profile(random_field(grid2d, "vector", rng))
        for s, t in ((0.0, None), (-1.0, None), (1.0, 2.0), (0.5, -0.5)):
            explicit = sum(2.0 ** (q * (s if t is None or q <= 0 else t)) * profile[i]
                           for i, q in enumerate(fam.q_range))
            assert fam.weighted_sum(profile, s, t) == pytest.approx(explicit, rel=1e-13)

    def test_psi_stack_built_once_per_family(self, grid2d, rng, monkeypatch):
        calls = []
        real_psi = dyadic.psi

        def counted(r):
            calls.append(1)
            return real_psi(r)

        monkeypatch.setattr(dyadic, "psi", counted)
        fam = DyadicFamily(grid2d)
        assert not calls                        # built lazily, not in __init__
        f = random_field(grid2d, "scalar", rng)
        fam.block_l2_profile(f)
        stack, sq = fam.psi_stack, fam.psi_sq
        fam.block_l2_profile(f)
        fam.block(f, 0)
        fam.partition_defect()
        assert len(calls) == 1
        assert fam.psi_stack is stack and fam.psi_sq is sq
        assert fam.psi_array(0).base is stack
        fam.weighted_sum(fam.block_l2_profile(f), 1.0)
        weights = fam._weights[1.0, None]
        fam.weighted_sum(fam.block_l2_profile(f), 1.0)
        assert fam._weights[1.0, None] is weights

    def test_psi_array_outside_active_range(self, grid2d):
        fam = DyadicFamily(grid2d)
        for q in (fam.q_lo - 1, fam.q_hi + 1):
            with pytest.raises(InputError):
                fam.psi_array(q)


class TestParaproducts:
    def test_zero_factor(self, grid2d):
        g = cosine_mode(grid2d, (3, 0))
        z = SpectralField.zeros(grid2d, "scalar")
        assert paraproduct(z, g).l2() == 0.0
        assert remainder(z, g).l2() == 0.0

    def test_bony_identity_random(self, grid2d, rng):
        for _ in range(5):
            f = random_field(grid2d, "scalar", rng)
            g = random_field(grid2d, "scalar", rng)
            assert bony_defect(f, g) < 1e-10

    def test_separated_supports(self, grid2d_unit, rng):
        # f confined to blocks <= 0, g to blocks >= 3: the remainder and the
        # g-on-f paraproduct vanish by shell-support arithmetic, and the f-on-g
        # paraproduct alone reproduces the whole product
        grid = grid2d_unit
        fam = DyadicFamily(grid)
        f = random_field(grid, "scalar", rng, band=(1.0, 1.6))
        g = random_field(grid, "scalar", rng, band=(9.7, 14.0))
        g = SpectralField(grid, g.coeff * grid.dealias_mask)
        for q in fam.q_range:
            if q > 0:
                assert fam.block(f, q).l2() < 1e-14
            if q < 3:
                assert fam.block(g, q).l2() < 1e-14
        assert remainder(f, g).l2() < 1e-14
        assert paraproduct(g, f).l2() < 1e-14
        full = dealiased_product(f, g).project_mean_zero()
        assert (paraproduct(f, g) - full).l2() < 1e-12 * full.l2()


class TestProductHandValues:
    def test_single_triad_hand_value(self, grid2d_unit):
        # u = (cos(y), 0), f = cos(2x): u.grad f = -2 cos(y) sin(2x)
        #                             = -(sin(2x+y) + sin(2x-y))
        grid = grid2d_unit
        u = cosine_mode(grid, (0, 1), rank="vector", component=(0,))
        f = cosine_mode(grid, (2, 0))
        w = SpectralField(grid, convect(grid, u.to_physical(), f.coeff))
        x = grid.meshgrid()
        expected = SpectralField.from_physical(
            grid, -(np.sin(2 * x[0] + x[1]) + np.sin(2 * x[0] - x[1])))
        assert (w - expected).l2() < 1e-13

    def test_product_single_mode_hand_value(self, grid2d_unit):
        # u = (0, cos(x)), E = e_{00} cos(y):
        # grad(u) E has only the (1,0) entry -sin(x)cos(y)
        grid = grid2d_unit
        u = cosine_mode(grid, (1, 0), rank="vector", component=(1,))
        E = cosine_mode(grid, (0, 1), rank="matrix", component=(0, 0))
        prod = matrix_product(jacobian(u), E)
        x = grid.meshgrid()
        expected = SpectralField.zeros(grid, "matrix")
        expected.coeff[1, 0] = SpectralField.from_physical(
            grid, -np.sin(x[0]) * np.cos(x[1])).coeff
        assert (prod - expected).l2() < 1e-13
