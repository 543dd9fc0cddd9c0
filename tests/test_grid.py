"""Spectral substrate: transforms, Parseval, dealiased products, dyadic scaling."""

import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from viscoflow import Grid, SpectralField, dealiased_product, random_field, scale_dyadic
from viscoflow.dyadic import DyadicFamily, besov_norm
from viscoflow.errors import InputError
from viscoflow.grid import (_forward, _inverse, cosine_mode, dealias_physical, fine_grid_product,
                            full_spectrum, refine_field)
from viscoflow.operators import convect


class TestGrid:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            Grid(4, 32)
        with pytest.raises(InputError):
            Grid(2, 24)  # not a power of two
        with pytest.raises(InputError):
            Grid(2, 4)   # too small
        with pytest.raises(InputError):
            Grid(2, 32, length=0.5)

    def test_nyquist_excluded(self, grid2d):
        f = SpectralField.from_physical(grid2d, np.cos(np.arange(32) * np.pi)[:, None]
                                        * np.ones((32, 32)))
        # pure Nyquist signal transforms to nothing retained
        assert f.l2() == 0.0

    def test_half_spectrum_layout(self, grid2d, grid3d):
        assert grid2d.spectral_shape == (32, 17) and grid3d.spectral_shape == (16, 16, 9)
        assert SpectralField.zeros(grid3d, "matrix").coeff.shape == (3, 3, 16, 16, 9)
        assert grid2d.xi_mag.shape == grid2d.dealias_mask.shape == (32, 17)
        assert not grid2d.keep_mask[:, -1].any() and not grid2d.keep_mask[16].any()
        assert list(grid2d.hermitian_weight) == [1.0] + [2.0] * 15 + [1.0]

    def test_full_spectrum_matches_complex_fft(self, grid3d, rng):
        vals = rng.standard_normal((3, 16, 16, 16))
        f = SpectralField.from_physical(grid3d, vals)
        full = np.fft.fftn(vals, axes=(1, 2, 3)) / 16 ** 3
        for ax in (1, 2, 3):
            np.moveaxis(full, ax, 1)[:, 8] = 0.0
        assert np.max(np.abs(full_spectrum(f) - full)) < 1e-15

    def test_frequency_resolution(self, grid2d):
        assert grid2d.xi_min == pytest.approx(1.0 / 8.0)
        assert grid2d.xi_max == pytest.approx(np.sqrt(2) * 15 / 8.0)

    def test_two_thirds_cut_is_n_minus_one_over_three(self):
        for n in (8, 16, 32, 64, 128, 256, 512, 1024):
            assert Grid(2, n, 1.0).dealias_cut == (n - 1) // 3

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_cut_never_falls_as_the_fraction_grows(self, n):
        # 0.667 once kept fewer modes than 2/3 (cut 20 against 21 at n = 64)
        fracs = sorted(set(np.linspace(0.01, 1.0, 100)) | {2.0 / 3.0, 0.667, 0.5, 0.75})
        cuts = [Grid(2, n, 1.0, frac).dealias_cut for frac in fracs]
        assert all(b >= a for a, b in zip(cuts, cuts[1:]))
        for frac, cut in zip(fracs, cuts):
            assert cut < frac * n / 2 <= cut + 1    # keeps exactly |k| < frac n/2


class TestDyadicOwnership:
    def test_one_family_per_grid(self, grid2d, rng):
        f = random_field(grid2d, "scalar", rng)
        assert grid2d.dyadic is grid2d.dyadic
        assert besov_norm(f, 1.0) == besov_norm(f, 1.0, DyadicFamily(grid2d))

    def test_grid_with_family_freed_by_reference_counting(self):
        # the family holds the grid's arrays, not the grid: no cycle to collect
        g = Grid(2, 32, 8.0)
        g.dyadic.psi_sq
        ref = weakref.ref(g)
        del g
        assert ref() is None


class TestTransforms:
    def test_constant_field_keeps_mean(self, grid2d):
        f = SpectralField.from_physical(grid2d, np.ones((32, 32)))
        assert f.coeff[0, 0] == pytest.approx(1.0)
        assert f.l2() == pytest.approx(1.0)

    def test_single_harmonic_coefficients(self, grid2d):
        x = grid2d.meshgrid()
        f = SpectralField.from_physical(grid2d, np.cos(x[0] / grid2d.length))
        assert f.coeff[1, 0] == pytest.approx(0.5)
        assert f.coeff[-1, 0] == pytest.approx(0.5)
        others = f.coeff.copy()
        others[1, 0] = others[-1, 0] = 0.0
        assert np.max(np.abs(others)) < 1e-15

    def test_roundtrip(self, grid2d, rng):
        vals = rng.standard_normal((32, 32))
        f = SpectralField.from_physical(grid2d, vals)
        back = f.to_physical()
        # Nyquist content is removed, so compare against the filtered signal
        twice = SpectralField.from_physical(grid2d, back).to_physical()
        assert np.max(np.abs(back - twice)) < 1e-13 * np.max(np.abs(vals))

    def test_roundtrip_band_limited(self, grid2d, rng):
        f = random_field(grid2d, "scalar", rng)
        vals = f.to_physical()
        again = SpectralField.from_physical(grid2d, vals)
        assert np.max(np.abs(again.coeff - f.coeff)) < 1e-13

    def test_parseval(self, grid2d, rng):
        for _ in range(5):
            f = random_field(grid2d, "scalar", rng, mean_zero=False)
            vals = f.to_physical()
            phys = np.sqrt(np.mean(vals ** 2))
            assert f.l2() == pytest.approx(phys, rel=1e-13)

    def test_parseval_3d_vector(self, grid3d, rng):
        f = random_field(grid3d, "vector", rng)
        vals = f.to_physical()
        phys = np.sqrt(np.mean((vals ** 2).sum(axis=0)))
        assert f.l2() == pytest.approx(phys, rel=1e-13)

    def test_size_mismatch_rejected(self, grid2d):
        with pytest.raises(InputError):
            SpectralField.from_physical(grid2d, np.ones((16, 16)))


class TestTransformKernels:
    """The two transform kernels against the numpy N-D transforms they
    replace, on random stacks with no band limit: leading shapes (), (d,)
    and (d, d), every power-of-two n from 8 to 64, and dealias fractions
    down to 0.1, where the cut is 0 at n = 8."""

    @pytest.mark.parametrize("rank", ["scalar", "vector", "matrix"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_inverse_is_irfftn_bytewise(self, dim, n, rank, rng):
        grid = Grid(dim, n, 1.0)
        shape = SpectralField._comp_shape(grid, rank) + grid.spectral_shape
        coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.fft.irfftn(coeff, s=(n,) * dim, axes=tuple(range(-dim, 0)), norm="forward")
        got = np.empty(want.shape)
        _inverse(grid, coeff, got)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("frac", [0.1, 0.5, 2.0 / 3.0, 0.75, 1.0])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_forward_is_the_masked_rfftn(self, dim, n, frac, rng):
        grid = Grid(dim, n, 1.0, dealias_frac=frac)
        for rank in ("scalar", "vector", "matrix"):
            values = rng.standard_normal(SpectralField._comp_shape(grid, rank) + (n,) * dim)
            want = np.fft.rfftn(values, axes=tuple(range(-dim, 0)), norm="forward")
            want *= grid.dealias_mask
            # every entry is written, the pruned columns too
            got = np.full(want.shape, np.nan, dtype=np.complex128)
            _forward(grid, values, got)
            assert np.array_equal(got, want)

    def test_to_physical_leaves_a_read_only_coeff_unchanged(self, grid3d, rng):
        f = random_field(grid3d, "matrix", rng, band=(0.0, grid3d.xi_max))
        kept = f.coeff.copy()
        f.coeff.flags.writeable = False
        samples = f.to_physical()
        assert np.array_equal(f.coeff, kept)
        assert samples.tobytes() == np.fft.irfftn(kept, s=(grid3d.n,) * 3, axes=(-3, -2, -1),
                                                  norm="forward").tobytes()


class TestWorkspace:
    """Three slabs per grid (spec, samples, products), reused by every pass."""

    @staticmethod
    def _fields(grid, rng):
        # the whole retained band, so the dealias mask has work to do
        return [random_field(grid, rank, rng, band=(0.0, grid.xi_max))
                for rank in ("scalar", "vector", "matrix")]

    @staticmethod
    def _comp(f):
        return f.coeff.shape[:f.coeff.ndim - f.grid.dim]

    def _pass(self, grid, fields):
        """One whole pass over ``fields``, checked against the per-field transforms."""
        with grid.workspace() as ws:
            for row, f in zip(ws.spectral(*map(self._comp, fields)), fields):
                row[...] = f.coeff
            samples = ws.inverse()
            for got, f in zip(samples, fields):
                assert got.tobytes() == f.to_physical().tobytes()
            values = [np.cos(x) * x for x in samples]
            for row, v in zip(ws.products(*map(self._comp, fields)), values):
                row[...] = v
            for got, v in zip(ws.forward(), values):
                assert got.coeff.tobytes() == dealias_physical(grid, v).coeff.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batched_transforms_equal_per_field_bitwise(self, dim, rng):
        grid = Grid(dim, 32 if dim == 2 else 16, 4.0)
        self._pass(grid, self._fields(grid, rng))

    def test_a_larger_pass_grows_every_slab(self, rng):
        # a fresh grid's slabs are empty; each grows to the larger pass, and
        # each request starts at row 0, so growing copies nothing
        grid = Grid(2, 16, 1.0)
        small, large = self._fields(grid, rng)[:1], self._fields(grid, rng)
        for fields in (small, large):
            self._pass(grid, fields)
        rows = sum(f.ncomp for f in large)
        assert {k: len(v) for k, v in grid._stacks.items()} == \
            {"spec": rows, "samples": rows, "products": rows}

    @pytest.mark.parametrize("steps, step", [
        (["spectral"], "spectral"), ([], "inverse"), (["spectral"], "products"),
        (["spectral", "inverse"], "forward"),
        (["spectral", "inverse", "products", "forward"], "spectral")])
    def test_a_step_out_of_order_raises(self, steps, step, rng):
        def take(ws, name):  # a request asks for one vector's rows
            return getattr(ws, name)(*[(2,)] * (name in ("spectral", "products")))

        grid = Grid(2, 16, 1.0)
        with grid.workspace() as ws:
            for name in steps:
                take(ws, name)
            with pytest.raises(RuntimeError, match=f"step {step} out of order"):
                take(ws, step)
        # the with statement closed the pass; the next one on the grid runs
        self._pass(grid, self._fields(grid, rng))

    def test_passes_reuse_the_stacks(self, grid2d, rng):
        f = random_field(grid2d, "vector", rng)
        views = []
        for _ in range(2):
            with grid2d.workspace() as ws:
                (row,) = ws.spectral((2,))
                row[...] = f.coeff
                views.append(ws.inverse()[0])
        assert np.shares_memory(*views)

    def test_nested_pass_raises(self, grid2d, rng):
        f = random_field(grid2d, "scalar", rng)
        u = random_field(grid2d, "vector", rng).to_physical()
        with grid2d.workspace():
            with pytest.raises(RuntimeError, match="already in use"):
                with grid2d.workspace():
                    pass
            with pytest.raises(RuntimeError, match="already in use"):
                convect(grid2d, u, f.coeff)
        # closed again: a pass after the failed ones runs
        assert np.array_equal(convect(grid2d, u, f.coeff), convect(grid2d, u, f.coeff))

    def test_other_grids_have_their_own_workspace(self, rng):
        a, b = Grid(2, 16, 1.0), Grid(2, 16, 1.0)
        f = random_field(b, "scalar", rng)
        u = random_field(b, "vector", rng).to_physical()
        with a.workspace():
            assert SpectralField(b, convect(b, u, f.coeff)).l2() > 0.0

    def test_grid_is_freed_without_cycle_collection(self, rng):
        # a pass holds the grid and the grid never holds a pass: dropping the
        # last reference frees the grid and its stacks at once
        grid = Grid(2, 16, 1.0)
        f = random_field(grid, "matrix", rng)
        u = random_field(grid, "vector", rng).to_physical()
        moved = convect(grid, u, f.coeff)
        ref = weakref.ref(grid)
        del grid, f, moved
        assert ref() is None

    def test_derivative_symbols_built_once(self, grid2d):
        assert grid2d.nabla.shape == (2,) + grid2d.spectral_shape
        for ax in range(2):
            assert np.array_equal(grid2d.nabla[ax], np.broadcast_to(1j * grid2d.xi_axes[ax],
                                                                    grid2d.spectral_shape))


class TestDealiasedProduct:
    def test_product_to_sum_identity(self, grid2d):
        f = cosine_mode(grid2d, (1, 0))
        p = dealiased_product(f, f)
        # cos^2 = 1/2 + cos(2x)/2
        assert p.coeff[0, 0] == pytest.approx(0.5)
        assert p.coeff[2, 0] == pytest.approx(0.25)
        assert p.coeff[-2, 0] == pytest.approx(0.25)

    def test_zero_factor(self, grid2d, rng):
        f = random_field(grid2d, "scalar", rng)
        z = SpectralField.zeros(grid2d, "scalar")
        assert dealiased_product(f, z).l2() == 0.0

    def test_matches_fine_grid_oracle(self, grid2d, rng):
        for _ in range(3):
            f = random_field(grid2d, "scalar", rng)
            g = random_field(grid2d, "scalar", rng)
            fast = dealiased_product(f, g)
            oracle = fine_grid_product(f, g)
            assert (fast - oracle).l2() < 1e-12 * max(oracle.l2(), 1e-30)

    def test_rank_mismatch_rejected(self, grid2d, rng):
        u = random_field(grid2d, "vector", rng)
        v = random_field(grid2d, "vector", rng)
        with pytest.raises(InputError):
            dealiased_product(u, v)


class TestScaleDyadic:
    def test_single_mode_doubles(self, grid2d):
        f = cosine_mode(grid2d, (1, 0))
        g = scale_dyadic(f)
        expected = cosine_mode(grid2d, (2, 0))
        assert (g - expected).l2() < 1e-15

    def test_l2_preserved(self, grid2d, rng):
        quarter = (grid2d.n // 2 - 1) // 2 / grid2d.length
        f = random_field(grid2d, "scalar", rng, band=(0.0, quarter))
        assert scale_dyadic(f).l2() == pytest.approx(f.l2(), rel=1e-14)

    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 1.0])
    def test_block_norm_scaling_law(self, grid2d, rng, s):
        # scaling by 2 shifts every dyadic block by one, hence the exact 2^s law
        fam = DyadicFamily(grid2d)
        quarter = (grid2d.n // 2 - 1) // 2 / grid2d.length
        f = random_field(grid2d, "scalar", rng, band=(1.0 / grid2d.length, quarter))
        lhs = besov_norm(scale_dyadic(f), s, fam)
        rhs = 2.0 ** s * besov_norm(f, s, fam)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_rejects_out_of_band(self, grid2d):
        f = cosine_mode(grid2d, (10, 0))
        with pytest.raises(InputError):
            scale_dyadic(f)

    def test_rejects_mean(self, grid2d):
        f = SpectralField.from_physical(grid2d, np.ones((32, 32)))
        with pytest.raises(InputError):
            scale_dyadic(f)


class TestRefine:
    def test_refined_samples_interpolate(self, rng):
        coarse, fine = Grid(3, 8, length=1.0), Grid(3, 16, length=1.0)
        f = random_field(coarse, "vector", rng, mean_zero=False)
        g = refine_field(f, fine)
        assert g.l2() == pytest.approx(f.l2(), rel=1e-14)
        # every second fine sample is a coarse sample
        assert np.max(np.abs(g.to_physical()[:, ::2, ::2, ::2] - f.to_physical())) < 1e-14


class TestCosineMode:
    @pytest.mark.parametrize("k", [(1, 0), (0, 3), (2, -5), (-4, -1), (0, -7)])
    @pytest.mark.parametrize("phase", ["cos", "sin"])
    def test_samples(self, grid2d, k, phase):
        x = grid2d.meshgrid()
        arg = (k[0] * x[0] + k[1] * x[1]) / grid2d.length
        want = np.cos(arg) if phase == "cos" else np.sin(arg)
        got = cosine_mode(grid2d, k, phase=phase).to_physical()
        assert np.max(np.abs(got - want)) < 1e-14
        assert cosine_mode(grid2d, k, phase=phase).l2() == pytest.approx(np.sqrt(0.5))


def test_fft_only_in_grid():
    """Every transform of the package goes through grid.py: the choke point
    where the storage layout is decided."""
    src = Path(__file__).resolve().parent.parent / "src" / "viscoflow"
    offenders = [p.name for p in sorted(src.glob("*.py"))
                 if p.name != "grid.py" and re.search(r"np\.fft|numpy\.fft", p.read_text())]
    assert offenders == []
