"""Property tests: the Helmholtz split is an involution on mean-zero
band-limited vectors, Bony's decomposition reassembles the dealiased
product, the half-spectrum norms equal the physical grid means, and a
snapshot round trip is bit-identical for every rank.
Examples are drawn deterministically (see conftest.py)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from viscoflow import (Grid, SpectralField, bony_defect,  # noqa: E402
                       helmholtz_reconstruct, helmholtz_split, load_field,
                       random_field, save_field)

GRIDS = {2: Grid(2, 16, length=2.0), 3: Grid(3, 8, length=1.0)}


@hypothesis.given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
                  lo=st.floats(0.0, 2.0), width=st.floats(0.5, 4.0),
                  amplitude=st.floats(1e-6, 1e3))
def test_helmholtz_involution(dim, seed, lo, width, amplitude):
    grid = GRIDS[dim]
    u = random_field(grid, "vector", np.random.default_rng(seed),
                     band=(lo, lo + width), amplitude=amplitude)
    back = helmholtz_reconstruct(*helmholtz_split(u))
    assert (back - u).l2() <= 1e-13 * max(u.l2(), 1e-300)


@hypothesis.given(dim=st.sampled_from([2, 3]),
                  rank=st.sampled_from(["scalar", "vector", "matrix"]),
                  seed=st.integers(0, 2 ** 32 - 1), mean_zero=st.booleans())
def test_half_spectrum_norms_are_grid_means(dim, rank, seed, mean_zero):
    # the Hermitian weight counts each interior column for itself and its mirror
    rng = np.random.default_rng(seed)
    f, g = (random_field(GRIDS[dim], rank, rng, mean_zero=mean_zero) for _ in range(2))
    fx, gx = f.to_physical(), g.to_physical()
    comps = tuple(range(fx.ndim - dim))
    assert f.l2() ** 2 == pytest.approx(np.mean(np.sum(fx * fx, axis=comps)), rel=1e-12)
    assert abs(f.inner(g) - np.mean(np.sum(fx * gx, axis=comps))) <= 1e-12 * f.l2() * g.l2()
    back = SpectralField.from_physical(GRIDS[dim], fx)
    assert np.max(np.abs(back.coeff - f.coeff)) <= 1e-14 * max(f.l2(), 1e-300)


@hypothesis.given(dim=st.sampled_from([2, 3]), seed_f=st.integers(0, 2 ** 32 - 1),
                  seed_g=st.integers(0, 2 ** 32 - 1))
def test_bony_decomposition_is_exact(dim, seed_f, seed_g):
    # T_f g + T_g f + R(f, g) equals the dealiased product fg
    f = random_field(GRIDS[dim], "scalar", np.random.default_rng(seed_f))
    g = random_field(GRIDS[dim], "scalar", np.random.default_rng(seed_g))
    assert bony_defect(f, g) <= 1e-10


@hypothesis.given(dim=st.sampled_from([2, 3]),
                  rank=st.sampled_from(["scalar", "vector", "matrix"]),
                  seed=st.integers(0, 2 ** 32 - 1), mean_zero=st.booleans())
def test_snapshot_round_trip_is_bit_identical(tmp_path_factory, dim, rank, seed,
                                              mean_zero):
    f = random_field(GRIDS[dim], rank, np.random.default_rng(seed),
                     mean_zero=mean_zero)
    path = tmp_path_factory.mktemp("snap") / "f.vfs"
    save_field(path, f)
    g = load_field(path)
    assert g.grid.compatible(f.grid) and g.grid.dealias_frac == f.grid.dealias_frac
    assert g.coeff.dtype == f.coeff.dtype and g.coeff.shape == f.coeff.shape
    assert g.coeff.tobytes() == f.coeff.tobytes()
    again = path.parent / "again.vfs"
    save_field(again, g)
    assert again.read_bytes() == path.read_bytes()
