"""Auxiliary linear system: eigenvalue oracle, exact pair propagation,
fitted decay rates, block-energy coercivity and equivalence."""

import math

import numpy as np
import pytest

from viscoflow import (DyadicFamily, EnergyConstants, Grid, SpectralField,
                       block_energy, constant_coeff_spectrum, cosine_mode,
                       equivalence_ratio, evolve_pair_exact, linear_rhs,
                       measure_block_decay, oracle_decay_rate, random_field,
                       run_pair_decay)
from viscoflow import linear
from viscoflow.errors import DiagnosticError, InputError, InvariantViolation
from viscoflow.linear import _assemble_state, block_radicand, expm2, pair_state
from viscoflow.model import (HelmholtzState, ModelParams, PrimitiveState, ReformState,
                             dual_path_gap, primitive_rhs, reformulated_rhs, split_state)
from viscoflow.operators import (SplitViscosity, Viscosity, fractional_power,
                                 helmholtz_reconstruct, pair_rows, symmetric_scalar,
                                 transpose_gap, _pairs)

from conftest import random_skew


def _visc(nu=1.0, mu=1.0):
    return SplitViscosity(nu, mu)


class TestSpectrumOracle:
    def test_rho_d_complex_pair(self):
        # nu=1, |xi|=1: lambda^2 + lambda + 2 = 0 -> (-1 +- i sqrt 7)/2
        lam1, lam2 = constant_coeff_spectrum(1.0, 1.0, 1.0)["rho_d"]
        assert lam1 == pytest.approx((-1 + 1j * math.sqrt(7)) / 2)
        assert lam2 == pytest.approx((-1 - 1j * math.sqrt(7)) / 2)
        assert oracle_decay_rate("rho_d", 1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_rho_d_real_pair(self):
        # nu=1, |xi|=4: lambda^2 + 16 lambda + 32 = 0 -> -8 +- 4 sqrt 2
        lam1, lam2 = constant_coeff_spectrum(4.0, 1.0, 1.0)["rho_d"]
        assert lam1.real == pytest.approx(-8 + 4 * math.sqrt(2))
        assert lam2.real == pytest.approx(-8 - 4 * math.sqrt(2))
        assert abs(lam1.imag) < 1e-14

    def test_rho_d_low_frequency(self):
        # nu=1, |xi|=1/8: complex regime, real part exactly -nu |xi|^2 / 2
        rate = oracle_decay_rate("rho_d", 0.125, 1.0, 1.0)
        assert rate == pytest.approx(1.0 / 128.0)

    def test_omega_pair_and_potential_pair(self):
        lam1, _ = constant_coeff_spectrum(1.0, 1.0, 1.0)["omega_w"]
        assert lam1 == pytest.approx((-1 + 1j * math.sqrt(3)) / 2)
        lam1, _ = constant_coeff_spectrum(1.0, 1.0, 1.0)["potential_d"]
        assert lam1 == pytest.approx((-1 + 1j * math.sqrt(15)) / 2)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(InputError):
            constant_coeff_spectrum(0.0, 1.0, 1.0)


class TestExpm2:
    def test_against_dense_eig(self, rng):
        for _ in range(20):
            M = rng.standard_normal((2, 2))
            t = float(rng.uniform(0.1, 2.0))
            m11, m12, m21, m22 = expm2(M[0, 0], M[0, 1], M[1, 0], M[1, 1], t)
            got = np.array([[m11, m12], [m21, m22]], dtype=complex)
            w, V = np.linalg.eig(M)
            ref = V @ np.diag(np.exp(w * t)) @ np.linalg.inv(V)
            assert np.max(np.abs(got - ref)) < 1e-10 * max(1.0, np.abs(ref).max())

    def test_defective_case(self):
        # [[0,1],[-1,-2]] has the double eigenvalue -1
        m11, m12, m21, m22 = expm2(0.0, 1.0, -1.0, -2.0, 3.0)
        # exp(Mt) = e^{-t}[[1+t, t], [-t, 1-t]]
        e = math.exp(-3.0)
        assert complex(m11) == pytest.approx(e * 4.0)
        assert complex(m12) == pytest.approx(e * 3.0)
        assert complex(m21) == pytest.approx(-e * 3.0)
        assert complex(m22) == pytest.approx(-e * 2.0)

    def test_no_overflow_for_stiff_decay(self):
        vals = expm2(-1e4, 1.0, 1.0, -2e4, 10.0)
        assert all(np.isfinite(np.asarray(v, dtype=complex)).all() for v in vals)

    def test_propagator_matches_linear_rhs_derivative(self, grid2d):
        # finite-difference d/dt of the exact propagator equals the rhs
        visc = _visc()
        x, y = pair_state(grid2d, (8, 0))
        eps = 1e-6
        x1, y1 = evolve_pair_exact(x, y, "rho_d", visc, eps)
        state = HelmholtzState.zeros(grid2d)
        state.rho, state.d = x, y
        dot = linear_rhs(state, visc)
        fd_rho = (x1 - x) * (1.0 / eps)
        fd_d = (y1 - y) * (1.0 / eps)
        assert (fd_rho - dot.rho).l2() < 1e-5
        assert (fd_d - dot.d).l2() < 1e-5


class TestDecayRates:
    @pytest.mark.parametrize("pair", ["rho_d", "omega_w", "potential_d"])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_rate_matches_oracle_unit_length(self, pair, k):
        grid = Grid(2, 64, length=1.0)
        res = run_pair_decay(grid, pair, (k, 0), _visc())
        assert res["rel_error"] <= 0.02

    def test_low_frequency_parabolic_sweep(self):
        # L=8 makes |xi| = 2^q available for q in {-3..0}; rates follow
        # nu |xi|^2 / 2 so the rate-vs-q regression slope is 2 in log2
        grid = Grid(2, 32, length=8.0)
        rates = []
        for q in (-3, -2, -1, 0):
            k = int(round(2.0 ** q * 8))
            res = run_pair_decay(grid, "rho_d", (k, 0), _visc())
            rates.append(res["fitted"])
        slope = np.polyfit(range(-3, 1), np.log2(rates), 1)[0]
        assert abs(slope - 2.0) <= 0.1

    def test_high_frequency_saturation(self):
        # slow root of the compressible pair tends to 2/nu at high frequency
        grid = Grid(2, 64, length=1.0)
        res = run_pair_decay(grid, "rho_d", (16, 0), _visc())
        assert abs(res["fitted"] - 2.0) / 2.0 <= 0.05
        assert abs(res["oracle"] - 2.0) / 2.0 <= 0.01

    @pytest.mark.parametrize("pair", ["rho_d", "omega_w", "potential_d"])
    @pytest.mark.parametrize("grid,kvec", [
        pytest.param(Grid(3, 16, length=1.0), (2, 2, 0), id="3d-xi-2.83"),
        pytest.param(Grid(2, 32, length=8.0), (8, 8), id="2d-xi-1.41")])
    def test_seed_below_its_rounded_block_fits_the_block_below(self, pair, grid, kvec):
        # |xi| = 2.83 and 1.41 sit at 0.71 of 2^round(log2 |xi|), below that
        # block's shell and where block q - 1 has psi = 1
        res = run_pair_decay(grid, pair, kvec, _visc())
        assert res["q"] == round(np.log2(res["xi"])) - 1
        assert res["rel_error"] <= 0.02

    @pytest.mark.parametrize("kvec", [(32, 0), (64, 0), (0, -32), (0, 0)])
    def test_unrepresentable_seed_rejected(self, kvec):
        # xi = 4 and 8 on L = 8, n = 64 seed Nyquist and the aliased mean
        with pytest.raises(InputError, match="not representable"):
            run_pair_decay(Grid(2, 64, length=8.0), "rho_d", kvec, _visc())

    def test_block_energy_monotone_in_free_decay(self):
        grid = Grid(2, 32, length=1.0)
        res = run_pair_decay(grid, "rho_d", (2, 0), _visc(), n_samples=300)
        g = res["energy"]
        # sample-wise decay of the block energy along the trajectory
        assert np.all(np.diff(g) <= 1e-12 * g[0])

    def test_fit_guards(self):
        with pytest.raises(DiagnosticError):
            measure_block_decay([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(DiagnosticError):
            t = np.linspace(0, 1, 100)
            measure_block_decay(t, np.exp(-0.1 * t))  # less than one e-fold


# (grid, wavevector, viscosity, seeded block low): low and high blocks in 2-D
# and 3-D, and diagonal wavevectors that weight both +-k entries of every
# component; nu = mu = 4 lowers the block split to 2
_CLOSED_FORM_CASES = [
    pytest.param(Grid(2, 64, length=1.0), (4, 0), (1.0, 1.0), True, id="2d-low"),
    pytest.param(Grid(2, 64, length=1.0), (31, 0), (1.0, 1.0), False, id="2d-high"),
    pytest.param(Grid(2, 64, length=1.0), (3, 3), (1.0, 1.0), True, id="2d-diagonal"),
    pytest.param(Grid(3, 16, length=1.0), (0, 2, 0), (1.0, 1.0), True, id="3d-low"),
    pytest.param(Grid(3, 16, length=1.0), (7, 0, 0), (4.0, 4.0), False, id="3d-high"),
    pytest.param(Grid(3, 16, length=1.0), (3, 0, 3), (4.0, 4.0), True, id="3d-diagonal"),
]


class TestClosedFormSeries:
    """The closed-form energy series against the direct path: the exact
    per-mode propagator on the whole grid and ``block_energy`` per time."""

    @pytest.mark.parametrize("pair", ["rho_d", "omega_w", "potential_d"])
    @pytest.mark.parametrize("grid,kvec,nu_mu,low", _CLOSED_FORM_CASES)
    def test_series_matches_direct_path(self, pair, grid, kvec, nu_mu, low):
        visc = _visc(*nu_mu)
        consts = EnergyConstants(*nu_mu)
        res = run_pair_decay(grid, pair, kvec, visc, n_samples=100)
        assert (res["q"] <= consts.block_split) == low
        x0, y0 = pair_state(grid, kvec)
        for i in (0, 1, 17, 50, 99):
            x, y = evolve_pair_exact(x0, y0, pair, visc, float(res["times"][i]))
            ref = block_energy(_assemble_state(grid, pair, x, y), res["q"], consts)
            assert ref > 0.0
            assert abs(res["energy"][i] - ref) <= 1e-12 * ref

    def test_one_propagator_and_ten_radicands(self, monkeypatch):
        calls = {"expm2": 0, "block_radicand": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(linear, name, counting(name, getattr(linear, name)))
        run_pair_decay(Grid(2, 32, length=1.0), "omega_w", (2, 0), _visc())
        assert calls == {"expm2": 1, "block_radicand": 10}

    def test_negative_radicand_still_raises(self, monkeypatch):
        class TinyEta(EnergyConstants):
            @property
            def eta(self):
                return 1e-3  # cross terms nu/eta outweigh the L2 norms

        monkeypatch.setattr(linear, "EnergyConstants", TinyEta)
        with pytest.raises(InvariantViolation, match="radicand"):
            run_pair_decay(Grid(2, 32, length=1.0), "rho_d", (2, 0), _visc())


def _random_state(grid, rng, amplitude=1.0):
    E = random_field(grid, "matrix", rng, amplitude=amplitude)
    return HelmholtzState(
        random_field(grid, "scalar", rng, amplitude=amplitude),
        random_field(grid, "scalar", rng, amplitude=amplitude),
        random_skew(grid, rng, amplitude=amplitude),
        transpose_gap(E),
        symmetric_scalar(E),
    ), E


class TestBlockEnergies:
    def test_constants_match_definitions(self):
        c = EnergyConstants(1.0, 1.0)
        assert c.gamma == pytest.approx(6.0)
        assert c.block_split == 4  # ceil(log2(2*6*6/5)) = ceil(log2 14.4)
        assert c.eta == pytest.approx(max((4.0 ** 4 + 3) / 2, 4.0 ** 4 / 2) + 1)
        assert c.beta1 == pytest.approx(2.0)
        assert c.beta2 == pytest.approx(2.0)

    def test_zero_state(self, grid2d_unit):
        c = EnergyConstants(1.0, 1.0)
        state = HelmholtzState.zeros(grid2d_unit)
        assert block_energy(state, 0, c) == 0.0
        assert block_energy(state, 5, c) == 0.0

    def test_pure_d_low_value(self, grid2d_unit):
        # cross terms vanish; the display carries weight 2 on ||d||^2
        c = EnergyConstants(1.0, 1.0)
        fam = DyadicFamily(grid2d_unit)
        d = cosine_mode(grid2d_unit, (2, 0))
        state = HelmholtzState.zeros(grid2d_unit)
        state.d = d
        q = 1
        expected = 2.0 ** (q * (2 / 2 - 1)) * math.sqrt(2.0) * fam.block(d, q).l2()
        assert block_energy(state, q, c) == pytest.approx(expected, rel=1e-13)

    def test_regime_switches_after_block_split(self, grid2d_unit, rng):
        # pure d: every cross term vanishes, so the radicand is the weight on
        # ||d_q||^2, 2 in the low form and 2*gamma in the high form;
        # nu = mu = 4 lowers the block split to 2
        c = EnergyConstants(4.0, 4.0)
        fam = DyadicFamily(grid2d_unit)
        d = random_field(grid2d_unit, "scalar", rng)
        state = HelmholtzState.zeros(grid2d_unit)
        state.d = d
        for q, weight in ((c.block_split, 2.0), (c.block_split + 1, 2.0 * c.gamma)):
            norm_sq = fam.block(d, q).l2() ** 2
            assert norm_sq > 0.0
            assert block_radicand(state, q, c) == pytest.approx(weight * norm_sq,
                                                                 rel=1e-13)

    def test_pure_rho_high_value(self, grid2d_unit):
        # high form: ||Lambda rho_q||^2, and Lambda is |xi| = 10 on the mode,
        # which block 3 holds whole; nu = mu = 4 puts block 3 above the split
        c = EnergyConstants(4.0, 4.0)
        fam = DyadicFamily(grid2d_unit)
        rho = cosine_mode(grid2d_unit, (10, 0))
        state = HelmholtzState.zeros(grid2d_unit)
        state.rho = rho
        q = 3
        assert q > c.block_split
        assert fam.block(rho, q).l2() == pytest.approx(rho.l2(), rel=1e-13)
        assert block_radicand(state, q, c) == pytest.approx(100.0 * rho.l2() ** 2,
                                                             rel=1e-12)

    def test_low_cross_term_value(self, grid2d_unit):
        # rho = d on one mode |xi| = 5, held whole by block 2:
        # 2||b||^2 + 2||b||^2 - (nu/eta) <Lambda b, b> = (4 - 5 nu/eta) ||b||^2
        c = EnergyConstants(1.0, 1.0)
        fam = DyadicFamily(grid2d_unit)
        b = cosine_mode(grid2d_unit, (5, 0))
        state = HelmholtzState.zeros(grid2d_unit)
        state.rho, state.d = b, b
        q = 2
        assert q <= c.block_split
        assert fam.block(b, q).l2() == pytest.approx(b.l2(), rel=1e-13)
        expected = (4.0 - 5.0 * c.nu / c.eta) * b.l2() ** 2
        assert block_radicand(state, q, c) == pytest.approx(expected, rel=1e-13)

    def test_nan_radicand_raises(self, grid2d_unit):
        c = EnergyConstants(1.0, 1.0)
        d = cosine_mode(grid2d_unit, (2, 0))
        d.coeff[2, 0] = np.nan
        state = HelmholtzState.zeros(grid2d_unit)
        state.d = d
        with pytest.raises(InvariantViolation, match="NaN"):
            block_energy(state, 1, c)

    def test_coercive_on_random_states(self, rng):
        # Monte-Carlo positivity in both regimes; raises on violation
        grid = Grid(2, 32, length=1.0)
        c = EnergyConstants(1.0, 1.0)
        fam = DyadicFamily(grid)
        for _ in range(50):
            state, _ = _random_state(grid, rng)
            for q in fam.q_range:
                assert block_energy(state, q, c) >= 0.0

    def test_equivalence_ratio_bracket_stable(self, rng):
        # the same functions on a refined grid give the same ratios
        from viscoflow.grid import refine_field
        c = EnergyConstants(1.0, 1.0)
        coarse = Grid(2, 32, length=1.0)
        fine = Grid(2, 64, length=1.0)
        ratios = {32: [], 64: []}
        for _ in range(10):
            state, E = _random_state(coarse, rng)
            famc = DyadicFamily(coarse)
            for q in famc.q_range:
                r = equivalence_ratio(state, E, q, c)
                if r is not None:
                    ratios[32].append(r)
            fields = [refine_field(f, fine) for f in
                      (state.rho, state.d, state.omega, state.skew, state.potential)]
            statef = HelmholtzState(*fields)
            famf = DyadicFamily(fine)
            for q in famf.q_range:
                r = equivalence_ratio(statef, refine_field(E, fine), q, c)
                if r is not None:
                    ratios[64].append(r)
        lo32, hi32 = min(ratios[32]), max(ratios[32])
        lo64, hi64 = min(ratios[64]), max(ratios[64])
        assert hi64 <= 2.0 * hi32 and lo64 >= lo32 / 2.0


class TestLinearRhs:
    def test_zero_state_zero_sources(self, grid2d):
        state = HelmholtzState.zeros(grid2d)
        dot = linear_rhs(state, _visc())
        assert dot.rho.l2() == dot.d.l2() == dot.omega.l2() == 0.0

    def test_constant_velocity_is_phase_advection(self, grid2d):
        # constant u: the convected solution is the unconvected one evaluated
        # on shifted coordinates; at the rhs level, transport of a single
        # mode multiplies by -i (u . k/L)
        u = SpectralField.zeros(grid2d, "vector")
        u.coeff[(0, 0, 0)] = 0.7
        rho = cosine_mode(grid2d, (3, 0))
        state = HelmholtzState.zeros(grid2d)
        state.rho = rho
        dot = linear_rhs(state, _visc(), u=u)
        expected = cosine_mode(grid2d, (3, 0), 0.7 * 3.0 / 8.0, phase="sin")
        assert (dot.rho - expected).l2() < 1e-13

    def test_antisymmetry_preserved(self, grid2d, rng):
        state, _ = _random_state(grid2d, rng)
        u = random_field(grid2d, "vector", rng, amplitude=0.1)
        dot = linear_rhs(state, _visc(), u=u)
        # Omega and W keep their one stored i < j entry through the convection
        for f in (dot.omega, dot.skew):
            assert f.coeff.shape == grid2d.spectral_shape
            assert np.isfinite(f.coeff).all() and f.l2() > 0.0


def _expanded(f):
    """The full antisymmetric matrix field whose i < j entries ``f`` stores."""
    g = f.grid
    full = np.zeros((g.dim, g.dim) + g.spectral_shape, dtype=np.complex128)
    for row, (i, j) in zip(pair_rows(f), _pairs(g.dim)):
        full[i, j], full[j, i] = row, -row
    return SpectralField(g, full)


class TestFrobeniusWeights:
    """Omega and W = E^T - E enter every norm as the Frobenius norm of the
    expanded matrix, though only their i < j entries are stored."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_block_radicand_low_and_high(self, rng, dim):
        grid = Grid(dim, 32 if dim == 2 else 16, length=1.0)
        c = EnergyConstants(4.0, 4.0)  # block split 2
        fam = grid.dyadic
        om, w = random_skew(grid, rng), random_skew(grid, rng)
        for q in (c.block_split, c.block_split + 1):
            O, W = fam.block(_expanded(om), q), fam.block(_expanded(w), q)
            LW = fractional_power(W, 1.0)
            assert O.l2() > 0.0 and W.l2() > 0.0
            if q <= c.block_split:
                ce = c.nu / c.eta
                want = {"omega": O.l2() ** 2, "skew": W.l2() ** 2,
                        "both": O.l2() ** 2 + W.l2() ** 2 - ce * LW.inner(O)}
            else:
                want = {"omega": c.gamma * O.l2() ** 2, "skew": LW.l2() ** 2,
                        "both": c.gamma * O.l2() ** 2 + LW.l2() ** 2
                        - c.beta2 * LW.inner(O)}
            for name, fields in (("omega", {"omega": om}), ("skew", {"skew": w}),
                                 ("both", {"omega": om, "skew": w})):
                state = HelmholtzState.zeros(grid)
                for field, value in fields.items():
                    setattr(state, field, value)
                assert block_radicand(state, q, c) == pytest.approx(want[name], rel=1e-14), \
                    (q, name)

    def test_equivalence_ratio(self, rng):
        # Omega alone in 2-D: g_q is the Frobenius norm of Omega_q in the low
        # form and sqrt(gamma) times it in the high form, and the denominator
        # is that norm
        grid = Grid(2, 32, length=1.0)
        c = EnergyConstants(4.0, 4.0)
        state = HelmholtzState.zeros(grid)
        state.omega = random_skew(grid, rng)
        E = SpectralField.zeros(grid, "matrix")
        for q, want in ((c.block_split, 1.0), (c.block_split + 1, math.sqrt(c.gamma))):
            assert equivalence_ratio(state, E, q, c) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dual_path_gap(self, grid3d, rng, dim):
        # data whose split state holds Omega alone (a solenoidal u) or W
        # alone (an antisymmetric E); both paths take W's rate from the same
        # E equation, so its gap is round-off, but a nonzero one
        grid = Grid(2, 32, length=1.0) if dim == 2 else grid3d
        params = ModelParams(Viscosity(1.0, 1.0, dim))
        omega_only, skew_only = PrimitiveState.zeros(grid), PrimitiveState.zeros(grid)
        omega_only.u = helmholtz_reconstruct(SpectralField.zeros(grid),
                                             random_skew(grid, rng, amplitude=0.05))
        skew_only.E = _expanded(random_skew(grid, rng, amplitude=0.05))
        seen = {"omega": 0.0, "skew": 0.0}
        for prim in (omega_only, skew_only):
            dot_a = split_state(primitive_rhs(prim, params))
            rdot = reformulated_rhs(ReformState.from_primitive(prim), params)
            want = {"omega": _expanded(dot_a.omega - rdot.omega).l2(),
                    "skew": _expanded(dot_a.skew - transpose_gap(rdot.E)).l2()}
            gaps = dual_path_gap(prim, params)
            for key in seen:
                assert gaps[key] == pytest.approx(want[key], rel=1e-14), key
                seen[key] = max(seen[key], want[key])
        assert min(seen.values()) > 0.0


class TestSmoothingIntegral:
    def test_d_integrates_against_smoothing_weight(self):
        # free decay of a multi-mode compressible pair: the time integral of
        # the smoothing norm of d is finite (Cauchy tail) and grid-stable
        from viscoflow import besov_norm
        from viscoflow.grid import refine_field

        def integral(grid, rho0, d0, T=80.0, samples=900):
            fam = DyadicFamily(grid)
            times = np.linspace(0.0, T, samples)
            vals = np.empty(samples)
            for i, t in enumerate(times):
                _, d = evolve_pair_exact(rho0, d0, "rho_d", SplitViscosity(1.0, 1.0),
                                         float(t))
                vals[i] = besov_norm(d, grid.dim / 2.0 + 1.0, fam)
            total = np.trapezoid(vals, times)
            tail = np.trapezoid(vals[samples // 2:], times[samples // 2:])
            return total, tail

        coarse = Grid(2, 32, length=8.0)
        rng = np.random.default_rng(123)
        rho0 = random_field(coarse, "scalar", rng, band=(0.5, 1.2))
        d0 = random_field(coarse, "scalar", rng, band=(0.5, 1.2))
        total_c, tail_c = integral(coarse, rho0, d0)
        fine = Grid(2, 64, length=8.0)
        total_f, _ = integral(fine, refine_field(rho0, fine), refine_field(d0, fine))
        assert np.isfinite(total_c) and total_c > 0.0
        assert tail_c <= 0.02 * total_c          # Cauchy in T
        assert abs(total_f - total_c) <= 1e-10 * total_c  # grid-stable
