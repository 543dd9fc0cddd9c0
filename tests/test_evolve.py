"""Time evolution: stepper order and hygiene, norm accumulation, the direct
small-data run, and the frozen-coefficient iteration."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from viscoflow import (DyadicFamily, Grid, ModelParams,
                       PressureLaw, PrimitiveState, RunConfig, SpectralField,
                       direct_solve, generate_admissible, mollify,
                       picard_solve, random_field, shear_map,
                       uniform_bound_monitor)
from viscoflow.errors import InputError, StabilityError
from viscoflow.dyadic import besov_norm, hybrid_norm
import viscoflow.evolve as evolve
from viscoflow.evolve import IFStepper, NormSeries, _Sweeps, direct_rhs, initial_bnorm
from viscoflow.grid import cosine_mode
from viscoflow.linear import evolve_pair_exact
from viscoflow.model import FieldTuple, ReformState, assemble_sources, reformulated_rhs, sweep_pass
from viscoflow.operators import SplitViscosity, Viscosity, laplacian


def _params(alpha=2.0):
    # alpha=2 with the quadratic law gives unit elastic coupling
    return ModelParams(Viscosity(1.0, 1.0, 2), alpha, PressureLaw.quadratic())


def _random_prim(grid, rng, amplitude=0.05):
    return PrimitiveState(*(random_field(grid, rank, rng, amplitude=amplitude)
                            for rank in ("scalar", "vector", "matrix")))


def _small_state(grid, amplitude, rng, with_velocity=True):
    k = int(grid.length)
    m1 = shear_map(grid, (k, 0), (0.0, 1.0), 1.0)
    m2 = shear_map(grid, (0, k), (1.0, 0.0), 1.0)
    for m in (m1, m2):
        m.eps = amplitude / max(m.grad_sup(), 1e-300)
    data = generate_admissible(m1, m2)
    if with_velocity:
        data.state.u = random_field(grid, "vector", rng, band=(0.9, 2.1),
                                    amplitude=amplitude)
    return data.state


class TestNormSeries:
    def test_zero_trajectory(self, grid2d):
        ns = NormSeries(grid2d)
        for t in (0.0, 0.5, 1.0):
            ns.record(t, *PrimitiveState.zeros(grid2d))
        assert ns.bnorm() == 0.0
        assert ns.l1_tail_fraction() == 0.0

    def test_accumulators_nondecreasing(self, grid2d, rng):
        ns = NormSeries(grid2d)
        for t in np.linspace(0.0, 1.0, 11):
            ns.record(float(t), *_random_prim(grid2d, rng, amplitude=1.0))
        for acc in list(zip(*ns.table))[7:]:  # acc_rho, acc_u, acc_E
            assert np.all(np.diff(acc) >= 0.0)

    def test_exponential_block_integral(self, grid2d):
        # a single decaying mode: the accumulated integral matches the
        # closed-form integral of the exponential within 0.5 percent
        ns = NormSeries(grid2d)
        rate = 0.5
        zu = SpectralField.zeros(grid2d, "vector")
        zE = SpectralField.zeros(grid2d, "matrix")
        base = cosine_mode(grid2d, (8, 0))
        dt = 0.01
        T = 4.0
        for i in range(int(T / dt) + 1):
            t = i * dt
            ns.record(t, np.exp(-rate * t) * base, zu, zE)
        c0 = hybrid_norm(base, 2.0, 1.0)
        expected = c0 * (1.0 - np.exp(-rate * T)) / rate
        assert ns.table[-1][7] == pytest.approx(expected, rel=5e-3)  # acc_rho

    def test_one_block_profile_per_field(self, grid2d, rng, monkeypatch):
        # both weightings of a sample read one profile per field: one
        # block_l2_profile call each, on the field itself
        calls = []
        profile = DyadicFamily.block_l2_profile

        def counted(fam, f):
            calls.append(f)
            return profile(fam, f)

        monkeypatch.setattr(DyadicFamily, "block_l2_profile", counted)
        prim = _random_prim(grid2d, rng, amplitude=1.0)
        NormSeries(grid2d).record(0.0, *prim)
        assert len(calls) == 3 and all(a is b for a, b in zip(calls, prim))

    @pytest.mark.parametrize("grid_name", ["grid2d", "grid3d"])
    def test_block_ledger_equals_the_per_field_profiles_bitwise(self, grid_name, rng,
                                                                request):
        # each table entry is the weighted sum of its field's block profile,
        # bit for bit, at every scale
        grid = request.getfixturevalue(grid_name)
        fam, s = grid.dyadic, grid.dim / 2.0
        ns = NormSeries(grid)
        for t, exponents in enumerate([(-20, -20, -20), (0, 0, 0), (-20, -10, 0),
                                       (0, -7, -20), (-3, -15, -1)]):
            prim = PrimitiveState(*(random_field(grid, rank, rng, amplitude=10.0 ** e)
                                    for rank, e in zip(("scalar", "vector", "matrix"),
                                                       exponents)))
            ns.record(float(t), *prim)
            for i, (key, f) in enumerate(zip(("rho", "u", "E"), prim)):
                high = None if key == "u" else s
                profile = fam.block_l2_profile(f)
                assert ns.table[-1][1 + i] == fam.weighted_sum(profile, s - 1.0, high)
                assert ns.table[-1][4 + i] == fam.weighted_sum(profile, s + 1.0, high)

    def test_monotone_times_required(self, grid2d):
        ns = NormSeries(grid2d)
        zeros = PrimitiveState.zeros(grid2d)
        ns.record(1.0, *zeros)
        with pytest.raises(InputError):
            ns.record(0.5, *zeros)

    @pytest.mark.parametrize("grid_name", ["grid2d", "grid3d"])
    def test_initial_norm_equals_the_three_block_norms_bitwise(self, grid_name, rng,
                                                               request):
        # the data norm is one sample's instantaneous part: same weights and
        # the same rho + u + E order as the hybrid and homogeneous norms
        grid = request.getfixturevalue(grid_name)
        prim = _random_prim(grid, rng)
        s = grid.dim / 2.0
        want = (hybrid_norm(prim.rho, s - 1.0, s) + besov_norm(prim.u, s - 1.0)
                + hybrid_norm(prim.E, s - 1.0, s))
        assert initial_bnorm(prim) == want


class TestRunConfig:
    def test_needs_one_sweep(self):
        # zero sweeps used to end in an IndexError in uniform_bound_monitor
        with pytest.raises(InputError, match="picard_iterations"):
            RunConfig(_params(), dt=0.02, t_final=0.2, picard_iterations=0)

    @pytest.mark.parametrize("dt,t_final", [(0.02, 0.25), (0.02, 0.005),
                                            (float("nan"), 1.0), (0.02, float("inf")),
                                            (-0.02, 0.2)])
    def test_rejects_a_final_time_it_cannot_reach(self, dt, t_final):
        with pytest.raises(InputError, match="t_final"):
            RunConfig(_params(), dt=dt, t_final=t_final)

    @pytest.mark.parametrize("dt,t_final,steps", [(0.02, 0.2, 10), (0.005, 0.05, 10),
                                                  (0.02, 0.5, 25), (0.02, 20.0, 1000)])
    def test_whole_step_counts(self, dt, t_final, steps):
        assert RunConfig(_params(), dt=dt, t_final=t_final).n_steps == steps


class TestStepper:
    def test_zero_state_fixed_point(self, grid2d):
        cfg = RunConfig(_params(), dt=0.05, t_final=0.5)
        out = IFStepper(grid2d, cfg).step(direct_rhs(cfg), ReformState.zeros(grid2d), 0)
        assert out.rho.l2() == out.d.l2() == out.omega.l2() == out.E.l2() == 0.0

    def test_linear_regime_local_order(self, grid2d):
        # one step against the exact compressible-pair propagator: the
        # explicit coupling carries an O(dt^3) local error, so halving dt
        # shrinks the one-step defect by about 8
        amp = 1e-8
        rho = cosine_mode(grid2d, (8, 0), amp)
        d = cosine_mode(grid2d, (8, 0), amp, phase="sin")
        errs = []
        for dt in (0.1, 0.05):
            cfg = RunConfig(_params(), dt=dt, t_final=1.0)
            state = ReformState.zeros(grid2d)
            state.rho, state.d = rho, d
            out = IFStepper(grid2d, cfg).step(direct_rhs(cfg), state, 0)
            ex_rho, ex_d = evolve_pair_exact(rho, d, "rho_d",
                                             SplitViscosity(3.0, 1.0), dt)
            err = np.sqrt((out.rho - ex_rho).l2() ** 2 + (out.d - ex_d).l2() ** 2)
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 6.0 <= ratio <= 10.0

    def test_self_convergence_second_order(self, grid2d, rng):
        # small data: halving dt reduces the final-state error by ~4
        prim = _small_state(grid2d, 1e-2, rng)
        finals = {}
        for dt in (0.04, 0.02, 0.01):
            cfg = RunConfig(_params(), dt=dt, t_final=0.4)
            finals[dt] = direct_solve(prim, cfg).final
        def dist(a, b):
            return np.sqrt((a.rho - b.rho).l2() ** 2 + (a.d - b.d).l2() ** 2
                           + (a.omega - b.omega).l2() ** 2 + (a.E - b.E).l2() ** 2)
        e1 = dist(finals[0.04], finals[0.01])
        e2 = dist(finals[0.02], finals[0.01])
        # with the dt/4 run as reference, second order gives a factor ~4.8
        assert e1 / e2 > 3.0

    def test_hygiene_preserved_many_steps(self, grid2d, rng):
        prim = _small_state(grid2d, 1e-2, rng)
        cfg = RunConfig(_params(), dt=0.02, t_final=1.0)
        result = direct_solve(prim, cfg)
        final = result.final
        for f in (final.rho, final.d, final.omega, final.E):
            assert np.max(np.abs(f.mean_values())) < 1e-16
        # Omega is stored by its one i < j entry
        assert final.omega.coeff.shape == grid2d.spectral_shape

    def test_cfl_guard(self, grid2d):
        big_u = cosine_mode(grid2d, (1, 0), 50.0, rank="vector", component=(1,))
        prim = PrimitiveState(SpectralField.zeros(grid2d, "scalar"), big_u,
                              SpectralField.zeros(grid2d, "matrix"))
        cfg = RunConfig(_params(), dt=0.1, t_final=0.5)
        with pytest.raises(StabilityError):
            direct_solve(prim, cfg)


class TestManufacturedSolution:
    """The stepper's order on a known trajectory (Roache, J. Fluids Eng.
    124:4, 2002): X(t) = cos(t) A + sin(t) B, A and B mean-zero split states
    inside the dealias band, solves dX/dt = F(X) + f(t) with f = X' - F(X)
    and F the full split system (``reformulated_rhs`` with its viscous
    diagonal).  So the run loop marching ``direct_rhs`` plus f at each
    stage's node time ends at X(T) up to its time error.  The Picard sweeps
    add f the same way, with F less the rotation correction their sources
    leave out, so the iteration's limit is X itself."""

    @staticmethod
    def _problem(grid, amplitude, dt, rotation_correction=True):
        """The parameters, the primitive data of X(0), X(t) and the forcing
        at a node (built once per node)."""
        rng = np.random.default_rng(5)  # the same A and B at every dt and amplitude
        params = ModelParams(Viscosity(1.0, 1.0, grid.dim), 2.0, PressureLaw.quadratic())
        data = _random_prim(grid, rng, amplitude)
        A = ReformState.from_primitive(data).block
        B = ReformState.from_primitive(_random_prim(grid, rng, amplitude)).block
        forcing = {}

        def exact(t):
            return ReformState.of_block(grid, np.cos(t) * A + np.sin(t) * B)

        def force(node):
            if node not in forcing:
                t = node * dt
                F = reformulated_rhs(exact(t), params, rotation_correction).block
                forcing[node] = np.cos(t) * B - np.sin(t) * A - F
            return forcing[node]
        return params, data, exact, force

    @staticmethod
    def _relative_error(final, exact, t_final):
        want = exact(t_final).block
        return np.linalg.norm(final.block - want) / np.linalg.norm(want)

    @classmethod
    def _error(cls, grid, amplitude, dt, t_final):
        """Relative error of the direct run's final block against X(t_final)."""
        params, data, exact, force = cls._problem(grid, amplitude, dt)
        cfg = RunConfig(params, dt, t_final)
        direct = direct_rhs(cfg)

        def nonstiff(state, node, u=None):
            return ReformState.of_block(grid, direct(state, node, u).block + force(node))
        *_, (_, final, _) = evolve._march(IFStepper(grid, cfg), nonstiff, exact(0.0), cfg.n_steps)
        return cls._relative_error(final, exact, t_final)

    @classmethod
    def _picard_error(cls, grid, dt, t_final, monkeypatch):
        """Relative error of the last sweep's final block against X(t_final),
        every sweep starting from X(0) (no mollified data)."""
        params, data, exact, force = cls._problem(grid, 1e-2, dt, rotation_correction=False)
        runs = []

        class Forced(_Sweeps):
            # sweep s is at node tau - s at stage 1 of tick tau, and one
            # node on at stage 2; each member of a group gets its own forcing
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

            def _stage1(self, sweeps, tau):
                k1, sweeps = super()._stage1(sweeps, tau)
                for member, s in zip(k1 if sweeps else (), sweeps):
                    member += force(tau - s)
                return k1, sweeps

            def _stage2(self, sweeps, tau, pred):
                k2 = super()._stage2(sweeps, tau, pred)
                for member, s in zip(k2, sweeps):
                    member += force(tau - s + 1)
                return k2
        monkeypatch.setattr(evolve, "_Sweeps", Forced)
        cfg = RunConfig(params, dt, t_final, picard_iterations=4, init_mollified=False)
        res = picard_solve(data, cfg)
        assert len(runs) == 1 and len(res.final_states) == 4
        # sweep 4 records its last node at tick n + 3, in that tick's slot
        final = ReformState.of_block(grid, runs[0].x[(cfg.n_steps + 3) % 2, 3])
        return cls._relative_error(final, exact, t_final)

    @pytest.mark.parametrize("dim, t_final, dts, bound", [
        (2, 1.0, (0.04, 0.02, 0.01), 5e-3),   # 2-D n=32: 4.24e-3, ratios 3.71 and 3.85
        (3, 0.2, (0.02, 0.01), 1.1e-3),       # 3-D n=16: 8.92e-4, ratio 3.84
    ])
    def test_second_order_under_dt_halving(self, grid2d, grid3d, dim, t_final, dts, bound):
        grid = grid2d if dim == 2 else grid3d
        errors = [self._error(grid, 1e-2, dt, t_final) for dt in dts]
        assert errors[0] <= bound
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_error_does_not_depend_on_the_amplitude(self, grid2d):
        # the linear couplings make the whole time error: 4.238e-3 and 4.266e-3
        small, large = (self._error(grid2d, amp, 0.04, 1.0) for amp in (1e-2, 1e-1))
        assert abs(large / small - 1.0) <= 0.02

    def test_picard_limit_is_the_exact_trajectory(self, grid2d, monkeypatch):
        # 2-D n=32, 4 sweeps: 4.24e-3, ratios 3.71 and 3.85, the direct run's
        # time error; sweeps 3 and 4 end about 1e-8 apart, far below it
        errors = [self._picard_error(grid2d, dt, 1.0, monkeypatch) for dt in (0.04, 0.02, 0.01)]
        assert errors[0] <= 5e-3
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5


class TestBlockStepper:
    """The stepper on one coefficient block per state against the per-field
    IFRK2 rule, written out here field by field."""

    @staticmethod
    def _reference_step(state, k1, k2, cfg, grid):
        # Heun: pred = D(x + dt k1), new = D(x + dt/2 k1) + dt/2 k2, with D the
        # viscous factors on d and Omega; then means zero
        dt, p = cfg.dt, cfg.params
        factor = {"d": np.exp(-p.nu * grid.xi_sq * dt), "omega": np.exp(-p.mu * grid.xi_sq * dt)}
        names = ("rho", "d", "omega", "E")

        def damp(name, c):
            return c * factor[name] if name in factor else c

        x = {n: getattr(state, n).coeff for n in names}
        a = {n: getattr(k1, n).coeff for n in names}
        b = {n: getattr(k2, n).coeff for n in names}
        pred = {n: damp(n, x[n] + a[n] * dt) for n in names}
        new = {n: damp(n, x[n] + a[n] * (0.5 * dt)) + b[n] * (0.5 * dt) for n in names}
        for n in names:
            new[n] = new[n].copy()
            new[n][(Ellipsis,) + (0,) * grid.dim] = 0.0
        return pred, new

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_step_equals_the_per_field_rule(self, rng, dim, grid2d, grid3d):
        grid = grid2d if dim == 2 else grid3d
        # nonzero means, so that the mean pass acts
        ranks = [f.rank for f in ReformState.zeros(grid)]
        state, k1, k2 = (ReformState(*(random_field(grid, r, rng, mean_zero=False) for r in ranks))
                         for _ in range(3))
        kept = [s.block.copy() for s in (state, k1, k2)]
        calls = []

        def fixed(s, node, u=None):
            calls.append((s.block.copy(), node, u))
            return (k1, k2)[node]

        cfg = RunConfig(_params(), dt=0.05, t_final=0.5)
        u = state.velocity()
        out = IFStepper(grid, cfg).step(fixed, state, 0, u)
        pred, new = self._reference_step(state, k1, k2, cfg, grid)
        for name in ("rho", "d", "omega", "E"):
            assert np.array_equal(getattr(out, name).coeff, new[name]), name
            stage2 = ReformState.of_block(grid, calls[1][0])
            assert np.array_equal(getattr(stage2, name).coeff, pred[name]), name
        # stage 1 gets the state and its velocity, stage 2 the predictor alone
        assert calls[0][1:] == (0, u) and calls[1][1:] == (1, None)
        assert np.array_equal(calls[0][0], kept[0])
        # nothing handed to the stepper is written
        for s, block in zip((state, k1, k2), kept):
            assert s.block.tobytes() == block.tobytes()
        assert not np.shares_memory(out.block, state.block)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_direct_nonstiff_is_the_full_system_less_the_viscous_diagonal(
            self, rng, dim, grid2d, grid3d):
        grid = grid2d if dim == 2 else grid3d
        params = ModelParams(Viscosity(1.0, 0.5, dim), 1.3, PressureLaw.quadratic())
        state = ReformState.from_primitive(_random_prim(grid, rng))
        full = reformulated_rhs(state, params)
        got = direct_rhs(RunConfig(params, 0.01, 0.01))(state, 0)
        want = {"rho": full.rho, "d": full.d - params.nu * laplacian(state.d),
                "omega": full.omega - params.mu * laplacian(state.omega), "E": full.E}
        for name, w in want.items():
            assert (getattr(got, name) - w).l2() <= 1e-14 * w.l2(), name

    def test_stage_one_reuses_the_march_velocity(self, grid2d, rng, monkeypatch):
        # one reconstruction per recorded state and one per predictor: the
        # stage-1 right-hand side takes the velocity the run loop holds
        import viscoflow.model as model
        calls = []
        reconstruct = model.helmholtz_velocity

        def counted(grid, d, om):
            calls.append(1)
            return reconstruct(grid, d, om)
        monkeypatch.setattr(model, "helmholtz_velocity", counted)
        cfg = RunConfig(_params(), dt=0.02, t_final=0.06)
        direct_solve(_small_state(grid2d, 1e-2, rng), cfg)
        assert len(calls) == (cfg.n_steps + 1) + cfg.n_steps

    def test_hand_on_leaves_the_frozen_terms_unchanged(self, grid2d, rng):
        # given the run loop's velocity, a middle sweep's stage-1 pass is also
        # its source pass for the next sweep; its frozen terms keep every bit
        # of the pass that only convects, and it writes the plain sources
        params = _params()
        sources, samples = assemble_sources(ReformState.from_primitive(_random_prim(grid2d, rng)),
                                            params)
        frozen = (sources.block[None], samples[None])
        state = ReformState.from_primitive(_random_prim(grid2d, rng))
        plain, fault, (none, _) = sweep_pass(grid2d, params, state.block[None], None, 0, frozen)
        assert fault is None and len(none) == 0
        out = (np.full((1,) + state.block.shape, np.nan + 0j),
               np.full((1, 2) + (grid2d.n,) * 2, np.nan))
        terms, fault, _ = sweep_pass(grid2d, params, state.block[None],
                                     state.velocity().coeff[None], 1, frozen, out)
        assert fault is None
        assert terms.tobytes() == plain.tobytes()
        want, want_samples = assemble_sources(state, params)
        assert out[0][0].tobytes() == want.block.tobytes()
        assert out[1][0].tobytes() == want_samples.tobytes()


class TestDirectRun:
    def test_small_data_stays_bounded(self, rng):
        grid = Grid(2, 32, length=8.0)
        prim = _small_state(grid, 1e-2, rng)
        cfg = RunConfig(_params(), dt=0.02, t_final=4.0)
        result = direct_solve(prim, cfg)
        assert result.norms.sup_instant() <= 10.0 * result.initial_norm
        assert np.isfinite(result.measured_gain)

    def test_rho_bound_guard(self, grid2d):
        rho = SpectralField.from_physical(
            grid2d, 0.7 * np.cos(grid2d.meshgrid()[0] / 8.0))
        prim = PrimitiveState(rho.project_mean_zero(),
                              SpectralField.zeros(grid2d, "vector"),
                              SpectralField.zeros(grid2d, "matrix"))
        cfg = RunConfig(_params(), dt=0.02, t_final=0.2)
        with pytest.raises(StabilityError,
                           match=r"^step 1: density perturbation sup .* in field rho$"):
            direct_solve(prim, cfg)

    @pytest.mark.parametrize("field", ["rho", "E"])
    def test_non_finite_state_names_step_and_field(self, grid2d, rng, field):
        # nan > limit is False: a blown-up state must still stop the run
        prim = _small_state(grid2d, 1e-3, rng)
        getattr(prim, field).coeff[(Ellipsis,) + (1,) * grid2d.dim] = np.nan
        cfg = RunConfig(_params(), dt=0.02, t_final=0.2)
        with pytest.raises(StabilityError, match=rf"step 1: .*field {field}$"):
            direct_solve(prim, cfg)

    def test_cfl_guard_rejects_nan_velocity(self, grid2d, rng):
        state = ReformState.from_primitive(_small_state(grid2d, 1e-3, rng))
        state.d.coeff[1, 1] = np.nan
        cfg = RunConfig(_params(), dt=0.02, t_final=0.2)
        with pytest.raises(StabilityError, match="CFL.* in field u$"):
            IFStepper(grid2d, cfg).check_cfl(state.velocity())


class TestMollify:
    def test_full_range_recovers_the_state(self, grid2d, rng):
        fam = DyadicFamily(grid2d)
        prim = _random_prim(grid2d, rng)
        count = max(abs(fam.q_lo), abs(fam.q_hi))
        out = mollify(prim, count)
        assert type(out) is PrimitiveState
        assert np.linalg.norm(out.block - prim.block) <= 1e-12 * np.linalg.norm(prim.block)

    def test_zero_count_keeps_central_blocks(self, grid2d):
        f = cosine_mode(grid2d, (8, 0))  # lives in blocks -1, 0
        prim = PrimitiveState.zeros(grid2d)
        prim.rho = f
        prim.u.coeff[0] = f.coeff
        g = mollify(prim, 0)
        # only the q=0 share survives, by the same multiplier in every field
        assert 0.0 < g.rho.l2() < f.l2()
        assert g.u.coeff[0].tobytes() == g.rho.coeff.tobytes()
        assert not g.u.coeff[1].any() and not g.E.coeff.any()


class TestPicard:
    def test_zero_data_zero_iterates(self, grid2d):
        zero = PrimitiveState(SpectralField.zeros(grid2d, "scalar"),
                              SpectralField.zeros(grid2d, "vector"),
                              SpectralField.zeros(grid2d, "matrix"))
        cfg = RunConfig(_params(), dt=0.05, t_final=0.25, picard_iterations=3)
        res = picard_solve(zero, cfg)
        assert all(ns.bnorm() == 0.0 for ns in res.iterate_norms)
        assert all(u == 0.0 for u in res.differences)

    def test_first_difference_is_the_first_sweep_norm(self, rng):
        # sweep 0 is the zero trajectory, so the first difference is sweep 1
        # itself: the same samples, recorded in the same order
        grid = Grid(2, 32, length=8.0)
        prim = _small_state(grid, 1e-2, rng)
        cfg = RunConfig(_params(), dt=0.02, t_final=0.1, picard_iterations=2)
        res = picard_solve(prim, cfg)
        assert res.differences[0] == res.iterate_norms[0].bnorm() > 0.0

    def test_a_tick_reads_one_slot_and_writes_the_other(self, rng, monkeypatch):
        # the sweeps keep each node once, in two-slot rings, with no copy: a
        # tick leaves every byte of the slot it reads (the previous tick's
        # nodes, velocities and handed-on pairs) as it was, and the data are
        # never written
        grid = Grid(2, 16, length=2.0)
        prim = _small_state(grid, 1e-2, rng)
        cfg = RunConfig(_params(), dt=0.02, t_final=0.1, picard_iterations=3)
        want = picard_solve(prim, cfg)
        tick, ticks = _Sweeps.tick, []

        def guarded(self, tau):
            read = [ring[(tau - 1) % 2] for ring in (self.x, self.u, self.sources, self.samples)]
            before = [a.tobytes() for a in read]
            tick(self, tau)
            assert [a.tobytes() for a in read] == before
            ticks.append(tau)
        monkeypatch.setattr(_Sweeps, "tick", guarded)
        prim.block.setflags(write=False)
        got = picard_solve(prim, cfg)
        assert ticks == list(range(cfg.n_steps + 3 + 1))
        assert got.differences == want.differences and len(got.differences) == 3
        for a, b in zip(got.final_states, want.final_states, strict=True):
            assert a.block.tobytes() == b.block.tobytes()

    @pytest.mark.parametrize("solve", [direct_solve, picard_solve])
    def test_one_stepper_per_run(self, rng, monkeypatch, solve):
        # every sweep marches with the run's one stepper and its damping block
        built = []
        init = IFStepper.__init__

        def counted(self, grid, config):
            built.append(self)
            init(self, grid, config)
        monkeypatch.setattr(IFStepper, "__init__", counted)
        grid = Grid(2, 16, length=2.0)
        cfg = RunConfig(_params(), dt=0.02, t_final=0.1, picard_iterations=4)
        solve(_small_state(grid, 1e-2, rng), cfg)
        assert len(built) == 1

    def test_primitive_states_do_not_grow_with_the_steps(self, rng, monkeypatch):
        # the sweeps copy no node into a PrimitiveState: one mollified start
        # and one final state per sweep, whatever the step count
        grid = Grid(2, 16, length=2.0)
        prim = _small_state(grid, 1e-2, rng)
        built = []
        bind = FieldTuple._bind

        def counted(self, grid, block):
            built.append(type(self))
            bind(self, grid, block)
        monkeypatch.setattr(FieldTuple, "_bind", counted)
        counts = []
        for steps in (5, 20):
            built.clear()
            picard_solve(prim, RunConfig(_params(), dt=0.02, t_final=0.02 * steps,
                                         picard_iterations=3))
            counts.append(built.count(PrimitiveState))
        assert counts == [6, 6]

    def test_linear_regime_rapid_settling(self, rng):
        # tiny data: quadratic sources are negligible, so successive sweeps
        # coincide as soon as the mollification window covers the data
        grid = Grid(2, 32, length=8.0)
        prim = _small_state(grid, 1e-8, rng)
        cfg = RunConfig(_params(), dt=0.02, t_final=0.3, picard_iterations=7)
        res = picard_solve(prim, cfg)
        assert res.differences[6] <= 1e-8 * max(res.iterate_norms[-1].bnorm(), 1e-30)

    def test_contraction_small_data(self, rng):
        grid = Grid(2, 32, length=8.0)
        prim = _small_state(grid, 1e-2, rng)
        cfg = RunConfig(_params(), dt=0.01, t_final=1.0, picard_iterations=6)
        res = picard_solve(prim, cfg)
        # geometric decrease from the second difference on
        for r in res.ratios[1:]:
            assert r <= 0.9
        mon = uniform_bound_monitor(res)
        assert not mon["flagged"]
        assert mon["gain"] > 0.0

    def test_picard_limit_matches_direct(self, rng):
        grid = Grid(2, 32, length=8.0)
        prim = _small_state(grid, 1e-3, rng)
        cfg = RunConfig(_params(), dt=0.005, t_final=1.0, picard_iterations=6)
        pic = picard_solve(prim, cfg)
        # direct run without the rotation correction: the iteration sources
        # omit it, so the comparable dynamics do too
        cfg2 = RunConfig(_params(), dt=0.005, t_final=1.0,
                         rotation_correction=False)
        direct = direct_solve(prim, cfg2)
        last = pic.final_states[-1]
        fin = direct.final.to_primitive()
        num = np.sqrt((last.rho - fin.rho).l2() ** 2 + (last.u - fin.u).l2() ** 2
                      + (last.E - fin.E).l2() ** 2)
        den = np.sqrt(fin.rho.l2() ** 2 + fin.u.l2() ** 2 + fin.E.l2() ** 2)
        assert num / den <= 1e-6

    def test_gain_agrees_across_amplitudes(self, rng):
        # linear-response regime: the measured gain constant is amplitude-free
        grid = Grid(2, 32, length=8.0)
        gains = []
        for amp in (1e-3, 1e-2):
            prim = _small_state(grid, amp, np.random.default_rng(17))
            cfg = RunConfig(_params(), dt=0.02, t_final=0.5, picard_iterations=3)
            res = picard_solve(prim, cfg)
            mon = uniform_bound_monitor(res)
            gains.append(mon["gain"])
        assert abs(gains[1] - gains[0]) <= 0.2 * gains[0]

    def test_divergence_guard_on_large_data(self, rng):
        # deliberately large data (flow maps cannot even represent it): the
        # run must flag the violated smallness hypothesis, not grind on
        grid = Grid(2, 32, length=8.0)
        rho = random_field(grid, "scalar", rng, band=(0.9, 2.1), amplitude=1.0)
        rho = (0.4 / max(np.max(np.abs(rho.to_physical())), 1e-30)) * rho
        prim = PrimitiveState(rho,
                              random_field(grid, "vector", rng, band=(0.9, 2.1),
                                           amplitude=3.0),
                              random_field(grid, "matrix", rng, band=(0.9, 2.1),
                                           amplitude=0.5))
        cfg = RunConfig(_params(), dt=0.01, t_final=0.5, picard_iterations=5)
        with pytest.raises(StabilityError):
            picard_solve(prim, cfg)

    def test_non_finite_data_names_the_sweep(self, rng):
        # nan > limit is False: a NaN sweep must not pass the divergence check
        grid = Grid(2, 32, length=8.0)
        prim = _small_state(grid, 1e-3, rng)
        prim.rho.coeff[1, 1] = np.nan
        cfg = RunConfig(_params(), dt=0.02, t_final=0.1, picard_iterations=3)
        with pytest.raises(StabilityError, match=r"^sweep 1: "):
            picard_solve(prim, cfg)

    def test_picard_limit_matches_direct_3d(self):
        # a 3-D sweep's Omega leaves the range of |grad|^-1 curl; the sources
        # and the sweep's convection read the same stored Omega, so the two
        # cancel at the fixed point as in 2-D
        grid = Grid(3, 16, length=2.0)
        params = ModelParams(Viscosity(1.0, 1.0, 3), 2.0, PressureLaw.quadratic())
        rng = np.random.default_rng(5)
        prim = PrimitiveState(*(random_field(grid, rank, rng, band=(0.9, 2.1), amplitude=1e-3)
                                for rank in ("scalar", "vector", "matrix")))
        pic = picard_solve(prim, RunConfig(params, dt=0.005, t_final=0.25, picard_iterations=6))
        direct = direct_solve(prim, RunConfig(params, dt=0.005, t_final=0.25,
                                              rotation_correction=False))
        last, fin = pic.final_states[-1], direct.final.to_primitive()
        num = np.sqrt(sum((a - b).l2() ** 2 for a, b in zip(last, fin)))
        den = np.sqrt(sum(b.l2() ** 2 for b in fin))
        assert num / den <= 1e-6


class TestStreamedSweeps:
    """The sweeps march together, each one node behind the one before, and
    keep a window of nodes: memory does not grow with the step count."""

    @staticmethod
    def _run(steps, monkeypatch):
        """Peak live state blocks and peak traced bytes of one 3-sweep run."""
        grid = Grid(2, 64, length=8.0)
        prim = _small_state(grid, 1e-2, np.random.default_rng(3))
        cfg = RunConfig(_params(), dt=0.01, t_final=0.01 * steps, picard_iterations=3)
        picard_solve(prim, cfg)  # the grid's caches and workspace at full size
        live, peak = [0], [0]
        bind = FieldTuple._bind

        def release():
            live[0] -= 1

        def counted(self, grid, block):
            bind(self, grid, block)
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            weakref.finalize(self, release)
        monkeypatch.setattr(FieldTuple, "_bind", counted)
        tracemalloc.start()
        try:
            picard_solve(prim, cfg)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        return peak[0], traced, ReformState.block_shape(grid)

    def test_memory_does_not_grow_with_the_steps(self, monkeypatch):
        blocks_10, traced_10, shape = self._run(10, monkeypatch)
        blocks_40, traced_40, _ = self._run(40, monkeypatch)
        assert blocks_40 <= blocks_10
        # the norm series grow by a few floats a node; one state block is
        # 7 rows of the spectrum, and the unstreamed sweeps kept 2 x 30 more
        block_bytes = 16 * int(np.prod(shape))
        assert traced_40 - traced_10 <= block_bytes

    def test_memory_is_freed_without_the_cycle_collector(self, rng):
        grid = Grid(2, 32, length=8.0)
        prim = _small_state(grid, 1e-2, rng)
        cfg = RunConfig(_params(), dt=0.01, t_final=0.1, picard_iterations=4)
        picard_solve(prim, cfg)  # the grid's caches and workspace at full size
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = picard_solve(prim, cfg)
            assert len(res.final_states) == 4
            del res
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left <= 16 * int(np.prod(ReformState.block_shape(grid)))

    def test_lowest_failing_sweep_is_reported(self, rng, monkeypatch):
        # sweep 3 fails first in wall time, at its stage 1 of step 2; sweep 2
        # fails later, in its final source pass, while sweep 1 runs to its end
        # and sweep 4 stops with sweep 3.  At n = 16 the four sweeps make one
        # group, so each NaN sits in one member of a group's pass
        events = []
        group, finish = _Sweeps._group, _Sweeps._finish

        def failing_group(self, sweeps, tau):
            events.append(("group", tau, tuple(sweeps)))
            if 3 in sweeps and tau - 3 == 1:  # sweep 3 at node 1
                self.x[(tau - 1) % 2, 2, 0, 1, 1] = np.nan
                events.append("sweep 3 failed")
            return group(self, sweeps, tau)

        def failing_finish(self, s, tau):
            events.append(("final", s))
            if s == 2:  # its last node, after the divergence check read the ledger
                self.x[(tau - 1) % 2, 1, 0, 1, 1] = np.nan
            return finish(self, s, tau)
        monkeypatch.setattr(_Sweeps, "_group", failing_group)
        monkeypatch.setattr(_Sweeps, "_finish", failing_finish)
        grid = Grid(2, 16, length=2.0)
        cfg = RunConfig(_params(), dt=0.02, t_final=0.1, picard_iterations=4)
        with pytest.raises(StabilityError,
                           match=r"^sweep 2: step 5: non-finite samples in field rho$") as err:
            picard_solve(_small_state(grid, 1e-2, rng), cfg)
        assert str(err.value.__cause__) == "step 5: non-finite samples in field rho"
        failed = events.index("sweep 3 failed")
        assert events[failed - 1] == ("group", 4, (1, 2, 3, 4))
        assert ("final", 1) in events[failed:]
        assert events[-1] == ("final", 2)
        assert not any(e[0] == "group" and ({3, 4} & set(e[2])) for e in events[failed + 1:])
        # sweeps 1 and 2 stepped on after sweep 3 failed in their group
        assert ("group", 5, (1, 2)) in events[failed:]

    @pytest.mark.parametrize("member, message", [
        (1, "step 3: non-finite samples in field u"),
        (2, "step 3: non-finite samples in field u"),
        (3, "step 3: non-finite samples in field u"),
        # the last sweep's stage 1 only convects and scans nothing, as before
        # the sweeps were grouped: its divergence check stops it
        (4, "iterate norm nan exceeds 10.0 x data norm; small-data hypothesis violated"),
    ])
    def test_nan_in_one_member_names_that_sweep(self, rng, monkeypatch, member, message):
        # a NaN in one member's velocity, at its stage-1 pass of step 3, in
        # the one group of four sweeps: the error names that member
        group = _Sweeps._group

        def poisoned(self, sweeps, tau):
            if member in sweeps and tau - member == 2:
                self.u[(tau - 1) % 2, member - 1, 0, 1, 1] = np.nan
            return group(self, sweeps, tau)
        monkeypatch.setattr(_Sweeps, "_group", poisoned)
        grid = Grid(2, 16, length=2.0)
        cfg = RunConfig(_params(), dt=0.02, t_final=0.1, picard_iterations=4)
        with pytest.raises(StabilityError) as err:
            picard_solve(_small_state(grid, 1e-2, rng), cfg)
        assert str(err.value) == f"sweep {member}: {message}"


class TestLockStepSweeps:
    """The sweeps advance in lock step, and sweep s reads only the sweeps
    before it, so neither the later sweeps nor the grouping of the sweeps
    into batched passes may change a bit of its results."""

    @staticmethod
    def _case(dim):
        """Data and the config of a k-sweep run, in 2-D n=32 (13 steps, so
        the CFL check runs twice) or 3-D n=16 (4 steps)."""
        if dim == 2:
            grid = Grid(2, 32, length=8.0)
            prim = _small_state(grid, 1e-2, np.random.default_rng(9))
            params, dt, steps = _params(), 0.01, 13
        else:
            grid = Grid(3, 16, length=2.0)
            rng = np.random.default_rng(5)
            prim = PrimitiveState(*(random_field(grid, rank, rng, band=(0.9, 2.1),
                                                 amplitude=1e-3)
                                    for rank in ("scalar", "vector", "matrix")))
            params = ModelParams(Viscosity(1.0, 1.0, 3), 2.0, PressureLaw.quadratic())
            dt, steps = 0.005, 4
        return prim, lambda sweeps: RunConfig(params, dt, dt * steps, picard_iterations=sweeps)

    @staticmethod
    def _assert_prefix(part, full):
        k = len(part.iterate_norms)
        assert [ns.table for ns in part.iterate_norms] == \
            [ns.table for ns in full.iterate_norms[:k]]
        assert part.differences == full.differences[:k]
        assert part.ratios == full.ratios[:k - 1]
        for a, b in zip(part.final_states, full.final_states[:k], strict=True):
            assert np.array_equal(a.block, b.block)
            assert a.block.tobytes() == b.block.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_first_sweeps_are_a_shorter_run(self, dim):
        # the last sweep of a k-sweep run hands nothing on and convects on
        # its own; in a longer run it also assembles its successor's sources
        prim, config = self._case(dim)
        full = picard_solve(prim, config(6))
        assert len(full.iterate_norms) == 6
        for k in (1, 2, 5):
            self._assert_prefix(picard_solve(prim, config(k)), full)

    @pytest.mark.parametrize("dim, width", [(2, 3), (3, 1)])
    def test_group_width_moves_no_bit(self, dim, width, monkeypatch):
        # one sweep per group, and all six in one group, against the default
        # budget: 3 sweeps a group at 2-D n=32 and 1 at 3-D n=16
        prim, config = self._case(dim)
        built = []
        init = _Sweeps.__init__

        def counted(self, *args):
            init(self, *args)
            built.append(self.width)
        monkeypatch.setattr(_Sweeps, "__init__", counted)
        want = picard_solve(prim, config(6))
        for budget in (1, 1 << 40):
            monkeypatch.setattr(evolve, "GROUP_BYTES", budget)
            self._assert_prefix(picard_solve(prim, config(6)), want)
        assert built[:2] == [width, 1] and built[2] >= 6

    def test_transforms_per_run(self, rng):
        # 2-D n=16, 4 sweeps, 12 steps: the grouping moves no transform, and
        # the budget puts every sweep in one group, so a tick makes one
        # stage-1 pass (15 ticks step a sweep) and one stage-2 pass (14 ticks
        # step a sweep with frozen terms), each an inverse and a forward
        grid = Grid(2, 16, length=2.0)
        cfg = RunConfig(_params(), dt=0.01, t_final=0.12, picard_iterations=4)
        prim = _small_state(grid, 1e-2, rng)
        before = grid.transforms, grid.transform_passes
        picard_solve(prim, cfg)
        # per step: sweep 1 40 (its sources), sweeps 2 and 3 47 + 21 (sources
        # with the frozen convection, and the stage-2 convection), sweep 4
        # 21 + 21; the 3 final source passes 40 each, and 8 CFL checks 2
        assert grid.transforms - before[0] == 12 * (40 + 2 * 68 + 42) + 3 * 40 + 8 * 2 == 2752
        # one pass per sweep and stage made 2 * (48 + 36 + 3) + 8 = 182
        assert grid.transform_passes - before[1] == 2 * (15 + 14 + 3) + 8 == 72
