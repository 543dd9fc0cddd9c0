"""Pressure law, source assembly, and the agreement between the primitive
and split evolution paths on admissible data."""

import copy
import math
import pickle
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import viscoflow
from viscoflow import (Grid, ModelParams, PressureLaw,
                       PrimitiveState, SpectralField, assemble_sources,
                       deformation_identity_gap,
                       dual_path_gap, generate_admissible, primitive_rhs, random_field,
                       reformulated_rhs, shear_map)
from viscoflow.constraints import transport_rhs, transport_simulate
from viscoflow.errors import InputError, StabilityError
from viscoflow.evolve import RunConfig, _Sweeps, direct_rhs
from viscoflow.grid import cosine_mode, dealias_physical, fine_grid_product, refine_field
from viscoflow.linear import linear_rhs
from viscoflow.model import (FieldTuple, HelmholtzState, PhysicalBundle, ReformState,
                             rotation_correction, rotation_from_products, split_state,
                             sweep_pass_bytes)
from viscoflow.operators import (SplitViscosity, Viscosity, convect,
                                 divergence, gradient, inverse_mag_times,
                                 jacobian, lame_operator, laplacian, helmholtz_split,
                                 pair_rows, SKEW_SHAPE, skew_field, transpose_gap,
                                 symmetric_scalar, _pairs)


def _random_state(grid, rng, amplitude=0.05):
    return PrimitiveState(random_field(grid, "scalar", rng, amplitude=amplitude),
                          random_field(grid, "vector", rng, amplitude=amplitude),
                          random_field(grid, "matrix", rng, amplitude=amplitude))


def _params(dim=2, mu=1.0, lam=1.0, alpha=1.0, law=None):
    return ModelParams(Viscosity(mu, lam, dim), alpha, law or PressureLaw.quadratic())


def _sweep_after(params, state):
    """Sweep 2's stage-2 right-hand side (``_Sweeps._stage2``, a group of
    one at tick 2), with the pair sweep 1 hands on assembled at ``state``:
    a function of the predictor."""
    grid = state.grid
    run = _Sweeps(grid, PrimitiveState.zeros(grid), RunConfig(params, 0.01, 0.01,
                                                              picard_iterations=2), 1.0)
    sources, samples = assemble_sources(state, params)
    run.sources[0, 0], run.samples[0, 0] = sources.block, samples  # the slot of tick 2
    return lambda pred: ReformState.of_block(grid, run._stage2(range(2, 3), 2, pred.block[None])[0])


def _admissible(grid, eps, u_amp=0.0, rng=None):
    m1 = shear_map(grid, (int(grid.length), 0), (0.0, 1.0), eps)
    m2 = shear_map(grid, (0, int(grid.length)), (1.0, 0.0), 0.8 * eps)
    data = generate_admissible(m1, m2)
    if u_amp and rng is not None:
        data.state.u = random_field(grid, "vector", rng, band=(0.9, 2.1),
                                    amplitude=u_amp)
    return data.state


class TestFieldTuple:
    def _states(self, grid, rng):
        prim = _random_state(grid, rng)
        return [prim, ReformState.from_primitive(prim), split_state(prim)]

    @pytest.mark.parametrize("dim,reform,helmholtz", [(2, 7, 5), (3, 14, 9)])
    def test_row_counts(self, grid2d, grid3d, dim, reform, helmholtz):
        # Omega and E^T - E take their i < j entries: 1 row in 2-D, 3 in 3-D
        grid = grid2d if dim == 2 else grid3d
        assert ReformState.block_shape(grid)[0] == reform
        assert HelmholtzState.block_shape(grid)[0] == helmholtz
        split = HelmholtzState.zeros(grid)
        for f in (ReformState.zeros(grid).omega, split.omega, split.skew):
            assert f.coeff.shape == SKEW_SHAPE[dim] + grid.spectral_shape
            assert SpectralField.zeros(grid, f.rank).coeff.shape == f.coeff.shape

    def test_operations_keep_the_type(self, grid2d, rng):
        for state in self._states(grid2d, rng):
            for out in (state + state, state - state, 2.0 * state, state * 2.0,
                        state.copy(), state.project_mean_zero()):
                assert type(out) is type(state)

    def test_copy_is_independent(self, grid2d, rng):
        for state in self._states(grid2d, rng):
            twin = state.copy()
            before = state.rho.coeff.copy()
            twin.rho.coeff[:] = 7.0
            assert np.array_equal(state.rho.coeff, before)

    def test_axpy_matches_the_per_field_expression(self, grid2d, rng):
        state, delta = (ReformState.from_primitive(_random_state(grid2d, rng))
                        for _ in range(2))
        a = 0.37
        new = state + a * delta
        old = ReformState(state.rho + a * delta.rho, state.d + a * delta.d,
                          state.omega + a * delta.omega, state.E + a * delta.E)
        for name in ("rho", "d", "omega", "E"):
            assert (getattr(new, name).coeff == getattr(old, name).coeff).all()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fields_are_views_of_one_block(self, rng, dim, grid2d, grid3d):
        grid = grid2d if dim == 2 else grid3d
        prim = _random_state(grid, rng)
        for state in self._states(grid, rng) + [prim]:
            rows = sum(f.ncomp for f in state)
            assert state.block.shape == (rows,) + grid.spectral_shape
            for f in state:
                assert np.shares_memory(f.coeff, state.block)
        # built from fields, a state copies them: it aliases none of its inputs
        state = PrimitiveState(*prim)
        for given, f in zip(prim, state):
            assert not np.shares_memory(state.block, given.coeff)
            assert np.array_equal(f.coeff, given.coeff)

    def test_operations_return_owned_blocks(self, grid2d, rng):
        for state in self._states(grid2d, rng):
            for out in (state + state, state - state, 2.0 * state, np.float64(2.0) * state,
                        state.copy(), state.project_mean_zero()):
                assert not np.shares_memory(out.block, state.block)
                assert all(np.shares_memory(f.coeff, out.block) for f in out)

    def test_field_assignment_writes_the_rows(self, grid2d, rng):
        state = ReformState.from_primitive(_random_state(grid2d, rng))
        before = state.copy()
        new_d = random_field(grid2d, "scalar", rng)
        state.d = new_d
        assert np.shares_memory(state.d.coeff, state.block)
        assert not np.shares_memory(state.d.coeff, new_d.coeff)
        # a block operation sees the new values, and only in the d row
        diff = state - before
        assert np.array_equal(diff.d.coeff, new_d.coeff - before.d.coeff)
        for name in ("rho", "omega", "E"):
            assert not getattr(diff, name).coeff.any()

    def test_a_field_cannot_leave_its_block(self, grid2d, rng):
        state = ReformState.from_primitive(_random_state(grid2d, rng))
        with pytest.raises(InputError, match="ReformState.rho"):
            state.rho = random_field(grid2d, "vector", rng)
        with pytest.raises(InputError, match="ReformState.E"):
            state.E = random_field(Grid(2, 32, length=4.0), "matrix", rng)
        with pytest.raises(AttributeError, match="no field 'u'"):
            state.u = random_field(grid2d, "vector", rng)
        with pytest.raises(AttributeError, match="no field 'block'"):
            state.block = state.block.copy()
        with pytest.raises(TypeError, match=r"takes the fields \('rho', 'd', 'omega', 'E'\)"):
            ReformState(state.rho, state.d, state.omega)
        with pytest.raises(InputError, match="ReformState.E"):
            ReformState(state.rho, state.d, state.omega, state.rho)
        with pytest.raises(InputError, match="needs a block of shape"):
            ReformState.of_block(grid2d, np.zeros((3,) + grid2d.spectral_shape, complex))
        with pytest.raises(TypeError):
            state + state.to_primitive()
        twin = copy.deepcopy(state)
        assert not np.shares_memory(twin.block, state.block)
        assert all(np.shares_memory(f.coeff, twin.block) for f in twin)
        assert twin.block.tobytes() == state.block.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_views_are_built_on_demand_and_alias_the_block(self, grid2d, grid3d, rng, dim):
        grid = grid2d if dim == 2 else grid3d
        block = ReformState.from_primitive(_random_state(grid, rng)).block.copy()
        state = ReformState.of_block(grid, block)
        assert set(vars(state)) == {"grid", "block"}
        early = state.E  # built before the in-place updates below, and kept
        assert state.E is early and set(vars(state)) == {"grid", "block", "E"}
        state.block *= 2.0
        state.block += 1.0
        assert early.coeff.tobytes() == block[ReformState.field_rows(grid, "E")].tobytes()
        # assignment writes the rows, whether or not the view was built yet
        new_om = transpose_gap(random_field(grid, "matrix", rng))
        state.omega = new_om
        assert np.array_equal(block[ReformState.field_rows(grid, "omega")],
                              pair_rows(new_om))
        assert np.array_equal(state.omega.coeff, new_om.coeff)
        # copies and pickles keep every field a view of their block (a
        # shallow copy shares the block, a deep copy or a pickle owns one)
        for twin, own in ((copy.copy(state), False), (copy.deepcopy(state), True),
                          (pickle.loads(pickle.dumps(state)), True)):
            assert type(twin) is ReformState
            assert np.shares_memory(twin.block, block) is not own
            for f, g in zip(twin, state):
                assert np.shares_memory(f.coeff, twin.block)
                assert f.coeff.tobytes() == g.coeff.tobytes()
        with pytest.raises(AttributeError, match="no attribute 'u'"):
            state.u

    def test_project_mean_zero_on_every_field(self, grid2d, rng):
        prim = _random_state(grid2d, rng)
        prim.rho.coeff[0, 0] = 1.0
        prim.E.coeff[0, 0, 0, 0] = 1.0
        out = prim.project_mean_zero()
        for f in (out.rho, out.u, out.E):
            assert np.all(f.mean_values() == 0.0)
        assert prim.rho.coeff[0, 0] == 1.0


class TestPressureLaw:
    def test_quadratic_constants(self):
        law = PressureLaw.quadratic()
        assert law.dp1 == 2.0
        r = np.linspace(-0.4, 0.4, 101)
        assert np.all(law.deviation(r) == 0.0)  # bit-exact cancellation

    def test_power_law_deviation(self):
        law = PressureLaw.power(1.4)
        # closed form: (1+r)^(gamma-2) - 1 at r = 0.1
        assert law.deviation(np.array([0.1]))[0] == pytest.approx(
            1.1 ** -0.6 - 1.0, rel=1e-12)
        assert law.deviation(np.array([0.0]))[0] == 0.0

    def test_law_from_its_derivative(self):
        # P(x) = x^3: P'(1) = 3, deviation 3(1+r)^2/(3(1+r)) - 1 = r
        law = PressureLaw(lambda x: 3.0 * x ** 2)
        assert law.dp1 == 3.0
        r = np.array([-0.25, 0.0, 0.5])
        assert law.deviation(r) == pytest.approx(r, abs=1e-15)

    @pytest.mark.parametrize("dp", [lambda x: 0.0 * x, lambda x: -x],
                             ids=["flat", "decreasing"])
    def test_nonpositive_reference_slope_rejected(self, dp):
        with pytest.raises(InputError, match="P'\\(1\\) > 0"):
            PressureLaw(dp)

    def test_coupling_constant(self):
        p = _params(alpha=3.0)
        assert p.coupling == pytest.approx(3.0 / 2.0)


class TestSources:
    def test_zero_state_gives_zero_sources(self, grid2d):
        zero = PrimitiveState(SpectralField.zeros(grid2d, "scalar"),
                              SpectralField.zeros(grid2d, "vector"),
                              SpectralField.zeros(grid2d, "matrix"))
        src, u = assemble_sources(ReformState.from_primitive(zero), _params())
        for f in src:
            assert f.l2() == 0.0
        assert not u.any()

    def test_antisymmetry_exact(self, grid2d, rng):
        prim = PrimitiveState(random_field(grid2d, "scalar", rng, amplitude=0.05),
                              random_field(grid2d, "vector", rng, amplitude=0.05),
                              random_field(grid2d, "matrix", rng, amplitude=0.05))
        src, _ = assemble_sources(ReformState.from_primitive(prim), _params())
        # the rotational source is stored by its one i < j entry
        assert src.omega.coeff.shape == grid2d.spectral_shape
        assert src.omega.l2() > 0.0

    def test_density_bound_enforced(self, grid2d):
        big = SpectralField.from_physical(
            grid2d, 0.9 * cosine_mode(grid2d, (1, 0)).to_physical())
        prim = PrimitiveState(big, SpectralField.zeros(grid2d, "vector"),
                              SpectralField.zeros(grid2d, "matrix"))
        with pytest.raises(StabilityError):
            assemble_sources(ReformState.from_primitive(prim), _params())

    def test_pure_velocity_single_triad(self, grid2d_unit):
        # rho = 0, E = 0, u one mode: the mass and stretch sources vanish and
        # the compressible source reduces to u.grad d - |grad|^-1 div(u.grad u)
        grid = grid2d_unit
        u = cosine_mode(grid, (0, 1), 0.3, rank="vector", component=(0,))
        prim = PrimitiveState(SpectralField.zeros(grid, "scalar"), u,
                              SpectralField.zeros(grid, "matrix"))
        src, _ = assemble_sources(ReformState.from_primitive(prim), _params())
        assert src.rho.l2() == 0.0
        assert src.E.l2() == 0.0
        # hand value: d = 0 (u is solenoidal), u.grad u = (0, 0) here since
        # u = (0.3 cos(y), 0) and d_y u_0 * u_1 = 0, d_x u_0 * u_0 = 0
        assert src.d.l2() < 1e-15
        # a genuinely interacting triad: u with two components
        u2 = (cosine_mode(grid, (0, 1), 0.3, rank="vector", component=(0,))
              + cosine_mode(grid, (1, 0), 0.2, rank="vector", component=(1,), phase="sin"))
        prim2 = PrimitiveState(SpectralField.zeros(grid, "scalar"), u2,
                               SpectralField.zeros(grid, "matrix"))
        src2, _ = assemble_sources(ReformState.from_primitive(prim2), _params())
        x = grid.meshgrid()
        # u.grad u = (u_1 d_y u_0, u_0 d_x u_1)
        #          = (-0.06 sin(x)sin(y), 0.06 cos(x)cos(y))
        conv = np.stack([-0.06 * np.sin(x[0]) * np.sin(x[1]),
                         0.06 * np.cos(x[0]) * np.cos(x[1])])
        expected_vec = SpectralField.from_physical(grid, conv)
        d, _ = helmholtz_split(u2)
        expected = (SpectralField(grid, convect(grid, u2.to_physical(), d.coeff))
                    - inverse_mag_times(divergence(expected_vec)))
        assert (src2.d - expected).l2() < 1e-14

    def test_quadratic_pressure_kills_deviation_terms(self, grid2d, rng):
        # with the quadratic law the composition term is identically zero, so
        # swapping it for an explicit zero changes nothing, bit for bit
        prim = PrimitiveState(random_field(grid2d, "scalar", rng, amplitude=0.05),
                              random_field(grid2d, "vector", rng, amplitude=0.05),
                              random_field(grid2d, "matrix", rng, amplitude=0.05))
        law = PressureLaw.quadratic()
        assert np.all(law.deviation(prim.rho.to_physical()) == 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sweep_frozen_at_its_own_state_is_the_direct_rhs(self, rng, dim, grid2d, grid3d):
        # frozen at the state it acts on, a sweep's convection of the unknowns
        # cancels the one inside the sources, and what is left is the split
        # system without the rotation correction: every source, end to end
        grid = grid2d if dim == 2 else grid3d
        params = _params(dim=dim, alpha=1.3)
        state = ReformState.from_primitive(_random_state(grid, rng))
        if dim == 3:
            # an Omega with a gradient-type axial part w = |grad|^-1 grad phi,
            # which the velocity never sees: a 3-D sweep's Omega drifts out of
            # the range of |grad|^-1 curl this way
            u = state.velocity()
            w = inverse_mag_times(gradient(random_field(grid, "scalar", rng, amplitude=0.05)))
            state.omega = SpectralField(grid, state.omega.coeff
                                        + skew_field(grid, [w.coeff[2], -w.coeff[1], w.coeff[0]]).coeff)
            assert (state.velocity() - u).l2() <= 1e-15 * u.l2()
        got = _sweep_after(params, state)(state).project_mean_zero()
        config = RunConfig(params, 0.01, 0.01, rotation_correction=False)
        want = direct_rhs(config)(state, 0)
        for g, w in zip(got, want, strict=True):
            assert (g - w).l2() <= 1e-13 * w.l2()


class TestCompatibility:
    def test_residual_small_on_admissible_data(self, rng):
        grid = Grid(2, 64, length=8.0)
        state = _admissible(grid, 0.01, u_amp=0.01, rng=rng)
        gap = deformation_identity_gap(state)
        assert gap.l2() <= 1e-10 * max(state.E.l2(), 1e-30)

    def test_residual_refinement_study(self, rng):
        # a generic (non-admissible) state has an order-one residual that the
        # grid cannot shrink; admissible data sits at discretization level on
        # every grid, at least 10x below a same-norm generic state
        coarse = Grid(2, 32, length=8.0)
        fine = Grid(2, 64, length=8.0)
        adm = _admissible(coarse, 0.02)
        generic = PrimitiveState(random_field(coarse, "scalar", rng, amplitude=0.02),
                                 SpectralField.zeros(coarse, "vector"),
                                 random_field(coarse, "matrix", rng, amplitude=0.02))
        res_generic = deformation_identity_gap(generic).l2()
        for g, st in ((coarse, adm),
                      (fine, PrimitiveState(refine_field(adm.rho, fine),
                                            refine_field(adm.u, fine),
                                            refine_field(adm.E, fine)))):
            res = deformation_identity_gap(st).l2()
            assert res <= res_generic / 10.0


class TestDualPath:
    def test_zero_state(self, grid2d):
        zero = PrimitiveState(SpectralField.zeros(grid2d, "scalar"),
                              SpectralField.zeros(grid2d, "vector"),
                              SpectralField.zeros(grid2d, "matrix"))
        pdot = primitive_rhs(zero, _params())
        assert pdot.rho.l2() == pdot.u.l2() == pdot.E.l2() == 0.0
        rdot = reformulated_rhs(ReformState.from_primitive(zero), _params())
        assert rdot.rho.l2() == rdot.d.l2() == rdot.omega.l2() == rdot.E.l2() == 0.0

    def test_linearized_against_block_system(self, grid2d, rng):
        # drop quadratic terms by hand: E = Hessian(psi), rho = -Lap(psi)
        # satisfies the linearized constraints, so the primitive derivative
        # maps exactly onto the linear system's coefficients
        from viscoflow.linear import linear_rhs
        amp = 1e-8
        psi = cosine_mode(grid2d, (2, 1), amp)
        E = jacobian(gradient(psi))
        rho = -1.0 * laplacian(psi)
        u = random_field(grid2d, "vector", rng, amplitude=amp)
        prim = PrimitiveState(rho, u, SpectralField(grid2d, E.coeff.copy()))
        params = _params(alpha=2.0)  # unit elastic coupling: a = alpha/P'(1) = 1

        pdot = primitive_rhs(prim, params)
        d_dot, om_dot = helmholtz_split(pdot.u.project_mean_zero())
        ldot = linear_rhs(split_state(prim), params.visc)
        # quadratic contamination is O(amp^2) = 1e-16 while fields are 1e-8
        assert (pdot.rho - ldot.rho).l2() <= 1e-6 * amp
        assert (d_dot - ldot.d).l2() <= 1e-6 * amp
        assert (om_dot - ldot.omega).l2() <= 1e-6 * amp
        assert (transpose_gap(pdot.E) - ldot.skew).l2() <= 1e-6 * amp
        assert (symmetric_scalar(pdot.E) - ldot.potential).l2() <= 1e-6 * amp

    @pytest.mark.parametrize("dim", [2, 3])
    def test_split_path_stores_omega_by_its_upper_entries(self, grid2d, grid3d, rng, dim):
        grid = grid2d if dim == 2 else grid3d
        prim = _random_state(grid, rng)
        params = _params(dim=dim)
        rdot = reformulated_rhs(ReformState.from_primitive(prim), params)
        src, _ = assemble_sources(ReformState.from_primitive(prim), params)
        for f in (rdot.omega, src.omega):
            assert f.coeff.shape == SKEW_SHAPE[dim] + grid.spectral_shape
            assert f.l2() > 0.0

    def test_agreement_on_admissible_data(self, rng):
        grid = Grid(2, 64, length=8.0)
        state = _admissible(grid, 0.01, u_amp=0.01, rng=rng)
        gaps = dual_path_gap(state, _params())
        assert gaps["relative"] <= 1e-10

    def test_disagreement_off_manifold(self, rng):
        grid = Grid(2, 32, length=8.0)
        generic = PrimitiveState(
            random_field(grid, "scalar", rng, amplitude=0.05),
            random_field(grid, "vector", rng, amplitude=0.05),
            random_field(grid, "matrix", rng, amplitude=0.05))
        gaps = dual_path_gap(generic, _params())
        assert gaps["relative"] > 1e-4  # constraint violation is visible

    def test_agreement_on_admissible_data_3d(self, rng):
        grid = Grid(3, 16, length=4.0)
        shears = [shear_map(grid, (4, 0, 0), (0.0, 1.0, 0.0), 1e-3),
                  shear_map(grid, (0, 4, 0), (0.0, 0.0, 1.0), 8e-4),
                  shear_map(grid, (0, 0, 4), (1.0, 0.0, 0.0), 6e-4)]
        state = generate_admissible(*shears).state
        state.u = random_field(grid, "vector", rng, band=(0.25, 1.0), amplitude=1e-3)
        gaps = dual_path_gap(state, _params(dim=3))
        assert gaps["relative"] <= 1e-10


class TestPhysicalBundle:
    @pytest.mark.parametrize("whole_state", [False, True])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_samples_equal_per_family_transforms(self, rng, dim, whole_state, monkeypatch):
        # one inverse transform of the whole stack changes no bit, also when
        # the d and Omega rows of a convected state sit between grad rho and
        # grad E: the bundle of a source pass (``sweep_pass``, here a group of one)
        grid = Grid(dim, 32 if dim == 2 else 16, 4.0)
        prim, visc = _random_state(grid, rng), Viscosity(1.0, 1.0, dim)
        families = {"rho": prim.rho, "grad_rho": gradient(prim.rho), "u": prim.u,
                    "grad_u": jacobian(prim.u), "lame": lame_operator(prim.u, visc),
                    "E": prim.E, "grad_E": gradient(prim.E)}
        if whole_state:
            ph = _source_pass_bundle(ReformState.from_primitive(prim), _params(dim), prim.u,
                                     monkeypatch)
            for name, f in families.items():
                assert getattr(ph, name).tobytes() == f.to_physical().tobytes(), name
            return
        with grid.workspace() as ws:
            ph = PhysicalBundle.of(prim, visc, ws)
            for name, f in families.items():
                assert getattr(ph, name).tobytes() == f.to_physical().tobytes(), name

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rotation_correction_matches_fine_grid_products(self, rng, dim):
        # E inside the dealias band: the 2/3-rule products are exact, so the
        # fused correction must equal the one built from 2x-grid products
        grid = Grid(dim, 16, length=4.0)
        E = random_field(grid, "matrix", rng, amplitude=0.1)
        comp = [[SpectralField(grid, E.coeff[i, j]) for j in range(dim)] for i in range(dim)]
        grad = [[[SpectralField(grid, comp[i][j].coeff * (1j * grid.xi_axes[l]))
                  for j in range(dim)] for i in range(dim)] for l in range(dim)]

        def B(i, j, k):  # E_lk d_l E_ij - E_lj d_l E_ik
            acc = SpectralField.zeros(grid)
            for l in range(dim):
                acc = (acc + fine_grid_product(comp[l][k], grad[l][i][j])
                       - fine_grid_product(comp[l][j], grad[l][i][k]))
            return acc

        expected = np.stack([sum((B(i, j, k) - B(j, i, k)).coeff * (1j * grid.xi_axes[k])
                                 for k in range(dim)) * grid.inv_xi
                             for i, j in _pairs(dim)])
        zero = PrimitiveState(SpectralField.zeros(grid), SpectralField.zeros(grid, "vector"), E)
        with grid.workspace() as ws:
            ph = PhysicalBundle.of(zero, Viscosity(1.0, 1.0, dim), ws)
            (rows,) = ws.products((len(_pairs(dim)), dim))
            rotation_correction(ph, rows)
            (coeff,) = ws.forward()
            got = rotation_from_products(coeff)
        assert got.coeff.shape == SKEW_SHAPE[dim] + grid.spectral_shape
        assert (SpectralField(grid, pair_rows(got)) - SpectralField(grid, expected)).l2() \
            <= 1e-12 * max(got.l2(), 1e-300)
        assert got.l2() > 0.0

    def test_failed_pass_releases_the_workspace(self, grid2d, rng):
        bad = _random_state(grid2d, rng)
        bad.E.coeff[..., 2, 3] = np.nan
        with pytest.raises(StabilityError, match="field E$"):
            reformulated_rhs(ReformState.from_primitive(bad), _params())
        state = ReformState.from_primitive(_random_state(grid2d, rng))
        assert np.isfinite(reformulated_rhs(state, _params()).E.coeff).all()

    @pytest.mark.parametrize("field", ["rho", "E"])
    def test_non_finite_sample_names_the_field(self, grid2d, rng, field):
        prim = _random_state(grid2d, rng)
        getattr(prim, field).coeff[(Ellipsis,) + (2, 3)] = np.nan
        with pytest.raises(StabilityError, match=rf"field {field}$"):
            reformulated_rhs(ReformState.from_primitive(prim), _params())
        with pytest.raises(StabilityError, match=rf"field {field}$"):
            assemble_sources(ReformState.from_primitive(prim), _params())

    @pytest.mark.parametrize("family", ["rho", "grad_rho", "u", "grad_u", "lame", "E",
                                        "grad_E", "grads"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_finite_family_of_a_whole_state_pass_is_named(
            self, grid2d, grid3d, rng, monkeypatch, dim, family):
        # the pass scans its samples once; a NaN planted in one family's
        # samples names that family ("grads" for the d rows, which only the
        # derivative rows of a whole state sample)
        import viscoflow.grid as grid_module
        grid = grid2d if dim == 2 else grid3d
        state, params = ReformState.from_primitive(_random_state(grid, rng)), _params(dim)
        inverse, slabs = grid_module._inverse, []

        def recording(g, coeff, out):
            inverse(g, coeff, out)
            slabs.append(out)
        monkeypatch.setattr(grid_module, "_inverse", recording)
        ph = _source_pass_bundle(state, params, state.velocity(), monkeypatch)
        target = ph.grads[:, 1] if family == "grads" else getattr(ph, family)
        at = ((target.__array_interface__["data"][0]
               - slabs[0].__array_interface__["data"][0]) // target.itemsize)

        def planting(g, coeff, out):
            inverse(g, coeff, out)
            out.reshape(-1)[at] = np.nan
        monkeypatch.setattr(grid_module, "_inverse", planting)
        with pytest.raises(StabilityError, match=rf"field {family}$"):
            assemble_sources(state, params)


def _source_pass_bundle(state, params, u, monkeypatch) -> PhysicalBundle:
    """The samples ``assemble_sources(state, params, u)`` builds in its pass
    (its member axis of length one included); they are views of the grid's
    samples slab, read before the grid's next pass."""
    import viscoflow.model as model
    bundles = []

    class Recording(PhysicalBundle):
        def __init__(self, *args):
            super().__init__(*args)
            bundles.append(self)
    monkeypatch.setattr(model, "PhysicalBundle", Recording)
    assemble_sources(state, params, u)
    monkeypatch.setattr(model, "PhysicalBundle", PhysicalBundle)
    (ph,) = bundles
    return ph


def transform_count(fn, *args):
    """(scalar transforms, real-axis passes) of ``fn(*args)``, read from the
    grid of its first argument (see "Transforms" in ``viscoflow.grid``)."""
    grid = args[0] if isinstance(args[0], Grid) else args[0].grid
    before = grid.transforms, grid.transform_passes
    fn(*args)
    return grid.transforms - before[0], grid.transform_passes - before[1]


def _readme_transform_table() -> dict:
    """{call: (2-D, 3-D, passes)}, the rows of README's table of transforms
    per call."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text[text.index("| call | 2-D | 3-D | passes |"):].split("\n\n")[0]
    rows = re.findall(r"^\| (.+) \| (\d+) \| (\d+) \| (\d+) \|$", table, re.MULTILINE)
    return {call: tuple(map(int, counts)) for call, *counts in rows}


def _counted_calls(grid, rng) -> dict:
    """``(fn, *args)`` on ``grid`` for each row of README's table."""
    params = _params(dim=grid.dim)
    prim = _random_state(grid, rng)
    state = ReformState.from_primitive(prim)
    frozen = assemble_sources(ReformState.from_primitive(_random_state(grid, rng)), params)
    rho, F, u = (random_field(grid, rank, rng) for rank in ("scalar", "matrix", "vector"))
    return {
        "`reformulated_rhs`": (reformulated_rhs, state, params),
        "`primitive_rhs`": (primitive_rhs, prim, params),
        "`assemble_sources`": (assemble_sources, state, params),
        "`assemble_sources` with a frozen pair": (assemble_sources, state, params,
                                                   state.velocity(), frozen),
        "iteration sweep right-hand side, stage 2": (_sweep_after(params, state), state),
        "`linear_rhs` with a velocity": (linear_rhs, split_state(prim),
                                         SplitViscosity(1.0, 1.0), prim.u),
        "`transport_rhs` (u and grad u sampled)": (transport_rhs, rho, F, u.to_physical(),
                                                    jacobian(u).to_physical()),
    }


class TestTransformCounts:
    """One physical evaluation per call: each family of samples is
    inverse-transformed once and products sharing a destination share one
    forward transform.  The unfused code spent 90 (2-D) and 219 (3-D) per
    split RHS, 61 per primitive RHS and 88 per source assembly.  Every
    transform is real-to-complex on the half spectrum.  Through the grid's
    workspace each RHS makes one inverse and one forward real-axis pass
    (one pass per family and product cost about 12 per 2-D split RHS, and a
    rotation correction with a forward transform of its own one more)."""

    # (2-D, 3-D, passes) caps of each call of README's table
    CAPS = {
        "`reformulated_rhs`": (36, 86, 2),
        "`primitive_rhs`": (30, 68, 2),
        # no potential convection and no flux transform that nothing reads
        "`assemble_sources`": (40, 93, 2),
        # a sweep node's sources and its convection by the frozen velocity in one pass
        "`assemble_sources` with a frozen pair": (47, 107, 2),
        # every field's convection in one batch, Omega by its i < j part
        "iteration sweep right-hand side, stage 2": (21, 56, 2),
        # one batched convection; the oracle samples its velocity in a pass of its own
        "`linear_rhs` with a velocity": (17, 39, 3),
        # u and grad u come sampled; (grad u) F + u.grad F is one forward transform
        "`transport_rhs` (u and grad u sampled)": (19, 49, 2),
    }

    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_call_is_its_readme_row_within_its_cap(self, grid2d, grid3d, rng, dim):
        # the counter reads what README documents, so neither can drift
        table, caps = _readme_transform_table(), self.CAPS
        calls = _counted_calls(grid2d if dim == 2 else grid3d, rng)
        assert calls.keys() == table.keys() == caps.keys()
        for call, (fn, *args) in calls.items():
            count, passes = transform_count(fn, *args)
            assert (count, passes) == (table[call][dim - 2], table[call][2]), call
            assert count <= caps[call][dim - 2] and passes <= caps[call][2], call

    def test_fine_grid_oracle_is_the_complex_path(self, grid2d, rng, monkeypatch):
        import viscoflow.grid as grid_module
        f, g = (random_field(grid2d, "scalar", rng) for _ in range(2))

        def counted_kernel(*args):
            raise AssertionError("the oracle product reached a counted kernel")
        monkeypatch.setattr(grid_module, "_inverse", counted_kernel)
        monkeypatch.setattr(grid_module, "_forward", counted_kernel)
        assert transform_count(fine_grid_product, f, g) == (0, 0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grid_counts_what_numpy_fft_transforms(self, grid2d, grid3d, rng, dim,
                                                   monkeypatch):
        # the one check of the counter against numpy.fft itself: a wrapper on
        # each function grid.py calls tallies the lines each call transforms,
        # by function and axis; a scalar transform is n**(dim-1) lines along
        # the real (last) axis, and a real-axis call is one pass
        grid = grid2d if dim == 2 else grid3d
        n, kept = grid.n, grid.dealias_cut + 1
        lines, calls = Counter(), Counter()

        def wrap(name, orig):
            def counted(a, *args, **kwargs):
                axis = kwargs.get("axis", -1)
                lines[name, axis] += a.size // a.shape[axis]
                calls[name] += 1
                return orig(a, *args, **kwargs)
            return counted
        for name in ("rfft", "irfft", "fft", "ifft", "rfftn"):
            monkeypatch.setattr(np.fft, name, wrap(name, getattr(np.fft, name)))

        table = _counted_calls(grid, rng)
        rhs, frozen_pass, transport = (table[call] for call in (
            "`reformulated_rhs`", "`assemble_sources` with a frozen pair",
            "`transport_rhs` (u and grad u sampled)"))
        state, F, u_phys = rhs[1], transport[2], transport[3]
        values = F.to_physical()
        for fn, *args in (rhs, frozen_pass, transport,
                          (convect, grid, u_phys, state.block),
                          (SpectralField.to_physical, F),
                          (dealias_physical, grid, values),
                          (SpectralField.from_physical, grid, values)):
            lines.clear()
            calls.clear()
            count, passes = transform_count(fn, *args)
            real = lines["rfft", -1] + lines["irfft", -1] + lines["rfftn", -1]
            assert divmod(real, n ** (dim - 1)) == (count, 0), fn.__name__
            assert calls["rfft"] + calls["irfft"] + calls["rfftn"] == passes, fn.__name__
            # complex transforms run only along the leading axes
            assert lines["fft", -1] == lines["ifft", -1] == 0, fn.__name__
            if fn is reformulated_rhs:
                # the forward's leading-axis passes run on the cut + 1 kept
                # columns, and in 3-D its first-axis pass only on the kept
                # rows of the second
                rows = lines["rfft", -1] // n ** (dim - 1)
                assert lines["fft", -2] == rows * n ** (dim - 2) * kept
                if dim == 3:
                    assert lines["fft", -3] == rows * (2 * kept - 1) * kept

    @pytest.mark.parametrize("dim", [2, 3])
    def test_shared_pass_convects_as_convect_does(self, grid2d, grid3d, rng, dim):
        grid = grid2d if dim == 2 else grid3d
        params = _params(dim=dim)
        frozen = assemble_sources(ReformState.from_primitive(_random_state(grid, rng)), params)
        state = ReformState.from_primitive(_random_state(grid, rng))
        sources, u_phys, terms = assemble_sources(state, params, None, frozen)
        moved = convect(grid, frozen[1], state.block)
        assert np.array_equal(terms.block, frozen[0].block - moved)
        # the sources themselves are the plain pass's, bit for bit
        plain, plain_u = assemble_sources(state, params)
        assert np.array_equal(sources.block, plain.block)
        assert np.array_equal(u_phys, plain_u)

    def test_transport_run(self, grid2d, grid3d, rng):
        # the steady velocity is sampled once per run, then four RHS calls a
        # step; sampling it at every stage cost 6 more (2-D) and 12 more (3-D)
        # per RHS call
        steps = 2
        for grid, samples, per_rhs in ((grid2d, 6, 19), (grid3d, 12, 49)):
            rho, F, u = (random_field(grid, rank, rng, amplitude=0.05)
                         for rank in ("scalar", "matrix", "vector"))
            count, passes = transform_count(transport_simulate, rho, F, u, 0.05, 0.05 * steps)
            assert count <= samples + 4 * per_rhs * steps
            assert passes <= 2 + 4 * 2 * steps


def _calls_into_src(fn, *args) -> int:
    """Calls into functions defined under ``src/viscoflow`` while ``fn(*args)``
    runs: the profiler's ``call`` events of their code (generator resumptions
    included), so the count does not move with numpy's own Python code."""
    root = str(Path(viscoflow.__file__).resolve().parent)
    count, outer = [0], sys.getprofile()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            count[0] += 1
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(outer)
    return count[0]


class TestFixedCost:
    """The Python-level fixed cost of the calls a sweep node makes, counted
    as calls into the package's own functions, in 2-D and 3-D alike.  At the
    parent of the block maps (views on demand, the velocity and coupling
    maps on block rows, one finiteness scan) the counts were 161, 103, 139
    and 78, and with the workspace's two-stack push/pop machine 141, 99,
    114 and 54.  Before the sweeps' lock step they were 115, 71, and 86 +
    44 for a sweep's two stages."""

    @pytest.fixture(params=[2, 3])
    def setup(self, request, grid2d, grid3d, rng):
        grid = grid2d if request.param == 2 else grid3d
        params = _params(dim=grid.dim)
        return grid, params, lambda: ReformState.from_primitive(_random_state(grid, rng))

    def test_reformulated_rhs(self, setup):
        grid, params, new_state = setup
        state = new_state()
        reformulated_rhs(state, params)  # the per-grid multipliers and caches
        assert _calls_into_src(reformulated_rhs, state, params) <= 111

    def test_assemble_sources_with_a_frozen_pair(self, setup):
        grid, params, new_state = setup
        frozen = assemble_sources(new_state(), params)
        state = new_state()
        u = state.velocity()
        assemble_sources(state, params, u, frozen)
        assert _calls_into_src(assemble_sources, state, params, u, frozen) <= 53

    def test_sweep_stages(self, setup):
        # stage 1 and stage 2 of a group of middle sweeps at one tick: the
        # couplings and one pass of the sources they hand on with their
        # frozen convection, the predictor, and the couplings and one
        # convection pass at stage 2.  A sweep that was its own right-hand
        # side made 86 + 44 calls; a group of three makes fewer than three
        # times the calls of a group of one
        grid, params, new_state = setup
        cfg = RunConfig(params, 0.01, 0.1, picard_iterations=5)
        run = _Sweeps(grid, new_state().to_primitive(), cfg, math.inf)
        for tau in range(5):
            run.tick(tau)

        def stages(sweeps):  # at tick 5, sweep s at node 5 - s
            k1, sweeps = run._stage1(sweeps, 5)
            run._stage2(sweeps, 5, run.stepper.predict(run.x[0, sweeps.start - 1:sweeps.stop - 1], k1))
        stages(range(2, 5))  # the slabs at the size of a group of three
        one = _calls_into_src(stages, range(3, 4))
        three = _calls_into_src(stages, range(2, 5))
        assert one <= 100
        assert three <= 102 < 3 * one


@pytest.mark.parametrize("dim, n", [(3, 16), (2, 64)])
def test_rhs_allocates_less_than_its_spectral_stack(dim, n, rng):
    # the transforms allocate nothing of the transform size; irfftn(out=)
    # allocated a complex temporary per leading axis, and a 3-D n=16 call
    # peaked at 4.4 MiB against a 1.9 MiB spectral stack
    grid = Grid(dim, n, 4.0)
    state = ReformState.from_primitive(_random_state(grid, rng))
    params = _params(dim=dim)
    reformulated_rhs(state, params)       # builds the stacks and the multipliers
    tracemalloc.start()
    try:
        reformulated_rhs(state, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid._stacks["spec"].nbytes


@pytest.mark.parametrize("dim, n, spec, samples, products",
                         [(2, 32, 27, 27, 20), (3, 16, 67, 67, 40)])
def test_slabs_hold_the_rows_of_the_largest_pass(dim, n, spec, samples, products, rng):
    # the rows the two stacks of the push/pop workspace held: spec, and
    # samples + products on one physical stack (47 in 2-D, 107 in 3-D); the
    # largest samples and products both come from the frozen-pair source pass
    grid = Grid(dim, n, 4.0)
    params = _params(dim=dim)
    prim = _random_state(grid, rng)
    state = ReformState.from_primitive(prim)
    reformulated_rhs(state, params)
    primitive_rhs(prim, params)
    frozen = assemble_sources(state, params)
    assemble_sources(state, params, None, frozen)
    convect(grid, frozen[1], state.block)
    assert {k: len(v) for k, v in grid._stacks.items()} == \
        {"spec": spec, "samples": samples, "products": products}
    # the group budget of the lock-step sweeps counts these slabs' bytes
    assert sweep_pass_bytes(grid) == sum(v.nbytes for v in grid._stacks.values())


class TestWorkspaceAliasing:
    """What a right-hand side returns owns its memory: it shares none with
    the grid's workspace, and a second evaluation leaves it unchanged.  A
    state is checked by its block, of which every field is a view."""

    @staticmethod
    def _arrays(result):
        if isinstance(result, FieldTuple):
            # the output block, and every field a view of it
            assert all(np.shares_memory(f.coeff, result.block) for f in result)
            return [result.block]
        if isinstance(result, SpectralField):
            return [result.coeff]
        if isinstance(result, np.ndarray):
            return [result]
        out = []
        for part in result:
            out += TestWorkspaceAliasing._arrays(part)
        return out

    def _check(self, grid, rhs, first_args, second_args):
        rhs(*second_args)  # the stacks reach their size, so no later call grows them
        first = self._arrays(rhs(*first_args))
        before = [a.copy() for a in first]
        self._arrays(rhs(*second_args))
        for got, kept in zip(first, before):
            for stack in grid._stacks.values():
                assert not np.shares_memory(got, stack)
            assert got.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_model_right_hand_sides(self, dim, rng):
        grid = Grid(dim, 32 if dim == 2 else 16, 8.0 if dim == 2 else 4.0)
        params = _params(dim=dim)
        a, b = _random_state(grid, rng), _random_state(grid, rng)
        self._check(grid, reformulated_rhs, (ReformState.from_primitive(a), params),
                    (ReformState.from_primitive(b), params))
        nonstiff = direct_rhs(RunConfig(params, 0.01, 0.01))
        self._check(grid, nonstiff, (ReformState.from_primitive(a), 0),
                    (ReformState.from_primitive(b), 0))
        self._check(grid, primitive_rhs, (a, params), (b, params))
        # the sources and the frozen velocity samples (a copy)
        a, b = ReformState.from_primitive(a), ReformState.from_primitive(b)
        self._check(grid, assemble_sources, (a, params), (b, params))
        # and with a frozen pair, the frozen terms of the sweep too
        frozen = assemble_sources(b, params)
        self._check(grid, assemble_sources, (a, params, None, frozen), (b, params, None, frozen))

    def test_sweep_right_hand_side(self, grid2d, rng):
        rhs = _sweep_after(_params(), ReformState.from_primitive(_random_state(grid2d, rng)))
        self._check(grid2d, rhs, (ReformState.from_primitive(_random_state(grid2d, rng)),),
                    (ReformState.from_primitive(_random_state(grid2d, rng)),))

    def test_convect(self, grid2d, rng):
        u = random_field(grid2d, "vector", rng).to_physical()
        fields = [random_field(grid2d, rank, rng) for rank in ("scalar", "matrix")]
        skew = transpose_gap(random_field(grid2d, "matrix", rng))
        state = ReformState.from_primitive(_random_state(grid2d, rng))
        for coeff in [f.coeff for f in (*fields, skew)] + [state.block]:
            self._check(grid2d, convect, (grid2d, u, coeff), (grid2d, 2.0 * u, coeff))
