"""Deformation constraints: residuals, admissible-data generation, and
propagation majorants along transported trajectories."""

import re

import numpy as np
import pytest

from viscoflow import (FlowMap, Grid, SpectralField, check_trajectory,
                       constraint_residuals, convection_gauge, generate_admissible,
                       shear_map, transport_simulate)
from viscoflow.constraints import _largest_singular_value, transport_rhs
from viscoflow.errors import InputError, InvariantViolation
from viscoflow.grid import cosine_mode, dealias_physical, random_field
from viscoflow.operators import divergence, gradient, jacobian, transport


def _two_mode_map(grid, eps, base_k=None):
    d = grid.dim
    base_k = base_k if base_k is not None else int(grid.length)
    a1 = np.zeros(d); a1[1] = 1.0
    b2 = np.zeros(d); b2[0] = 0.7
    k1 = (base_k, 0) + (0,) * (d - 2)
    k2 = (0, 2 * base_k) + (0,) * (d - 2)
    return FlowMap(grid, [(k1, a1, np.zeros(d)), (k2, np.zeros(d), b2)], eps)


def _solenoidal_u(grid, amplitude, k=None):
    k = k if k is not None else int(grid.length)
    u = cosine_mode(grid, (k, 0) + (0,) * (grid.dim - 2), amplitude,
                    rank="vector", component=(1,))
    v = cosine_mode(grid, (0, k) + (0,) * (grid.dim - 2), amplitude,
                    rank="vector", component=(0,), phase="sin")
    return u + v


class TestResiduals:
    def test_equilibrium(self, grid2d):
        one = SpectralField.from_physical(grid2d, np.ones((32, 32)))
        eye = SpectralField.zeros(grid2d, "matrix")
        for i in range(2):
            eye.coeff[i, i, 0, 0] = 1.0
        div, curl, *_ = constraint_residuals(one, eye)
        assert div == 0.0
        assert curl == 0.0

    def test_constant_antisymmetric_offset(self, grid2d):
        one = SpectralField.from_physical(grid2d, np.ones((32, 32)))
        F = SpectralField.zeros(grid2d, "matrix")
        for i in range(2):
            F.coeff[i, i, 0, 0] = 1.0
        F.coeff[0, 1, 0, 0] = 0.3
        F.coeff[1, 0, 0, 0] = -0.3
        div, curl, *_ = constraint_residuals(one, F)
        assert div == 0.0
        assert curl == 0.0

    def test_hessian_family_quadratic_scaling(self, grid2d):
        # F = I + amp * Hessian(phi): the linear parts of the curl mismatch
        # cancel by symmetry of third derivatives, the quadratic cross terms
        # of a two-mode potential do not
        phi = cosine_mode(grid2d, (2, 1), 1.0) + cosine_mode(grid2d, (1, 3), 0.8,
                                                             phase="sin")
        hess = jacobian(gradient(phi))
        one = SpectralField.from_physical(grid2d, np.ones((32, 32)))
        amps = np.array([0.025, 0.05, 0.1])
        res = []
        for amp in amps:
            F = SpectralField(grid2d, amp * hess.coeff.copy())
            for i in range(2):
                F.coeff[i, i, 0, 0] += 1.0
            res.append(constraint_residuals(one, F)[1])
        res = np.array(res)
        slope = np.polyfit(np.log(amps), np.log(res), 1)[0]
        assert abs(slope - 2.0) <= 0.1


    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_sampling_of_F_per_residual_set(self, dim):
        # four passes: F, rho and grad F are each sampled once and rho F is
        # dealiased once, 1 + 2 dim^2 + dim^3 scalar transforms in all
        grid = Grid(dim, 16, length=2.0)
        flow = _two_mode_map(grid, 0.05, base_k=1)
        data = generate_admissible(flow)
        before = grid.transforms, grid.transform_passes
        constraint_residuals(data.rho_hat, data.F)
        assert grid.transforms - before[0] == {2: 17, 3: 46}[dim]
        assert grid.transform_passes - before[1] == 4


class TestFlowMaps:
    def test_inverse_map_accuracy(self, grid2d):
        flow = _two_mode_map(grid2d, 0.02, base_k=4)
        x = grid2d.meshgrid()
        y = flow.inverse(x)
        assert np.max(np.abs(flow.forward(y) - x)) < 1e-11

    def test_too_strong_map_rejected(self, grid2d):
        flow = _two_mode_map(grid2d, 10.0, base_k=4)
        with pytest.raises(InputError):
            flow.check_invertible()

    def test_shear_direction_must_be_orthogonal(self, grid2d):
        with pytest.raises(InputError):
            shear_map(grid2d, (8, 0), (1, 0), 0.1)

    def test_composed_shears_volume_preserving(self, grid2d):
        m1 = shear_map(grid2d, (8, 0), (0.0, 1.0), 0.03)
        m2 = shear_map(grid2d, (0, 8), (1.0, 0.0), 0.02)
        data = generate_admissible(m1, m2)
        # det F = 1 exactly: density perturbation at round-off
        assert np.max(np.abs(data.rho_hat.to_physical() - 1.0)) < 1e-12
        assert abs(float(data.state.E.mean_values().max())) < 1e-13

    @pytest.mark.parametrize("dim", [2, 3])
    def test_composed_shears_keep_the_residuals_at_round_off(self, dim):
        # F is the product of the Jacobians in the maps' order; the reversed
        # product keeps det F = 1 but leaves residuals of about 5e-3 here
        grid = Grid(dim, 32, length=1.0)
        pad = (0,) * (dim - 2)
        m1 = shear_map(grid, (1, 0) + pad, (0, 1) + pad, 0.1)
        m2 = shear_map(grid, (0, 1) + pad, (1, 0) + pad, 0.08)
        data = generate_admissible(m1, m2)
        div, curl, *_ = constraint_residuals(data.rho_hat, data.F)
        assert div < 1e-14
        assert curl < 1e-14


class TestAdmissibleData:
    def test_nyquist_shear_is_degenerate(self):
        # k = 8 on n = 16, L = 8 sits at Nyquist: the grid cannot represent
        # the mode, so the map is rejected when it is built
        grid = Grid(2, 16, length=8.0)
        with pytest.raises(InputError, match=r"degenerate.*k = \(8, 0\)"):
            shear_map(grid, (8, 0), (0.0, 1.0), 1.0)

    @pytest.mark.parametrize("k", [(1,), (1, 0, 0), (16, 0), (0, -16), (3, 17)])
    def test_unrepresentable_wavevector_rejected(self, grid2d, k):
        # a short k once ended in IndexError and a long one was truncated
        with pytest.raises(InputError, match=rf"k = {re.escape(str(k))}"):
            FlowMap(grid2d, [(k, np.ones(2), np.zeros(2))], 0.01)

    def test_largest_representable_wavevector_accepted(self, grid2d):
        FlowMap(grid2d, [((15, -15), np.ones(2), np.zeros(2))], 0.01)

    def test_zero_amplitude_is_equilibrium(self, grid2d):
        flow = _two_mode_map(grid2d, 0.0, base_k=4)
        data = generate_admissible(flow)
        assert data.state.rho.l2() < 1e-14
        assert data.state.E.l2() < 1e-14
        assert constraint_residuals(data.rho_hat, data.F)[0] < 1e-14

    def test_small_map_residuals(self):
        grid = Grid(2, 64, length=1.0)
        flow = _two_mode_map(grid, 1e-3)
        data = generate_admissible(flow)
        div, curl, *_ = constraint_residuals(data.rho_hat, data.F)
        assert div <= 1e-10
        assert curl <= 1e-10

    def test_det_identity_by_construction(self, grid2d):
        flow = _two_mode_map(grid2d, 0.05, base_k=4)
        data = generate_admissible(flow)
        assert data.det_defect < 1e-12

    def test_spectral_convergence_of_residuals(self):
        # analytic map data: residual drops by >= 4x per grid doubling
        prev_div = prev_curl = None
        for n in (16, 32, 64):
            grid = Grid(2, n, length=1.0)
            data = generate_admissible(_two_mode_map(grid, 0.05))
            dres, cres, *_ = constraint_residuals(data.rho_hat, data.F)
            if prev_div is not None and prev_div > 1e-13:
                assert dres <= prev_div / 4.0
            if prev_curl is not None and prev_curl > 1e-13:
                assert cres <= prev_curl / 4.0
            prev_div, prev_curl = dres, cres


class TestGauge:
    def test_gauge_zero_velocity(self, grid2d):
        assert convection_gauge(SpectralField.zeros(grid2d, "vector")) == 0.0

    def test_gauge_dominated_forms(self, grid2d, rng):
        from viscoflow import random_field
        u = random_field(grid2d, "vector", rng, band=(0.2, 1.2))
        J = jacobian(u).to_physical()
        Jm = np.moveaxis(J, (0, 1), (-2, -1))
        op = np.linalg.svd(Jm, compute_uv=False)[..., 0].max()
        divu = np.abs(np.trace(Jm, axis1=-2, axis2=-1)).max()
        g = convection_gauge(u)
        assert g >= op - 1e-12
        assert g >= 0.5 * divu - 1e-12

    @pytest.mark.parametrize("kind", ["random", "solenoidal"])
    def test_closed_form_2d_norm_matches_svd(self, grid2d, rng, kind):
        u = (random_field(grid2d, "vector", rng, band=(0.2, 1.2)) if kind == "random"
             else _solenoidal_u(grid2d, 0.3, k=2))
        J = jacobian(u).to_physical()
        svd = np.linalg.svd(np.moveaxis(J, (0, 1), (-2, -1)), compute_uv=False)[..., 0]
        got = _largest_singular_value(J)
        assert np.all(np.abs(got - svd) <= 1e-14 * svd)

    @pytest.mark.parametrize("matrix, want", [
        ([[3.0, 0.0], [0.0, -5.0]], 5.0),                 # diagonal
        ([[0.6, -0.8], [0.8, 0.6]], 1.0),                 # rotation
        ([[1.0, 2.0], [0.0, 1.0]], 1.0 + np.sqrt(2.0)),   # shear: (1 + sqrt 2)^2 = 3 + 2 sqrt 2
        ([[0.0, 0.0], [0.0, 0.0]], 0.0),
    ])
    def test_closed_form_2d_norm_hand_values(self, matrix, want):
        J = np.array(matrix).reshape(2, 2, 1)
        assert _largest_singular_value(J)[0] == pytest.approx(want, rel=1e-15, abs=0.0)


class TestPropagation:
    def test_zero_velocity_conserves_exactly(self, grid2d):
        data = generate_admissible(_two_mode_map(grid2d, 0.05, base_k=4))
        zero = SpectralField.zeros(grid2d, "vector")
        times, snaps = transport_simulate(data.rho_hat, data.F,
                                          zero, 0.05, 0.5)
        first = constraint_residuals(*snaps[0])[0]
        last = constraint_residuals(*snaps[-1])[0]
        assert last == pytest.approx(first, abs=1e-15)

    def test_uniform_translation_keeps_mismatch_zero(self, grid2d):
        # constant velocity, identity deformation: gradients vanish, so the
        # mismatch stays identically zero along the rigid transport
        eye = SpectralField.zeros(grid2d, "matrix")
        for i in range(2):
            eye.coeff[i, i, 0, 0] = 1.0
        one = SpectralField.from_physical(grid2d, np.ones((32, 32)))
        u = SpectralField.zeros(grid2d, "vector")
        u.coeff[(0,) + (0,) * 2] = 0.3
        _, snaps = transport_simulate(one, eye, u, 0.05, 0.5)
        for _, F in (snaps[0], snaps[-1]):
            l2, point = constraint_residuals(one, F)[2:]
            assert l2 < 1e-28 and point < 1e-28

    def test_final_time_is_a_whole_number_of_steps(self, grid2d):
        one = SpectralField.from_physical(grid2d, np.ones((32, 32)))
        eye = SpectralField.zeros(grid2d, "matrix")
        u = SpectralField.zeros(grid2d, "vector")
        with pytest.raises(InputError, match="whole number of steps"):
            transport_simulate(one, eye, u, 0.02, 0.25)

    def test_seeded_residual_obeys_gronwall(self, grid2d):
        # non-admissible seed (both residuals nonzero) with a fixed smooth
        # low-frequency solenoidal velocity so the mode ladder stays resolved
        phi = (cosine_mode(grid2d, (2, 1), 1.0)
               + cosine_mode(grid2d, (1, 3), 0.8, phase="sin"))
        hess = jacobian(gradient(phi))
        F = SpectralField(grid2d, 0.1 * hess.coeff.copy())
        for i in range(2):
            F.coeff[i, i, 0, 0] += 1.0
        rho = SpectralField.from_physical(
            grid2d, 1.0 + 1e-4 * cosine_mode(grid2d, (1, 1)).to_physical())
        u = _solenoidal_u(grid2d, 0.05, k=1)
        times, snaps = transport_simulate(rho, F, u, 0.02, 1.0,
                                          sample_every=10)
        rep = check_trajectory(times, snaps, u)
        assert rep.div_res[0] > 1e-5 and rep.curl_sq_l2[0] > 1e-10
        assert rep.div_ok and rep.curl_ok

    def test_input_fields_are_never_written(self, grid2d):
        # snapshots keep the fields, not copies: the first snapshot is the
        # input itself, and a write into it would raise
        data = generate_admissible(_two_mode_map(grid2d, 0.02, base_k=1))
        data.rho_hat.coeff.flags.writeable = False
        data.F.coeff.flags.writeable = False
        u = _solenoidal_u(grid2d, 0.05, k=1)
        times, snaps = transport_simulate(data.rho_hat, data.F, u, 0.02, 0.2,
                                          sample_every=5)
        assert snaps[0][0] is data.rho_hat and snaps[0][1] is data.F
        assert check_trajectory(times, snaps, u).div_ok

    def test_nan_residual_is_a_violation(self, grid2d):
        # NaN fails every comparison, so each bound test is not (value <= bound)
        data = generate_admissible(_two_mode_map(grid2d, 0.02, base_k=1))
        u = _solenoidal_u(grid2d, 0.05, k=1)
        times, snaps = transport_simulate(data.rho_hat, data.F, u, 0.02, 0.2,
                                          sample_every=5)
        rho, F = snaps[-1]
        F = F.copy()
        F.coeff[0, 0, 1, 0] = np.nan
        snaps[-1] = (rho, F)
        rep = check_trajectory(times, snaps, u)
        assert np.isnan(rep.div_res[-1]) and np.isnan(rep.curl_sq_l2[-1])
        assert not rep.div_ok and not rep.curl_ok
        with pytest.raises(InvariantViolation, match="majorant"):
            check_trajectory(times, snaps, u, strict=True)

    def test_gauge_evaluated_once_per_run(self, grid2d, monkeypatch):
        import viscoflow.constraints as constraints
        calls = []
        gauge = constraints.convection_gauge
        monkeypatch.setattr(constraints, "convection_gauge",
                            lambda u: calls.append(u) or gauge(u))
        data = generate_admissible(_two_mode_map(grid2d, 0.02, base_k=1))
        u = _solenoidal_u(grid2d, 0.05, k=1)
        times, snaps = transport_simulate(data.rho_hat, data.F, u, 0.02, 0.2,
                                          sample_every=2)
        rep = check_trajectory(times, snaps, u)
        assert len(times) == 6 and len(calls) == 1
        assert rep.gauge_integral[-1] == pytest.approx(times[-1] * gauge(u), rel=1e-14)

    def test_admissible_trajectory_residual_stays_small(self, grid2d):
        data = generate_admissible(_two_mode_map(grid2d, 0.02, base_k=1))
        u = _solenoidal_u(grid2d, 0.05, k=1)
        times, snaps = transport_simulate(data.rho_hat, data.F,
                                          u, 0.02, 1.0, sample_every=10)
        rep = check_trajectory(times, snaps, u)
        assert rep.div_ok and rep.curl_ok
        # the integrator-error envelope dominates the near-zero initial residual
        assert rep.div_res[-1] < 1e-8

    def test_dt_refinement_keeps_admissible_residual_at_floor(self, grid2d):
        # residual production is purely algebraic (product rule holds exactly
        # for resolved pseudospectral products), so the discrete transport
        # keeps admissible data on the constraint manifold at round-off level
        # for every dt; refinement cannot make it worse
        data = generate_admissible(_two_mode_map(grid2d, 0.05, base_k=1))
        u = _solenoidal_u(grid2d, 0.4, k=1)
        finals = []
        for dt in (0.2, 0.1, 0.05):
            _, snaps = transport_simulate(data.rho_hat, data.F,
                                          u, dt, 2.0)
            finals.append(constraint_residuals(*snaps[-1])[0])
        assert all(r < 1e-12 for r in finals)
        assert finals[2] <= finals[0] + 1e-13


class TestTransportRHS:
    @staticmethod
    def _fields(grid, rng):
        return [random_field(grid, rank, rng, amplitude=0.05)
                for rank in ("scalar", "matrix", "vector")]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_pass_equals_per_field_transforms(self, dim, rng):
        # the batched transforms of the workspace change no bit against
        # transforming every family and product on its own
        grid = Grid(dim, 32 if dim == 2 else 16, 4.0)
        rho, F, u = self._fields(grid, rng)
        u_phys, grad_u = u.to_physical(), jacobian(u).to_physical()
        rho_dot, F_dot = transport_rhs(rho, F, u_phys, grad_u)
        grads = [SpectralField(grid, d).to_physical() for d in gradient(F).coeff]
        stretch = np.einsum("ik...,kj...->ij...", grad_u, F.to_physical())
        want_rho = -divergence(dealias_physical(grid, rho.to_physical() * u_phys))
        want_F = dealias_physical(grid, stretch - transport(u_phys, grads))
        assert rho_dot.coeff.tobytes() == want_rho.coeff.tobytes()
        assert F_dot.coeff.tobytes() == want_F.coeff.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_summed_products_equal_two_forward_transforms(self, dim, rng):
        # dealiasing is linear: one forward transform of (grad u) F - u.grad F
        # equals the difference of the two products' own dealiased transforms
        grid = Grid(dim, 32 if dim == 2 else 16, 4.0)
        rho, F, u = self._fields(grid, rng)
        u_phys, grad_u = u.to_physical(), jacobian(u).to_physical()
        _, F_dot = transport_rhs(rho, F, u_phys, grad_u)
        grads = [SpectralField(grid, d).to_physical() for d in gradient(F).coeff]
        stretch = np.einsum("ik...,kj...->ij...", grad_u, F.to_physical())
        two = (dealias_physical(grid, stretch).coeff
               - dealias_physical(grid, transport(u_phys, grads)).coeff)
        scale = np.abs(two).max()
        assert scale > 0.0
        assert np.abs(F_dot.coeff - two).max() <= 1e-14 * scale

    def test_results_own_their_memory(self, grid2d, rng):
        rho, F, u = self._fields(grid2d, rng)
        samples = (u.to_physical(), jacobian(u).to_physical())
        transport_rhs(rho, F, *samples)  # the stacks reach their size
        first = transport_rhs(rho, F, *samples)
        kept = [f.coeff.copy() for f in first]
        transport_rhs(2.0 * rho, 2.0 * F, *samples)
        for f, old in zip(first, kept):
            assert f.coeff.tobytes() == old.tobytes()
            for stack in grid2d._stacks.values():
                assert not np.shares_memory(f.coeff, stack)
