"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see the full report.  The twelve criteria cover: the cutoff partition and
shell, block reconstruction and quasi-orthogonality, the Bony splitting, the
dyadic scaling law, the Helmholtz involution, linear decay against the
eigenvalue oracle, the low/high frequency damping structure, block-energy
coercivity and equivalence, constraint propagation majorants, the small-data
global-bound shadow, iteration contraction, and dual-path consistency.
"""

import numpy as np
import pytest

from viscoflow import (DyadicFamily, EnergyConstants, Grid,
                       ModelParams, PressureLaw, RunConfig,
                       SpectralField, besov_norm, bony_defect, check_trajectory,
                       constraint_residuals, direct_solve, dual_path_gap,
                       deformation_identity_gap, generate_admissible,
                       helmholtz_reconstruct, helmholtz_split, initial_bnorm,
                       picard_solve, random_field, run_pair_decay, scale_dyadic,
                       shear_map, transport_simulate)
from viscoflow.constraints import FlowMap
from viscoflow.dyadic import psi
from viscoflow.grid import cosine_mode
from viscoflow.linear import PAIRS, block_energy, equivalence_ratio
from viscoflow.model import HelmholtzState
from viscoflow.operators import (SplitViscosity, Viscosity, curl_matrix,
                                 divergence, fractional_power, symmetric_scalar,
                                 transpose_gap)

from conftest import random_skew

RNG = np.random.default_rng(42)


def _report(idx, ok, detail):
    print(f"ACCEPTANCE {idx:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _lame():
    # strictly elliptic pair: nu = 1.5, mu = 1
    return Viscosity(1.0, -0.5, 2)


def _params():
    return ModelParams(_lame(), alpha=2.0, pressure=PressureLaw.quadratic())


def _admissible_state(grid, target_norm, rng, u_band=(0.9, 2.1)):
    """Volume-preserving composed shears scaled to the requested data norm."""
    k = int(grid.length)

    def build(eps):
        m1 = shear_map(grid, (k, 0), (0.0, 1.0), eps)
        m2 = shear_map(grid, (0, k), (1.0, 0.0), 0.8 * eps)
        return generate_admissible(m1, m2).state

    probe = build(1e-3)
    base = initial_bnorm(probe)
    state = build(1e-3 * 0.5 * target_norm / base)
    state.u = random_field(grid, "vector", rng, band=u_band,
                           amplitude=0.5 * target_norm)
    return state


# ----------------------------------------------------------------------
# 1-2: cutoff family
# ----------------------------------------------------------------------

def test_c01_partition_of_unity():
    defects = []
    for grid in (Grid(2, 64, 8.0), Grid(2, 32, 1.0), Grid(3, 16, 4.0)):
        defects.append(DyadicFamily(grid).partition_defect())
    r = np.linspace(0.0, 6.0, 40001)
    vals = psi(r)
    outside = (r < 5.0 / 6.0) | (r > 12.0 / 5.0)
    shell_exact = bool(np.all(vals[outside] == 0.0))
    ok = max(defects) <= 1e-12 and shell_exact
    _report(1, ok, f"partition defect {max(defects):.2e} <= 1e-12, "
                   f"shell support exact: {shell_exact}")


def test_c02_reconstruction_and_quasi_orthogonality():
    grid = Grid(2, 64, 8.0)
    fam = DyadicFamily(grid)
    worst_rec = 0.0
    worst_orth = 0.0
    for _ in range(5):
        f = random_field(grid, "scalar", RNG, band=(0.0, grid.xi_max))
        total = SpectralField.zeros(grid, "scalar")
        for q in fam.q_range:
            total = total + fam.block(f, q)
        worst_rec = max(worst_rec, (total - f).l2() / f.l2())
        for q in fam.q_range:
            for p in fam.q_range:
                if abs(p - q) >= 2:
                    worst_orth = max(worst_orth, fam.block(fam.block(f, q), p).l2())
    ok = worst_rec <= 1e-12 and worst_orth == 0.0
    _report(2, ok, f"reconstruction defect {worst_rec:.2e} <= 1e-12, "
                   f"double-block residue {worst_orth:.1e} (exact zero)")


def test_c03_bony_decomposition():
    grid = Grid(2, 32, 8.0)
    worst = 0.0
    for _ in range(50):
        f = random_field(grid, "scalar", RNG)
        g = random_field(grid, "scalar", RNG)
        worst = max(worst, bony_defect(f, g))
    _report(3, worst <= 1e-10, f"worst Bony defect over 50 pairs {worst:.2e} <= 1e-10")


def test_c04_dyadic_scaling_law():
    worst = 0.0
    for grid, exps in ((Grid(2, 64, 8.0), (-1.0, 0.0, 0.0, 1.0)),
                       (Grid(3, 16, 4.0), (-1.0, 0.0, 0.5, 1.5))):
        fam = DyadicFamily(grid)
        quarter = (grid.n // 2 - 1) // 2 / grid.length
        f = random_field(grid, "scalar", RNG, band=(1.0 / grid.length, quarter))
        g = scale_dyadic(f)
        for s in exps:
            ratio = besov_norm(g, s, fam) / besov_norm(f, s, fam)
            worst = max(worst, abs(ratio - 2.0 ** s) / 2.0 ** s)
    _report(4, worst <= 1e-10, f"scaling-law relative defect {worst:.2e} <= 1e-10")


def test_c05_helmholtz_involution():
    worst = 0.0
    for grid in (Grid(2, 64, 8.0), Grid(3, 16, 4.0)):
        for _ in range(3):
            u = random_field(grid, "vector", RNG)
            d, om = helmholtz_split(u)
            scale = u.l2()
            worst = max(worst, (helmholtz_reconstruct(d, om) - u).l2() / scale)
            worst = max(worst, (divergence(u) - fractional_power(d, 1.0)).l2() / scale)
            worst = max(worst, (curl_matrix(u) - fractional_power(om, 1.0)).l2() / scale)
    _report(5, worst <= 1e-12, f"split/reconstruct and multiplier identities "
                               f"defect {worst:.2e} <= 1e-12")


# ----------------------------------------------------------------------
# 6-8: linear system
# ----------------------------------------------------------------------

def test_c06_linear_decay_vs_oracle():
    grid = Grid(2, 64, 1.0)
    visc = SplitViscosity(1.0, 1.0)
    worst = 0.0
    anchor = None
    for pair in PAIRS:
        for k in (1, 2, 4, 8):
            res = run_pair_decay(grid, pair, (k, 0), visc)
            worst = max(worst, res["rel_error"])
            if pair == "rho_d" and k == 1:
                anchor = res["fitted"]
    ok = worst <= 0.02 and abs(anchor - 0.5) <= 0.010
    _report(6, ok, f"worst rate error {worst:.2%} <= 2%, compressible pair at "
                   f"|xi|=1 fitted {anchor:.4f} within 0.500 +- 0.010")


def test_c07_hybrid_regime_structure():
    visc = SplitViscosity(1.0, 1.0)
    grid_low = Grid(2, 32, 8.0)
    rates = []
    for q in (-3, -2, -1, 0):
        res = run_pair_decay(grid_low, "rho_d", (int(round(2.0 ** q * 8)), 0), visc)
        rates.append(res["fitted"])
    slope = float(np.polyfit(range(-3, 1), np.log2(rates), 1)[0])

    grid_high = Grid(2, 64, 1.0)
    res = run_pair_decay(grid_high, "rho_d", (16, 0), visc)
    sat_err = abs(res["fitted"] - 2.0) / 2.0
    ok = abs(slope - 2.0) <= 0.1 and sat_err <= 0.05
    _report(7, ok, f"low-frequency rate-vs-q exponent {slope:.3f} within 2.0 +- 0.1, "
                   f"high-frequency saturation error {sat_err:.2%} <= 5%")


def _random_helmholtz(grid, rng):
    E = random_field(grid, "matrix", rng)
    om = random_skew(grid, rng)
    return HelmholtzState(random_field(grid, "scalar", rng),
                          random_field(grid, "scalar", rng),
                          om, transpose_gap(E), symmetric_scalar(E)), E


def test_c08_energy_coercivity_and_equivalence():
    consts = EnergyConstants(1.0, 1.0)
    violations = 0
    states = 0
    brackets = {}
    for n, count in ((32, 700), (64, 300)):
        grid = Grid(2, n, 1.0)
        fam = DyadicFamily(grid)
        ratios = []
        for _ in range(count):
            state, E = _random_helmholtz(grid, RNG)
            states += 1
            for q in fam.q_range:
                g = block_energy(state, q, consts)  # raises if negative
                if g < 0.0:
                    violations += 1
            if len(ratios) < 400:
                for q in fam.q_range:
                    r = equivalence_ratio(state, E, q, consts)
                    if r is not None:
                        ratios.append(r)
        brackets[n] = (min(ratios), max(ratios))
    lo32, hi32 = brackets[32]
    lo64, hi64 = brackets[64]
    stable = lo64 >= lo32 / 2.0 and hi64 <= 2.0 * hi32
    ok = violations == 0 and states == 1000 and stable
    _report(8, ok, f"{states} random states, {violations} coercivity violations; "
                   f"equivalence bracket n=32 [{lo32:.2f},{hi32:.2f}] vs "
                   f"n=64 [{lo64:.2f},{hi64:.2f}] stable")


# ----------------------------------------------------------------------
# 9: constraint propagation
# ----------------------------------------------------------------------

def _solenoidal_u(grid, amplitude, k=1):
    u = cosine_mode(grid, (k, 0), amplitude, rank="vector", component=(1,))
    v = cosine_mode(grid, (0, k), amplitude, rank="vector", component=(0,), phase="sin")
    return u + v


def test_c09_constraint_lemmas():
    grid = Grid(2, 32, 8.0)
    reports = []
    # five admissible trajectories (varying strength and velocity); the maps
    # live at the lowest wavevector so the transported harmonic ladder stays
    # resolved and residual production is genuinely at round-off
    for i, (strength, ua) in enumerate([(0.05, 0.2), (0.08, 0.3), (0.12, 0.1),
                                        (0.1, 0.4), (0.06, 0.25)]):
        eps = strength * grid.length
        m1 = shear_map(grid, (1, 0), (0.0, 1.0), eps)
        m2 = shear_map(grid, (0, 1), (1.0, 0.0), 0.8 * eps)
        data = generate_admissible(m1, m2)
        u = _solenoidal_u(grid, ua)
        times, snaps = transport_simulate(data.rho_hat, data.F, u,
                                          0.02, 1.0, sample_every=10)
        reports.append(check_trajectory(times, snaps, u))
    # five seeded-residual trajectories
    from viscoflow.operators import gradient, jacobian
    for i, amp in enumerate((0.02, 0.05, 0.08, 0.1, 0.12)):
        phi = (cosine_mode(grid, (2, 1), 1.0)
               + cosine_mode(grid, (1, 3), 0.8, phase="sin"))
        hess = jacobian(gradient(phi))
        F = SpectralField(grid, amp * hess.coeff.copy())
        for j in range(2):
            F.coeff[j, j, 0, 0] += 1.0
        rho = SpectralField.from_physical(
            grid, 1.0 + 1e-4 * (1 + i) * cosine_mode(grid, (1, 1)).to_physical())
        u = _solenoidal_u(grid, 0.1 + 0.05 * i)
        times, snaps = transport_simulate(rho, F, u, 0.02, 1.0,
                                          sample_every=10)
        reports.append(check_trajectory(times, snaps, u))
    hold = all(r.div_ok and r.curl_ok for r in reports)

    # generator residuals converge spectrally under grid doubling
    ratios = []
    prev = None
    for n in (16, 32, 64):
        g = Grid(2, n, 1.0)
        a1 = np.array([0.0, 1.0]); b2 = np.array([0.7, 0.0]); c3 = np.array([0.4, -0.2])
        flow = FlowMap(g, [((1, 0), a1, np.zeros(2)), ((0, 2), np.zeros(2), b2),
                           ((2, 1), c3, 0.3 * c3)], 0.1)
        data = generate_admissible(flow)
        div, curl, *_ = constraint_residuals(data.rho_hat, data.F)
        res = div + curl
        if prev is not None and prev > 1e-13:
            ratios.append(prev / res)
        prev = res
    spectral = len(ratios) == 2 and all(r >= 4.0 for r in ratios)
    ok = hold and spectral
    _report(9, ok, f"majorants hold on 10/10 trajectories: {hold}; residual "
                   f"refinement ratios {[f'{r:.1f}' for r in ratios]} all >= 4")


# ----------------------------------------------------------------------
# 10-11: nonlinear evolution
# ----------------------------------------------------------------------

def test_c10_small_data_global_bound_shadow():
    grid = Grid(2, 64, 8.0)
    prim = _admissible_state(grid, 1e-2, np.random.default_rng(1))
    gains = {}
    for dt in (0.02, 0.01):
        cfg = RunConfig(_params(), dt=dt, t_final=20.0)
        result = direct_solve(prim, cfg)
        gains[dt] = result.measured_gain
        if dt == 0.02:
            sup_ok = result.norms.sup_instant() <= 10.0 * result.initial_norm
            tail = result.norms.l1_tail_fraction(0.25)
    gain_drift = abs(gains[0.01] - gains[0.02]) / gains[0.02]
    ok = sup_ok and tail <= 0.10 and gain_drift <= 0.10
    _report(10, ok, f"sup-norm bounded: {sup_ok}; dissipation tail {tail:.2%} <= 10%; "
                    f"gain drift under dt halving {gain_drift:.2%} <= 10%")


def test_c11_iteration_contraction_and_limit():
    grid = Grid(2, 32, 8.0)
    prim = _admissible_state(grid, 1e-2, np.random.default_rng(2))
    cfg = RunConfig(_params(), dt=0.01, t_final=1.0, picard_iterations=6)
    res = picard_solve(prim, cfg)
    ratios_ok = all(r <= 0.9 for r in res.ratios[1:])

    prim_small = _admissible_state(grid, 1e-3, np.random.default_rng(3))
    cfg_p = RunConfig(_params(), dt=0.005, t_final=1.0, picard_iterations=6)
    pic = picard_solve(prim_small, cfg_p)
    cfg_d = RunConfig(_params(), dt=0.005, t_final=1.0, rotation_correction=False)
    direct = direct_solve(prim_small, cfg_d)
    last = pic.final_states[-1]
    fin = direct.final.to_primitive()
    num = np.sqrt((last.rho - fin.rho).l2() ** 2 + (last.u - fin.u).l2() ** 2
                  + (last.E - fin.E).l2() ** 2)
    den = np.sqrt(fin.rho.l2() ** 2 + fin.u.l2() ** 2 + fin.E.l2() ** 2)
    agree = num / den
    ok = ratios_ok and agree <= 1e-6
    _report(11, ok, f"contraction ratios beyond the second sweep all <= 0.9: "
                    f"{ratios_ok} (max {max(res.ratios[1:]):.3f}); iteration limit "
                    f"vs direct run relative gap {agree:.2e} <= 1e-6")


# ----------------------------------------------------------------------
# 12: dual-path consistency
# ----------------------------------------------------------------------

def test_c12_dual_path_consistency():
    grid = Grid(2, 64, 8.0)
    params = _params()
    # volume-preserving composed shears: full curl structure, exact means
    state_a = _admissible_state(grid, 5e-3, np.random.default_rng(4))
    gap_a = dual_path_gap(state_a, params)["relative"]
    # compressive flow map (exact fields, tiny nonzero means kept):
    # exercises the density-coupled terms; low base modes keep the harmonic
    # ladder of the pullback inside the dealias band
    a1 = np.array([0.0, 1.0]); b2 = np.array([0.6, 0.4])
    flow = FlowMap(grid, [((2, 0), a1, np.zeros(2)), ((0, 4), np.zeros(2), b2)], 1e-3)
    data = generate_admissible(flow)
    data.state.u = random_field(grid, "vector", np.random.default_rng(5),
                                band=(0.9, 2.1), amplitude=1e-3)
    gap_b = dual_path_gap(data.state, params)["relative"]
    ident = deformation_identity_gap(data.state).l2() / max(data.state.E.l2(), 1e-30)
    ok = gap_a <= 1e-10 and gap_b <= 1e-10 and ident <= 1e-10
    _report(12, ok, f"derivative gaps: shear data {gap_a:.2e}, compressive data "
                    f"{gap_b:.2e} (both <= 1e-10); double-divergence identity "
                    f"residual {ident:.2e} at discretization level")