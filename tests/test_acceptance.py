"""Acceptance gate: one self-contained test per numbered criterion.

Each test rebuilds everything it measures so the runtime it asserts
covers the whole computation, and prints a single summary line with the
measured numbers (visible with -s, or in the captured output of a
failure).  Tolerances are stated inline next to each assertion.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from grflab.cylinder import (
    CylinderState,
    blowup_analysis,
    run_flow,
    torsion_divergence,
)
from grflab.entropy import (
    conjugate_heat_homogeneous,
    entropy_derivative_check,
    entropy_eval,
    gaussian_entropy_check,
    pointwise_monotonicity_check,
    soliton_heat_check,
)
from grflab.hodge import (
    PeriodicGrid,
    adjointness_gap,
    check_divH2,
    check_integral_identity,
    check_suobing,
    check_twisted_codiff,
    example_fields,
    integral_closed_form,
    random_trig_form,
)
from grflab.shooting import shoot_r3_branch
from grflab.warped import (
    convention_check,
    cylinder_soliton,
    gaussian_shrinker,
    ode_residuals,
    tensor_residuals,
)

# wrong-side slack for the per-step sign/monotonicity clauses: just before
# the collapse floor the true gaps decay below the integrator's local error
# (rtol 1e-11), so a strict inequality there reads rounding, not dynamics.
# 1e-9 is the same yardstick the conserved-quantity clause uses.
NOISE = 1e-9


def test_criterion_1_closed_form_regression():
    # h0 = 0: lambda(t) = 1 - t, collapse at T = 1
    start = time.perf_counter()
    ricci = run_flow(CylinderState(1.0, 0.0, 1.0))
    assert abs(ricci.T_sing - 1.0) < 1e-5
    ts = np.linspace(0.0, ricci.T_sing - 0.1, 400)
    states = np.array([ricci.state_at(t) for t in ts])
    sup_ricci = max(
        np.max(np.abs(states[:, 0] - (1.0 - ts))),
        np.max(np.abs(states[:, 1])),
        np.max(np.abs(states[:, 2] - 1.0)),
    )
    assert sup_ricci < 1e-8
    ricci_s = time.perf_counter() - start

    # h0^2 = 1/2: (lambda, h^2, beta) = (1 - t/2, 1/(2 - t), 1/sqrt(1 - t/2))
    start = time.perf_counter()
    half = run_flow(CylinderState(1.0, math.sqrt(0.5), 1.0))
    assert abs(half.T_sing - 2.0) < 1e-5
    ts = np.linspace(0.0, half.T_sing - 0.1, 400)
    states = np.array([half.state_at(t) for t in ts])
    sup_half = max(
        np.max(np.abs(states[:, 0] - (1.0 - ts / 2.0))),
        np.max(np.abs(states[:, 1] ** 2 - 1.0 / (2.0 - ts))),
        np.max(np.abs(states[:, 2] - 1.0 / np.sqrt(1.0 - ts / 2.0))),
    )
    assert sup_half < 1e-8
    half_s = time.perf_counter() - start

    print(
        f"criterion 1 (closed-form regression): PASS "
        f"sup_ricci={sup_ricci:.2e} sup_half={sup_half:.2e} "
        f"T_sing=({ricci.T_sing:.6f}, {half.T_sing:.6f}) "
        f"[{ricci_s:.2f} s, {half_s:.2f} s]"
    )
    assert ricci_s < 1.0 and half_s < 1.0


def test_criterion_2_conserved_and_monotone_diagnostics():
    start = time.perf_counter()
    worst_drift = 0.0
    for h0sq in (0.05, 0.1, 0.3, 0.7, 1.5):
        traj = run_flow(CylinderState(1.0, math.sqrt(h0sq), 1.0))
        drift = float(np.max(np.abs(traj.lambda_h_beta - traj.lambda_h_beta[0])))
        assert drift < 1e-9
        worst_drift = max(worst_drift, drift)
        u = 0.5 - traj.lambda_h2
        assert np.all(np.sign(u[0]) * u > -NOISE)  # sign(1/2 - lambda h^2) fixed
        steps = np.diff(traj.lambda_h2)
        if u[0] > 0:
            assert np.all(steps > -NOISE)  # Case 1: lambda h^2 climbs to 1/2
        else:
            assert np.all(steps < NOISE)  # Case 2: descends to 1/2 from above
    elapsed = time.perf_counter() - start
    print(
        f"criterion 2 (conserved/monotone diagnostics): PASS "
        f"worst_drift={worst_drift:.2e} over h0sq in {{0.05,0.1,0.3,0.7,1.5}} "
        f"[{elapsed:.2f} s]"
    )
    assert elapsed < 5.0


def test_criterion_3_blowup_limit():
    start = time.perf_counter()
    limits = []
    for h0sq in (0.1, 0.3, 0.7):
        traj = run_flow(CylinderState(1.0, math.sqrt(h0sq), 1.0))
        rep = blowup_analysis(traj)
        assert abs(rep.limit - 0.5) < 1e-4
        assert rep.opening_max > 1e6  # lambda^{-1} beta^2 before collapse
        limits.append(rep.limit)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 3 (blowup limit): PASS "
        f"limits={['%.6f' % v for v in limits]} [{elapsed:.2f} s]"
    )
    assert elapsed < 10.0


def test_criterion_4_torsion_divergence_witness():
    start = time.perf_counter()
    traj = run_flow(CylinderState(1.0, math.sqrt(0.5), 1.0))
    ts = np.linspace(0.0, 1.9, 381)
    integral = np.array([traj.state_at(t)[3] for t in ts])
    exact = 6.0 * np.log(2.0 / (2.0 - ts))
    rel = np.where(exact > 0, np.abs(integral - exact) / np.where(exact > 0, exact, 1.0),
                   np.abs(integral))
    assert rel.max() < 1e-6
    rep = torsion_divergence(traj, psi0=12.0)
    assert abs(rep.log_coefficient - 6.0) < 0.1
    assert abs(rep.crossing_time - (2.0 - 2.0 * math.exp(-2.0))) < 1e-4
    elapsed = time.perf_counter() - start
    print(
        f"criterion 4 (torsion divergence witness): PASS "
        f"rel_sup={rel.max():.2e} coefficient={rep.log_coefficient:.6f} "
        f"crossing={rep.crossing_time:.6f} [{elapsed:.2f} s]"
    )
    assert elapsed < 2.0


def test_criterion_5_soliton_residuals():
    start = time.perf_counter()
    cases = (
        (cylinder_soliton(), np.linspace(-3.0, 3.0, 200)),
        (gaussian_shrinker(), np.linspace(0.1, 3.0, 200)),
    )
    worst = 0.0
    for data, grid in cases:
        ode = ode_residuals(data, grid).max_abs
        tensor = tensor_residuals(data, grid).max_abs
        assert ode < 1e-12 and tensor < 1e-12
        worst = max(worst, ode, tensor)
        conv = convention_check(data, grid)
        assert conv.ok
        assert data.lambda_soliton == pytest.approx(2.0 * data.lambda_ode)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5 (soliton residuals): PASS worst_residual={worst:.2e} "
        f"convention_ok=True [{elapsed:.2f} s]"
    )
    assert elapsed < 1.0


def test_criterion_6_shooting_certificate():
    start = time.perf_counter()
    rep = shoot_r3_branch()
    r1, r2, r3, r4 = rep.milestones
    assert all(m is not None and math.isfinite(m) for m in rep.milestones)
    assert r1 < r2 < r3 < r4
    terminal_u = float(rep.trajectory.states[-1, 0])
    assert terminal_u < 1e-6
    assert rep.invariant_drift < 1e-9
    assert abs(rep.u_max - 3.0 ** 0.75) < 1e-6
    elapsed = time.perf_counter() - start
    print(
        f"criterion 6 (shooting certificate): PASS "
        f"milestones=({r1:.6f}, {r2:.6f}, {r3:.6f}, {r4:.6f}) "
        f"terminal_u={terminal_u:.1e} drift={rep.invariant_drift:.1e} "
        f"u_max={rep.u_max:.9f} [{elapsed:.2f} s]"
    )
    assert elapsed < 1.0


def test_criterion_7_entropy_machinery():
    start = time.perf_counter()

    # torsion-free run: conservation, derivative gap, monotone formula
    ricci = run_flow(CylinderState(1.0, 0.0, 1.0))
    weights = conjugate_heat_homogeneous(ricci)
    trace = entropy_derivative_check(
        ricci, weights, dt=1e-4, times=np.linspace(0.05, 0.85, 17)
    )
    mass_drift = float(np.abs(trace.mass - trace.mass[0]).max() / trace.mass[0])
    assert mass_drift < 1e-9
    gap_max = float(trace.gap.max())
    assert gap_max < 1e-6
    assert trace.dW_formula.min() >= 0.0  # monotone without torsion

    # measured finite-difference order from a dt halving; heavier weights
    # keep the truncation term above rounding
    big = conjugate_heat_homogeneous(ricci, u0=1.0, T_ref=1.0)
    order_times = np.linspace(0.1, 0.7, 13)
    gaps = [
        float(entropy_derivative_check(ricci, big, dt=dt, times=order_times).gap.max())
        for dt in (4e-3, 2e-3)
    ]
    fd_order = math.log2(gaps[0] / gaps[1])
    assert 1.8 <= fd_order <= 2.2

    # torsion runs: same conservation and gap bounds (sampled clear of the
    # collapse, where the stretched-reference W''' makes dt^2 truncation
    # overtake the bound), then a dense search of the exact formula
    # derivative for a negative sample, right up to the collapse floor.
    # The weight does not depend on T_ref, so one solve serves both
    # reference times.
    hom_min = math.inf
    hom_argmin = None
    for h0sq in (0.1, 0.3, 0.5, 0.7, 1.0, 1.5):
        traj = run_flow(CylinderState(1.0, math.sqrt(h0sq), 1.0))
        w_sing = conjugate_heat_homogeneous(traj, T_ref=traj.T_sing)
        for stretch in (1.0, 2.0):
            T_ref = traj.T_sing * stretch
            w = dataclasses.replace(w_sing, T_ref=T_ref)
            ts = np.linspace(0.05, min(traj.T_sing - 0.6, traj.t_end - 1e-3), 10)
            tr = entropy_derivative_check(traj, w, dt=1e-4, times=ts)
            assert np.abs(tr.mass - tr.mass[0]).max() / tr.mass[0] < 1e-9
            assert tr.gap.max() < 1e-6
            # the FD stencil cannot reach the floor, so evaluate the same
            # formula, dW = [2 tau (2 A_s^2 + A_r^2) - h^2] mass, directly
            # on a dense grid there
            dense_ts = np.linspace(0.01, traj.t_end - 1e-9, 200)
            dense = entropy_eval(traj, w, times=dense_ts)
            assert np.abs(dense.mass - dense.mass[0]).max() / dense.mass[0] < 1e-9
            states = np.array([traj.state_at(t) for t in dense_ts])
            lam, h2 = states[:, 0], states[:, 1] ** 2
            tau = T_ref - dense_ts
            A_s = 0.5 / lam - 0.5 * h2 - 0.5 / tau
            A_r = -0.5 * h2 - 0.5 / tau
            formula = (2.0 * tau * (2.0 * A_s ** 2 + A_r ** 2) - h2) * dense.mass
            smallest = min(float(tr.dW_formula.min()), float(formula.min()))
            if smallest < hom_min:
                hom_min, hom_argmin = smallest, (h0sq, stretch)

    # Gaussian weights u = (4 pi tau)^{-3/2} e^{-(a r^2 + b)} on the
    # cylinder flow, a(0) = a0 from 1/4 (dW = 0 at t = 0) to the soliton
    # weight 1/2 (dW = 0 throughout): both derivative routes, same bounds
    min_dW = hom_min
    witness = None
    for a0 in (0.25, 0.3, 0.375, 0.45, 0.5):
        tr = gaussian_entropy_check(a0, np.linspace(0.0, 0.5, 11), dt=1e-4)
        assert np.abs(tr.mass - tr.mass[0]).max() / tr.mass[0] < 1e-9
        assert tr.gap.max() < 1e-6
        i = int(np.argmin(tr.dW_formula))
        if tr.dW_formula[i] < min_dW:
            min_dW = float(tr.dW_formula[i])
            witness = (a0, tr.times[i], tr.dW_formula[i], tr.dW_fd[i], tr.gap[i])
    elapsed = time.perf_counter() - start

    print(
        f"criterion 7 (entropy machinery): {'PASS' if min_dW < 0.0 else 'FAIL'} "
        f"mass_drift={mass_drift:.2e} gap={gap_max:.2e} fd_order={fd_order:.3f} "
        f"ricci_min_dW={trace.dW_formula.min():.4f} homogeneous min dW_formula "
        f"{hom_min:.6e} at h0sq={hom_argmin[0]} T_ref_stretch={hom_argmin[1]}; "
        + (
            f"witness a0={witness[0]} t={witness[1]:.2f} "
            f"dW_formula={witness[2]:.6e} dW_fd={witness[3]:.6e} gap={witness[4]:.2e}"
            if witness else "no negative witness"
        )
        + f" [{elapsed:.2f} s]"
    )
    assert elapsed < 10.0
    assert min_dW < 0.0, (
        f"no sampled torsion run exhibits a negative formula derivative: the "
        f"smallest value found is {min_dW:.6e}.  On the homogeneous family the "
        f"derivative obeys dW = (4 tau A^2 + tau h^4/2 + 1/(2 tau)) * mass with "
        f"A = 1/(2 lambda) - h^2/2 - 1/(2 tau), strictly positive for every "
        f"tau > 0, so the witness has to come from the Gaussian weights; see "
        f"the criterion 7 section of README.md."
    )
    # the finite difference confirms the sign on its own
    assert witness[3] < 0.0 and witness[4] < abs(witness[2])


def test_criterion_8_pointwise_soliton_identities():
    start = time.perf_counter()
    grid = np.linspace(-3.0, 3.0, 201)
    heat = [float(soliton_heat_check(grid, dt=dt).max_abs) for dt in (2e-4, 1e-4)]
    mono = [
        float(pointwise_monotonicity_check(grid, dt=dt).max_abs)
        for dt in (2e-4, 1e-4)
    ]
    assert heat[1] < 1e-5 and mono[1] < 1e-5
    heat_rate = heat[0] / heat[1]
    mono_rate = mono[0] / mono[1]
    assert 3.0 < heat_rate < 5.0  # O(dt^2) under halving
    assert 3.0 < mono_rate < 5.0
    elapsed = time.perf_counter() - start
    print(
        f"criterion 8 (pointwise soliton identities): PASS "
        f"heat_sup={heat[1]:.2e} (x{heat_rate:.2f}) "
        f"mono_sup={mono[1]:.2e} (x{mono_rate:.2f}) [{elapsed:.2f} s]"
    )
    assert elapsed < 5.0


def test_criterion_9_hodge_oracle():
    start = time.perf_counter()
    tol = 1e-5
    rates = {}
    sups = {}
    adj_worst = 0.0
    # amplitudes sized so every residual clears the bound at the target
    # resolution; in dim 4 the canonical top-style data is exact for the
    # divergence law, so that check gets its own generic torsion
    cases = ((3, 32, 64, 0.3, 0.4, 0.4), (4, 24, 48, 0.3, 0.5, 0.2))
    for dim, coarse_n, fine_n, f_amp, h_amp, div_amp in cases:
        measured = {}
        for n in (coarse_n, fine_n):
            grid = PeriodicGrid.cube(dim, n)
            f, H, ref = example_fields(grid, f_amp, h_amp)
            here = {
                "suobing": check_suobing(f, H, reference=ref).residuals["reference"],
                "twisted": check_twisted_codiff(f, H).sup,
            }
            integral = check_integral_identity(f, H)
            assert integral.residuals["relative_gap"] < tol
            closed = integral_closed_form(f_amp, h_amp, dim)
            here["integral"] = abs(integral.values["left"] - closed)
            H_div = H if div_amp == h_amp else example_fields(grid, 1.0, div_amp)[1]
            here["divh2"] = check_divH2(H_div).sup
            measured[n] = here
        for key in ("suobing", "twisted", "divh2"):
            assert measured[fine_n][key] < tol
        for key in ("suobing", "twisted", "integral", "divh2"):
            rate = math.log2(measured[coarse_n][key] / measured[fine_n][key])
            assert 3.5 < rate < 4.5  # 4th-order grid convergence
            rates[f"{dim}d_{key}"] = rate
        sups[dim] = measured[fine_n]

        fine = PeriodicGrid.cube(dim, fine_n)
        for k in range(dim):
            gap = adjointness_gap(
                random_trig_form(fine, k, np.random.default_rng(10 * dim + k)),
                random_trig_form(fine, k + 1, np.random.default_rng(10 * dim + k + 1)),
            )
            assert gap < 1e-8
            adj_worst = max(adj_worst, gap)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 9 (hodge oracle): PASS "
        f"sup_3d={max(v for k, v in sups[3].items() if k != 'integral'):.2e} "
        f"sup_4d={max(v for k, v in sups[4].items() if k != 'integral'):.2e} "
        f"rates={{{', '.join(f'{k}={v:.2f}' for k, v in rates.items())}}} "
        f"adjointness={adj_worst:.2e} [{elapsed:.2f} s]"
    )
    assert elapsed < 30.0
