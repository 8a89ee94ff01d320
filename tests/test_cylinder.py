"""Homogeneous cylinder flow: closed forms, invariants, blowup, torsion."""
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grflab import odesolve
from grflab.cylinder import (
    CylinderState,
    _rhs,
    blowup_analysis,
    run_flow,
    torsion_divergence,
)

T_SING_H01 = 1.322806705723048  # frozen from a high-precision independent solve

# wrong-side slack for sign/monotone checks: the true gap decays below
# the integrator's local error (rtol 1e-11) just before the floor event
NOISE = 1e-9


def test_scalar_state_at_matches_dense_output(recorded_solves, scipy_twin):
    # state_at gives scipy's OdeSolution values bit for bit, scalar and
    # vectorized, on step points (earlier segment), between them and just
    # outside the run
    rng = np.random.default_rng(5)
    for h0sq in (0.3, 0.5):
        runs = []
        state = CylinderState(1.0, np.sqrt(h0sq), 1.0)
        (call,) = recorded_solves(odesolve, lambda: runs.append(run_flow(state)))
        run, ref = runs[0], scipy_twin(*call)[1]
        ts = np.concatenate(
            [rng.uniform(0.0, run.t_end, 2000), run.times, [-1e-3, run.t_end + 1e-3]]
        )
        scipy = f"differs from scipy {sys.modules['scipy'].__version__}"
        assert all(np.array_equal(run.state_at(float(t)), ref.sol(t)) for t in ts), scipy
        assert all(np.array_equal(run.state_at(t), ref.sol(t)) for t in ts[:50]), scipy
        assert np.array_equal(run.state_at(ts), ref.sol(ts)), scipy


def test_rhs_closed_form():
    # (lambda', h', beta', I') at (lambda, h, beta, I)
    out = _rhs(0.0, np.array([1.0, 1.0, 1.0, 0.0]))
    assert np.allclose(out, [0.0, -0.5, 0.5, 6.0], atol=1e-15)
    out = _rhs(0.0, np.array([2.0, 0.0, 3.0, 5.0]))
    assert np.allclose(out, [-1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_ricci_case_closed_form(flow_ricci):
    # h0 = 0: lambda = 1 - t, h = 0, beta = 1, collapse at t = 1
    assert flow_ricci.termination == "singularity"
    assert abs(flow_ricci.T_sing - 1.0) < 1e-5
    ts = np.linspace(0.0, 0.9, 300)
    states = np.array([flow_ricci.state_at(t) for t in ts])
    assert np.abs(states[:, 0] - (1.0 - ts)).max() < 1e-8
    assert np.abs(states[:, 1]).max() == 0.0
    assert np.abs(states[:, 2] - 1.0).max() == 0.0


def test_half_case_closed_form(flow_half):
    # h0^2 = 1/2 sits on the separatrix: lambda h^2 = 1/2 for all t
    assert abs(flow_half.T_sing - 2.0) < 1e-5
    ts = np.linspace(0.0, 1.9, 300)
    states = np.array([flow_half.state_at(t) for t in ts])
    assert np.abs(states[:, 0] - (1.0 - ts / 2.0)).max() < 1e-8
    assert np.abs(states[:, 1] ** 2 - 1.0 / (2.0 - ts)).max() < 1e-8
    assert np.abs(states[:, 2] - (1.0 - ts / 2.0) ** -0.5).max() < 1e-8


def test_singular_time_regression():
    traj = run_flow(CylinderState(1.0, np.sqrt(0.1), 1.0))
    assert abs(traj.T_sing - T_SING_H01) < 1e-9


@pytest.mark.parametrize("h0sq", [0.05, 0.1, 0.3, 0.7, 1.5])
def test_conserved_and_monotone_diagnostics(h0sq):
    traj = run_flow(CylinderState(1.0, np.sqrt(h0sq), 1.0))
    q = traj.lam * traj.h * traj.beta
    assert np.abs(q - q[0]).max() < 1e-9

    u = 0.5 - traj.lambda_h2
    assert np.all(np.sign(u[0]) * u > -NOISE)

    d = np.diff(traj.lambda_h2)
    if h0sq < 0.5:
        assert np.all(d > -NOISE)  # lambda h^2 climbs to 1/2
    else:
        assert np.all(d < NOISE)  # and descends to 1/2 from above


def test_no_collapse_within_short_horizon():
    traj = run_flow(CylinderState(1.0, 0.3, 1.0), tmax=0.1)
    assert traj.termination == "reached_tmax"
    assert traj.T_sing is None


def test_underflowing_run_is_quiet():
    # lambda0 = 1e-300 overflows the rhs on the first stages; the run ends
    # on its underflow label without a floating-point warning on the way.
    # The floor must lie below lambda0, hence one under it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_flow(CylinderState(1e-300, math.sqrt(0.1), 1.0), lam_floor=1e-310)
    assert traj.termination == "step_underflow"


def test_stage_on_lambda_zero_is_quiet():
    # at atol 1 the first step is the 1e-6 default, lambda0 itself, so the
    # initial-step probe lands on lambda = 1e-6 - 1e-6 = 0 exactly, where
    # h / lambda is 0 / 0: a nan, as numpy divides, and no exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_flow(CylinderState(1e-6, 0.0, 1e-7), rtol=1e-3, atol=1.0, lam_floor=1e-7)
    assert traj.termination == "singularity"
    assert traj.T_sing == pytest.approx(1e-6, rel=1e-12)  # lambda = lambda0 - t


@pytest.mark.parametrize("h0sq", [0.1, 0.3, 0.7])
def test_blowup_limit_is_half(h0sq):
    traj = run_flow(CylinderState(1.0, np.sqrt(h0sq), 1.0))
    rep = blowup_analysis(traj)
    assert abs(rep.limit - 0.5) < 1e-9
    assert rep.limit_error < 1e-6
    assert rep.opening_increasing
    assert rep.opening_max > 1e6
    assert not rep.ricci_case
    assert len(rep.sample_times) == 18


def test_blowup_flags_ricci_case(flow_ricci):
    rep = blowup_analysis(flow_ricci)
    assert rep.ricci_case
    assert rep.limit == 0.0
    assert rep.opening_increasing


def test_blowup_needs_collapse():
    traj = run_flow(CylinderState(1.0, 0.3, 1.0), tmax=0.1)
    with pytest.raises(RuntimeError):
        blowup_analysis(traj)


def test_torsion_integral_closed_form(flow_half):
    ts = np.linspace(0.0, 1.9, 400)
    I = np.array([flow_half.state_at(t)[3] for t in ts])
    exact = 6.0 * np.log(2.0 / (2.0 - ts))
    rel = np.abs(I - exact) / np.maximum(1.0, np.abs(exact))
    assert rel.max() < 1e-6


def test_torsion_divergence_witness(flow_half):
    rep = torsion_divergence(flow_half, psi0=12.0)
    assert abs(rep.log_coefficient - 6.0) < 1e-6
    # I(t*) = 12 --> t* = 2 - 2 e^{-2}
    assert abs(rep.crossing_time - (2.0 - 2.0 * np.exp(-2.0))) < 1e-9
    assert rep.psi0 == 12.0
    assert rep.I_end > 12.0


def test_torsion_crossing_unreached(flow_half):
    rep = torsion_divergence(flow_half, psi0=1e9)
    assert rep.crossing_time is None


def test_torsion_rejects_ricci_case(flow_ricci):
    with pytest.raises(ValueError):
        torsion_divergence(flow_ricci)


@pytest.mark.parametrize("n_samples", [0, 2])
def test_blowup_rejects_fewer_than_three_samples(flow_half, n_samples):
    with pytest.raises(ValueError, match="n_samples must be at least 3"):
        blowup_analysis(flow_half, n_samples=n_samples)


@pytest.mark.parametrize("fit_points", [0, 1])
def test_torsion_rejects_fewer_than_two_fit_points(flow_half, fit_points):
    # one point fits no line: numpy's polyfit would warn and return 3.13
    with pytest.raises(ValueError, match="fit_points must be at least 2"):
        torsion_divergence(flow_half, fit_points=fit_points)


def test_csv_output(flow_half):
    lines = flow_half.to_csv(dt_out=0.25).splitlines()
    assert lines[0] == "t,lambda,h,beta,lambda_h2,u,lambda_h_beta,torsion_integral"
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(np.diff(rows[:, 0]), 0.25, atol=1e-12)
    # 17 significant digits round-trip the doubles exactly
    assert rows[1, 2] == flow_half.state_at(0.25)[1]
    i = int(np.argmin(np.abs(rows[:, 0] - 1.0)))
    assert abs(rows[i, 1] - 0.5) < 1e-9


@pytest.mark.parametrize("dt_out", [-0.01, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_csv_rejects_a_step_that_is_not_finite_and_positive(flow_half, dt_out):
    with pytest.raises(ValueError, match="dt_out must be None or a finite positive number"):
        flow_half.to_csv(dt_out=dt_out)


def test_state_validation():
    with pytest.raises(ValueError):
        CylinderState(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CylinderState(1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        CylinderState(np.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        run_flow(CylinderState(1.0, 0.0, 1.0), tmax=0.0)


@settings(max_examples=8, deadline=None)
@given(h0sq=st.floats(min_value=0.01, max_value=1.4))
def test_product_invariant_on_random_initial_torsion(h0sq):
    traj = run_flow(CylinderState(1.0, np.sqrt(h0sq), 1.0), tmax=0.6)
    q = traj.lambda_h_beta
    assert np.abs(q - q[0]).max() < 1e-9
    u = 0.5 - traj.lambda_h2
    assert np.all(np.sign(u[0]) * u > -NOISE)
