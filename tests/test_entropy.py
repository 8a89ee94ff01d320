"""Shrinking entropy on the homogeneous cylinder and the explicit soliton."""
import dataclasses

import numpy as np
import pytest

import grflab.entropy as ent
import grflab.warped as warped
from grflab.cylinder import CylinderState, run_flow
from grflab.entropy import (
    conjugate_heat_homogeneous,
    entropy_derivative_check,
    gaussian_entropy_check,
    pointwise_monotonicity_check,
    soliton_heat_check,
)
from grflab.warped import (
    RadialProfile,
    WarpedSolitonData,
    convention_check,
    curvature,
    cylinder_soliton,
    gaussian_shrinker,
)

@pytest.fixture(scope="module")
def weights_ricci(flow_ricci):
    return conjugate_heat_homogeneous(flow_ricci)


@pytest.fixture(scope="module")
def weights_half(flow_half):
    return conjugate_heat_homogeneous(flow_half)


def test_conjugate_heat_closed_forms(flow_ricci, flow_half, weights_ricci, weights_half):
    # the default u0 gives unit initial mass: 1/(16 pi^2) at lambda0 = beta0 = 1
    u0 = 1.0 / (16.0 * np.pi**2)
    assert weights_ricci(0.0) == weights_half(0.0) == u0
    # h0 = 0: u = u0/(1-t); h0^2 = 1/2: u = u0 (1 - t/2)^{-1/2}
    ts = np.linspace(0.0, 0.9, 91)
    assert np.abs(weights_ricci(ts) - u0 / (1.0 - ts)).max() / u0 < 1e-9
    ts = np.linspace(0.0, 1.9, 96)
    assert np.abs(weights_half(ts) - u0 * (1.0 - ts / 2.0) ** -0.5).max() / u0 < 1e-9


@pytest.mark.parametrize("h0sq", [0.0, 0.1, 0.5])
def test_mass_is_conserved(h0sq):
    traj = run_flow(CylinderState(1.0, np.sqrt(h0sq), 1.0))
    weights = conjugate_heat_homogeneous(traj)
    times = np.linspace(0.0, traj.T_sing - 0.3, 25)
    trace = entropy_derivative_check(traj, weights, dt=0, times=times)
    assert np.abs(trace.mass - trace.mass[0]).max() / trace.mass[0] < 1e-9
    assert abs(trace.mass[0] - 1.0) < 1e-9


def test_entropy_initial_value_closed_form(flow_ricci, weights_ricci):
    # unit mass, tau = 1, lambda = beta = 1, h = 0:
    # W(0) = f - 3 + 1 = ln(16 pi^2) - 1.5 ln(4 pi) - 2 = ln(2 sqrt(pi)) - 2
    trace = entropy_derivative_check(flow_ricci, weights_ricci, dt=0, times=np.array([0.0]))
    assert abs(trace.W[0] - (np.log(2.0 * np.sqrt(np.pi)) - 2.0)) < 1e-12


def test_entropy_initial_value_on_separatrix(flow_half, weights_half):
    # tau (1/lambda - h^2/2) = 3/2 exactly on the h0^2 = 1/2 branch
    trace = entropy_derivative_check(flow_half, weights_half, dt=0, times=np.array([0.0]))
    expect = np.log(16.0 * np.pi**2) - 1.5 * np.log(8.0 * np.pi) - 1.5
    assert abs(trace.W[0] - expect) < 1e-10


def test_geometry_term_constant_on_separatrix(flow_half):
    ts = np.linspace(0.0, 1.9, 96)
    states = np.array([flow_half.state_at(t) for t in ts])
    tau = 2.0 - ts
    first = tau * (1.0 / states[:, 0] - states[:, 1] ** 2 / 2.0)
    assert np.abs(first - 1.5).max() < 1e-9


def test_derivative_check_gap_small(flow_ricci, weights_ricci):
    times = np.linspace(0.1, 0.8, 15)
    trace = entropy_derivative_check(flow_ricci, weights_ricci, dt=1e-4, times=times)
    assert trace.gap.max() < 1e-6
    assert trace.gap.max() <= trace.tolerance
    assert np.all(np.isfinite(trace.dW_fd))


def test_gap_above_its_bound_is_a_runtime_error(flow_ricci, weights_ricci):
    # a constant weight does not solve the conjugate heat equation, so the
    # finite difference of W leaves the curvature formula by O(1)
    u0 = weights_ricci(0.0)
    with pytest.raises(RuntimeError, match="derivative routes disagree"):
        entropy_derivative_check(flow_ricci, lambda t: np.full_like(t, u0),
                                 times=np.linspace(0.1, 0.8, 15))


def test_nan_gap_is_a_runtime_error(flow_half, weights_half):
    # tau near 1e308 overflows W to -inf: every gap is NaN and the bound
    # inf, and neither may pass as an agreement
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="derivative routes disagree"):
        entropy_derivative_check(flow_half, weights_half, times=np.linspace(0.1, 1.5, 15),
                                 T_ref=1e308)


def test_skewed_formula_fails_both_testbeds(flow_half, weights_half, monkeypatch):
    # on these windows the bound is tight (1e-6 and 1.43e-6), so a formula
    # off by 1e-4 mass must fail on both testbeds through the one builder
    checks = (
        lambda: entropy_derivative_check(flow_half, weights_half, times=np.linspace(0.1, 0.8, 15)),
        lambda: gaussian_entropy_check(0.375, np.linspace(0.0, 0.3, 7)),
    )
    for check in checks:
        check()
    build = ent._entropy_trace

    def skewed(times, tau, W, m, dt=None, **fd):
        fd["dW_formula"] = fd["dW_formula"] + 1e-4 * m
        return build(times, tau, W, m, dt, **fd)

    monkeypatch.setattr(ent, "_entropy_trace", skewed)
    for check in checks:
        with pytest.raises(RuntimeError, match="derivative routes disagree"):
            check()


@pytest.fixture(scope="module")
def off_separatrix():
    """h0^2 = 0.1, off the separatrix, weighted up to its collapse at t =
    1.32.  The flow is not self-similar, so tau R and tau h^2 vary in time
    and a wrong R or |H|^2 coefficient in the density moves dW, which it
    cannot on the separatrix."""
    flow = run_flow(CylinderState(1.0, np.sqrt(0.1), 1.0))
    return flow, conjugate_heat_homogeneous(flow)


def failing_testbeds(flow_half, weights_half, off_separatrix):
    """The entropy testbeds whose check fails: the homogeneous derivative
    check on and off the separatrix and the Gaussian one, on windows with
    tight bounds (1e-6, 1.09e-6 and 2.7e-6; gaps 4.3e-9, 4.6e-9 and
    3.8e-8), and the cylinder's pointwise identity, whose sup is 4.5e-10,
    above 1e-6."""
    checks = {
        "homogeneous": lambda: entropy_derivative_check(flow_half, weights_half, t_max=0.5),
        "off-separatrix": lambda: entropy_derivative_check(*off_separatrix, t_max=0.5),
        "gaussian": lambda: gaussian_entropy_check(0.375, np.linspace(0.0, 0.5, 11)),
    }
    failed = set()
    for name, check in checks.items():
        try:
            check()
        except RuntimeError as err:
            assert "derivative routes disagree" in str(err)
            failed.add(name)
    if pointwise_monotonicity_check(np.linspace(-3.0, 3.0, 200), dt=1e-4).max_abs > 1e-6:
        failed.add("cylinder")
    return failed


def h2_over_4(integrand):
    # -|H|^2/6 -> -|H|^2/4: gaps 0.33, 0.14 and 1.0, pointwise sup 1.1e-2
    return lambda k, h2, sigma2, tau, u: integrand(k, h2, sigma2, tau, u) - 0.5 * h2 * u


def no_sigma(integrand):
    # |sigma|^2 dropped: Gaussian gap 0.87, pointwise sup 1.7e-2; the
    # homogeneous reduction has no twisted flux to drop
    return lambda k, h2, sigma2, tau, u: integrand(k, h2, 0.0, tau, u)


def no_tau(density):
    # the curvature bracket without its tau: gaps 0.66, 2.0 and 6.7,
    # pointwise sup 7.9e-2
    return lambda k, h2, f, tau, u: density(k, h2, f, 1.0, u)


def h2_over_6(density):
    # -|H|^2/12 -> -|H|^2/6: off-separatrix gap 0.17; on the separatrix
    # the change is a constant times the mass (gap 5.1e-9)
    return lambda k, h2, f, tau, u: density(k, 2.0 * h2, f, tau, u)


def twice_r(density):
    # R -> 2R: off-separatrix gap 0.39; separatrix gap 9.7e-10
    return lambda k, h2, f, tau, u: density(k._replace(R=2.0 * k.R), h2, f, tau, u)


@pytest.mark.parametrize("helper, mutant, failing", [
    ("_integrand", h2_over_4, {"homogeneous", "off-separatrix", "gaussian", "cylinder"}),
    ("_integrand", no_sigma, {"gaussian", "cylinder"}),
    ("_density", no_tau, {"homogeneous", "off-separatrix", "gaussian", "cylinder"}),
    ("_density", h2_over_6, {"off-separatrix"}),
    ("_density", twice_r, {"off-separatrix"}),
], ids=["integrand-H2-over-4", "integrand-no-sigma", "density-no-tau", "density-H2-over-6",
        "density-2R"])
def test_shared_formula_reaches_every_testbed(flow_half, weights_half, off_separatrix,
                                              monkeypatch, helper, mutant, failing):
    # every testbed evaluates W and dW through the one density and the one
    # integrand, so a wrong term in either must fail each testbed it enters
    assert failing_testbeds(flow_half, weights_half, off_separatrix) == set()
    monkeypatch.setattr(ent, helper, mutant(getattr(ent, helper)))
    assert failing_testbeds(flow_half, weights_half, off_separatrix) == failing


def test_derivative_check_fd_order(flow_ricci):
    # large-mass weights push the fd truncation above rounding so the
    # second-order collapse of the gap is measurable
    weights = conjugate_heat_homogeneous(flow_ricci, u0=1.0)
    times = np.linspace(0.1, 0.7, 13)
    gaps = []
    for dt in (4e-3, 2e-3):
        trace = entropy_derivative_check(flow_ricci, weights, dt=dt, times=times)
        gaps.append(float(trace.gap.max()))
    order = np.log2(gaps[0] / gaps[1])
    assert 1.8 <= order <= 2.2


def test_formula_derivative_positivity_identity(flow_half, weights_half):
    # dW/m = 4 tau A_s^2 + tau h^4/2 + 1/(2 tau) with
    # A_s = 1/(2 lambda) - h^2/2 - 1/(2 tau): manifestly positive
    times = np.linspace(0.1, 1.5, 15)
    trace = entropy_derivative_check(flow_half, weights_half, dt=1e-4, times=times)
    states = np.array([flow_half.state_at(t) for t in times])
    tau = 2.0 - times
    lam, h = states[:, 0], states[:, 1]
    a_s = 1.0 / (2.0 * lam) - h**2 / 2.0 - 1.0 / (2.0 * tau)
    identity = (4.0 * tau * a_s**2 + tau * h**4 / 2.0 + 1.0 / (2.0 * tau)) * trace.mass
    assert np.abs(identity - trace.dW_formula).max() < 1e-10 * max(1.0, np.abs(trace.dW_formula).max())
    assert trace.dW_formula.min() > 0.0


@pytest.mark.parametrize("h0sq", [0.0, 0.1, 0.5, 1.5])
def test_formula_derivative_never_negative(h0sq):
    traj = run_flow(CylinderState(1.0, np.sqrt(h0sq), 1.0))
    weights = conjugate_heat_homogeneous(traj)
    times = np.linspace(0.05, traj.T_sing - 0.3, 20)
    trace = entropy_derivative_check(traj, weights, dt=1e-4, times=times)
    assert trace.dW_formula.min() > 0.0
    assert trace.gap.max() < 1e-6


def _gaussian_closed_form(a0, t):
    # dW/mass = 2 tau (2 a tau - 1/tau)^2 + 2 tau a - 1/tau, 1/a = 1/a0 - 4t + 2t^2
    a = 1.0 / (1.0 / a0 - 4.0 * t + 2.0 * t * t)
    tau = 1.0 - t
    return 2.0 * tau * (2.0 * a * tau - 1.0 / tau) ** 2 + 2.0 * tau * a - 1.0 / tau


def test_gaussian_soliton_weight_is_stationary():
    # a0 = 1/2 is the pulled-back soliton weight: W is constant in t
    trace = gaussian_entropy_check(0.5, np.linspace(0.0, 0.5, 11), dt=1e-4)
    assert np.abs(trace.dW_formula).max() < 1e-10
    assert np.abs(trace.dW_fd).max() < 1e-8
    assert np.abs(trace.W - trace.W[0]).max() < 1e-12


@pytest.mark.parametrize("a0", [0.25, 0.3, 0.375, 0.45, 0.6])
def test_gaussian_formula_matches_closed_form(a0):
    times = np.linspace(0.0, 0.3, 7)
    trace = gaussian_entropy_check(a0, times, dt=1e-4)
    expect = _gaussian_closed_form(a0, times)
    assert np.abs(trace.dW_formula / trace.mass - expect).max() < 1e-11
    assert np.abs(trace.mass - trace.mass[0]).max() / trace.mass[0] < 1e-9
    assert abs(trace.mass[0] - 1.0) < 1e-12
    assert trace.gap.max() < 1e-6


def test_gaussian_witness_is_negative_on_both_routes():
    # minimum of the closed form at t = 0: -1/8 at a0 = 3/8
    trace = gaussian_entropy_check(0.375, np.array([0.0, 0.05]), dt=1e-3)
    assert abs(trace.dW_formula[0] + 0.125) < 1e-12
    assert np.all(trace.dW_fd < 0.0)
    assert np.all(trace.gap < 1e-7)


def test_gaussian_fd_order():
    times = np.linspace(0.0, 0.5, 11)
    gaps = [
        float(gaussian_entropy_check(0.375, times, dt=dt).gap.max())
        for dt in (2e-3, 1e-3)
    ]
    assert 1.9 <= np.log2(gaps[0] / gaps[1]) <= 2.1


def test_gaussian_validation():
    for a0 in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="a0"):
            gaussian_entropy_check(a0, [0.1])
    with pytest.raises(ValueError, match="tau"):
        gaussian_entropy_check(0.375, [1.0])
    with pytest.raises(ValueError, match="tau"):
        gaussian_entropy_check(0.375, [0.5, 0.9995], dt=1e-3)  # stencil crosses tau = 0
    with pytest.raises(ValueError):
        gaussian_entropy_check(0.375, [0.1], dt=0.0)
    with pytest.raises(ValueError):
        gaussian_entropy_check(0.375, [])
    # a0 > 1/2 concentrates at t* = 1 - sqrt(1 - 1/(2 a0)) = 1/2 for a0 = 2/3;
    # a window that reaches t* is rejected before any integration, wherever
    # its first sample lies
    with pytest.raises(ValueError, match="concentrates"):
        gaussian_entropy_check(2.0 / 3.0, [0.6])
    with pytest.raises(ValueError, match=r"concentrates at t\* = 0\.5, "):
        gaussian_entropy_check(2.0 / 3.0, [0.1, 0.6])
    with pytest.raises(ValueError, match=r"concentrates at t\* = 0\.465478"):
        gaussian_entropy_check(0.7, np.linspace(0.0, 0.5, 6))


def test_trace_csv_header(flow_ricci, weights_ricci):
    trace = entropy_derivative_check(flow_ricci, weights_ricci, dt=0, times=np.array([0.1, 0.2]))
    lines = trace.to_csv().splitlines()
    assert lines[0] == "t,tau,W,dW_fd,dW_formula,gap"
    assert len(lines) == 3


@pytest.mark.parametrize("dt", [0.0, 1e-4])
@pytest.mark.parametrize("times, message", [
    pytest.param([-0.5, 0.5], "must lie on the flow", id="before-t0"),
    pytest.param([0.5, 5.0], "must lie on the flow", id="after-t-end"),
    pytest.param([0.5, np.nan], "times must be a finite 1-d array", id="nan"),
    pytest.param([[0.5, 0.6]], "times must be a finite 1-d array", id="2-d"),
    pytest.param([], "times must be a finite 1-d array", id="empty"),
    pytest.param([0.5, 1.5], "tau = T_ref - t must stay positive", id="tau"),
])
def test_explicit_samples_are_rejected_by_name(flow_half, weights_half, dt, times, message):
    with pytest.raises(ValueError, match=message):
        entropy_derivative_check(flow_half, weights_half, dt=dt, times=times, T_ref=1.0)


@pytest.mark.parametrize("dt", [0.0, 1e-4])
def test_reference_time_inside_the_window_is_rejected(flow_half, weights_half, dt):
    # T_sing = 2: a T_ref of 1.2 falls inside the default window on both dt
    # paths, and the late samples are not silently dropped
    with pytest.raises(ValueError, match=r"tau = T_ref - t must stay positive on the samples: "
                                         r"T_ref = 1\.2 is not past the window's last sample t = (2|1\.99)"):
        entropy_derivative_check(flow_half, weights_half, dt=dt, T_ref=1.2)
    # capped at t_max = 1 the window ends before T_ref, and the tau >= 50 dt
    # margin removes none of it
    capped = entropy_derivative_check(flow_half, weights_half, dt=dt, t_max=1.0, T_ref=1.2)
    window = flow_half.times
    window = window[(window - dt >= 0.0) & (window + dt <= flow_half.t_end) & (window <= 1.0)]
    assert np.array_equal(capped.times, window)


def test_dt_zero_trace_is_the_check_without_its_derivatives(flow_half, weights_half):
    plain = entropy_derivative_check(flow_half, weights_half, dt=0)
    checked = entropy_derivative_check(flow_half, weights_half, dt=1e-4)
    # the dt = 0 default window is every step of the flow, the ends included
    assert np.array_equal(plain.times, flow_half.times)
    both = np.isin(plain.times, checked.times)
    assert 0 < both.sum() == checked.times.size < plain.times.size
    for name in ("times", "tau", "W", "mass"):
        assert ([x.hex() for x in getattr(plain, name)[both].tolist()]
                == [x.hex() for x in getattr(checked, name).tolist()]), name
    for name in ("dW_fd", "dW_formula", "gap"):
        assert np.all(np.isnan(getattr(plain, name))), name
    assert plain.tolerance is None


def test_validation_errors(flow_ricci, weights_ricci):
    with pytest.raises(ValueError):
        conjugate_heat_homogeneous(flow_ricci, u0=-1.0)
    with pytest.raises(ValueError):
        conjugate_heat_homogeneous(flow_ricci, u0=0.0)
    no_collapse = run_flow(CylinderState(1.0, 0.3, 1.0), tmax=0.1)
    with pytest.raises(RuntimeError, match="flow did not collapse; pass an explicit T_ref"):
        entropy_derivative_check(no_collapse, conjugate_heat_homogeneous(no_collapse, u0=1.0))
    with pytest.raises(ValueError, match="T_ref must be finite"):
        entropy_derivative_check(flow_ricci, weights_ricci, T_ref=np.inf)
    with pytest.raises(ValueError):
        entropy_derivative_check(flow_ricci, weights_ricci, dt=0, times=np.array([5.0]))
    for dt in (-1e-4, np.nan):
        with pytest.raises(ValueError, match="dt must be positive, or 0"):
            entropy_derivative_check(flow_ricci, weights_ricci, dt=dt)


def test_soliton_heat_identity_converges():
    grid = np.linspace(-3.0, 3.0, 200)
    sups = [soliton_heat_check(grid, dt=dt).max_abs for dt in (2e-4, 1e-4)]
    assert sups[1] < 1e-5
    assert 3.5 < sups[0] / sups[1] < 4.5  # O(dt^2)


def test_soliton_heat_identity_gaussian():
    grid = np.linspace(0.1, 3.0, 200)
    rep = soliton_heat_check(grid, dt=1e-4, data=gaussian_shrinker())
    assert rep.max_abs < 1e-7


def test_pointwise_monotonicity_converges():
    grid = np.linspace(-3.0, 3.0, 200)
    sups = [pointwise_monotonicity_check(grid, dt=dt).max_abs for dt in (2e-4, 1e-4)]
    assert sups[1] < 1e-8
    assert 3.0 < sups[0] / sups[1] < 5.0


def test_pointwise_monotonicity_gaussian_trivial():
    grid = np.linspace(0.1, 3.0, 200)
    rep = pointwise_monotonicity_check(grid, dt=1e-4, data=gaussian_shrinker())
    assert rep.max_abs < 1e-10


def shifted(field):
    """warped.curvature with one of its fields raised by 1e-3."""
    def mutant(*args):
        k = curvature(*args)
        return k._replace(**{field: getattr(k, field) + 1e-3})

    return mutant


def test_shifted_ricci_scalar_fails_both_identities(monkeypatch):
    # R enters the heat identity's right side and the box* operator on the
    # density; a 1e-3 error in it must stand far above each identity's sup
    grid = np.linspace(-3.0, 3.0, 200)
    checks = (soliton_heat_check, pointwise_monotonicity_check)
    clean = [check(grid, dt=1e-4).max_abs for check in checks]
    assert clean[0] < 2e-7 and clean[1] < 5e-10
    monkeypatch.setattr(ent, "curvature", shifted("R"))
    shifted_sups = [check(grid, dt=1e-4).max_abs for check in checks]
    assert shifted_sups[0] > 9e-4 and shifted_sups[1] > 3e-5


def test_shifted_sphere_ricci_fails_the_soliton_gate(monkeypatch):
    grid = np.linspace(-3.0, 3.0, 200)
    monkeypatch.setattr(warped, "curvature", shifted("ric_s"))
    report = convention_check(cylinder_soliton(), grid)
    assert report.failing == ("tensor equations (lambda_soliton)",)
    for check in (soliton_heat_check, pointwise_monotonicity_check):
        with pytest.raises(ValueError, match="data is not a soliton"):
            check(grid, dt=1e-4)


def test_soliton_gate_errors():
    grid = np.linspace(-3.0, 3.0, 50)
    with pytest.raises(ValueError, match="restricted"):
        soliton_heat_check(np.linspace(-6.0, 6.0, 50), dt=1e-4)
    broken = dataclasses.replace(cylinder_soliton(), h=RadialProfile.constant(1.1))
    with pytest.raises(ValueError, match="not a soliton"):
        soliton_heat_check(grid, dt=1e-4, data=broken)
    # genuine soliton rescaled to constant 1/2: passes the residual gate
    # but the identities here require constant exactly 1
    rescaled = WarpedSolitonData(
        phi=RadialProfile.constant(np.sqrt(2.0)),
        h=RadialProfile.constant(1.0 / np.sqrt(2.0)),
        f=RadialProfile(lambda r: r * r / 4.0, lambda r: r / 2.0, lambda r: 0.5 + 0.0 * r),
        lambda_ode=0.25,
    )
    with pytest.raises(ValueError, match="constant 1"):
        soliton_heat_check(grid, dt=1e-4, data=rescaled)
    with pytest.raises(ValueError):
        soliton_heat_check(grid, dt=0.0)
    with pytest.raises(ValueError):
        pointwise_monotonicity_check(grid, dt=1e-4, dr=0.0)
    # the pullback family needs tau = 1 - dt > 0
    for check in (soliton_heat_check, pointwise_monotonicity_check):
        with pytest.raises(ValueError, match=r"dt must lie in \(0, 1\)"):
            check(grid, dt=1.0)


def test_sphere_area_constant():
    assert ent.SPHERE_AREA == 8.0 * np.pi
