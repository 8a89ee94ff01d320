"""Integrator front end: closed forms, event location, termination labels,
and bit-for-bit agreement with scipy's RK45 and brentq."""
import importlib.util
import math
import os

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from grflab import cylinder, entropy, odesolve, shooting
from grflab.odesolve import (
    BLOWUP_CEILING,
    RTOL_FLOOR,
    TERMINATIONS,
    EventSpec,
    Trajectory,
    brentq,
    integrate,
)

SCIPY = f"scipy {scipy.__version__}"


def test_exponential_decay_matches_closed_form():
    traj = integrate(lambda t, y: -y, (0.0, 5.0), [1.0])
    assert traj.termination == "reached_tmax"
    assert traj.t_end == 5.0
    # accepted steps and the dense interpolant both track e^{-t}
    ts = np.linspace(0.0, 5.0, 200)
    dense = np.array([traj.sol(t)[0] for t in ts])
    assert np.abs(dense - np.exp(-ts)).max() < 1e-8
    assert np.abs(traj.states[:, 0] - np.exp(-traj.times)).max() < 1e-8
    assert np.all(np.diff(traj.times) > 0)


def test_terminal_event_stops_at_crossing():
    ev = EventSpec(indicator=lambda t, y: y[0] - 0.5, direction="rising", terminal=True)
    traj = integrate(lambda t, y: np.ones(1), (0.0, 2.0), [0.0], events=(ev,))
    assert traj.termination == "event"
    assert abs(traj.t_end - 0.5) < 1e-10
    t_ev, y_ev, idx = traj.events[0]
    assert idx == 0
    assert abs(t_ev - 0.5) < 1e-10
    assert abs(y_ev[0] - 0.5) < 1e-10


def test_event_directions_on_oscillator():
    # state (y, y'), y = sin t: falling zeros at odd multiples of pi,
    # rising at even ones (t0 sits on a rising zero and counts)
    def oscillator(direction):
        event = EventSpec(indicator=lambda t, y: y[0], direction=direction)
        return integrate(lambda t, y: np.array([y[1], -y[0]]), (0.0, 14.0), [0.0, 1.0],
                         events=(event,))

    rising, falling, both = map(oscillator, ("rising", "falling", "any"))

    t_rise = [t for t, _, _ in rising.events]
    t_fall = [t for t, _, _ in falling.events]
    t_any = [t for t, _, _ in both.events]
    assert np.allclose(t_rise, [0.0, 2 * np.pi, 4 * np.pi], atol=1e-8)
    assert np.allclose(t_fall, [np.pi, 3 * np.pi], atol=1e-8)
    assert np.allclose(t_any, np.pi * np.arange(0, 5), atol=1e-8)
    assert t_any == sorted(t_any)


def test_blowup_ceiling_terminates_run():
    # y' = y^2 from 1 blows up at t = 1; y = 1/(1-t)
    traj = integrate(lambda t, y: y * y, (0.0, 2.0), [1.0])
    assert traj.termination == "blowup"
    assert traj.events == []  # the sentinel's own crossing is not reported
    # ceiling crossing located where 1/(1-t) = 1e12
    assert abs(traj.t_end - (1.0 - 1.0 / BLOWUP_CEILING)) < 1e-10
    assert traj.states[-1][0] >= 0.99 * BLOWUP_CEILING


@pytest.mark.parametrize("t_user, termination", [(0.4, "event"), (0.6, "blowup")])
def test_blowup_label_names_the_root_that_stopped_the_run(t_user, termination):
    # y = 2e12 t crosses the ceiling at t = 0.5 inside the last step, which
    # spans [0.111, 1] and also holds the user's terminal root: the earlier
    # root stops the run and names it
    stop = EventSpec(lambda t, y: t - t_user, terminal=True)
    traj = integrate(lambda t, y: np.full(1, 2.0 * BLOWUP_CEILING), (0.0, 1.0), [0.0],
                     events=(stop,))
    assert traj.times[-2] < 0.4
    assert traj.termination == termination
    assert abs(traj.t_end - min(t_user, 0.5)) < 1e-12
    assert [idx for _, _, idx in traj.events] == ([0] if termination == "event" else [])


def test_step_underflow_is_reported():
    # integrable blowup of the rhs itself; the adaptive step collapses
    # approaching t = 1/2 and the failure must be labeled, not raised
    traj = integrate(lambda t, y: np.array([1.0 / (0.5 - t)]), (0.0, 1.0), [0.0])
    assert traj.termination == "step_underflow"
    assert abs(traj.t_end - 0.5) < 1e-6


def test_determinism_bitwise():
    problem = (lambda t, y: np.array([y[1], -np.sin(y[0])]), (0.0, 10.0), [1.0, 0.0])
    a = integrate(*problem)
    b = integrate(*problem)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.nfev == b.nfev


def decay(t, y):
    return -y


def test_problem_validation():
    # solve_ivp checks the inputs of both; each message names the value
    for solve in (integrate, odesolve.solve_ivp):
        with pytest.raises(ValueError, match=r"increasing, got \(0, 0\)"):
            solve(decay, (0.0, 0.0), [1.0])
        with pytest.raises(ValueError, match="finite, got .*nan"):
            solve(decay, (0.0, 1.0), [np.nan])
        with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
            solve(decay, (0.0, 1.0), np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"finite, got \(inf, inf\)"):
            solve(decay, (np.inf, np.inf), [1.0])
        with pytest.raises(ValueError, match=r"finite, got \(0, inf\)"):
            solve(decay, (0.0, np.inf), [1.0])
        with pytest.raises(ValueError, match=r"got shape \(0,\)"):
            solve(decay, (0.0, 1.0), [])


def test_integrate_validation():
    with pytest.raises(ValueError, match="got 0"):
        integrate(decay, (0.0, 1.0), [1.0], rtol=0.0)
    with pytest.raises(ValueError, match="atol must be positive, got -1"):
        integrate(decay, (0.0, 1.0), [1.0], atol=-1.0)
    with pytest.raises(ValueError, match="atol must be positive, got 0"):
        odesolve.solve_ivp(decay, (0.0, 1.0), [1.0], atol=0.0)
    # a tolerance below the floor is refused, not clamped to it
    with pytest.raises(ValueError, match="100 eps"):
        integrate(decay, (0.0, 1.0), [1.0], rtol=0.5 * RTOL_FLOOR)
    with pytest.raises(ValueError, match="100 eps"):
        odesolve.solve_ivp(decay, (0.0, 1.0), [1.0], rtol=1e-20)
    integrate(decay, (0.0, 1.0), [1.0], rtol=RTOL_FLOOR)
    with pytest.raises(ValueError):
        EventSpec(indicator=lambda t, y: y[0], direction="up")
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0]),
            states=np.array([[1.0]]),
            events=[],
            termination="exploded",
        )
    with pytest.raises(ValueError, match="rhs returned shape"):
        integrate(lambda t, y: np.zeros(3), (0.0, 1.0), [1.0])


def test_dense_output_of_no_times_is_empty():
    traj = integrate(lambda t, y: -y, (0.0, 1.0), [1.0, 2.0])
    out = traj.sol(np.array([]))
    assert out.shape == (2, 0)
    assert out.dtype == float


def test_dense_output_rejects_a_2d_time_array():
    traj = integrate(lambda t, y: -y, (0.0, 1.0), [1.0, 2.0])
    with pytest.raises(ValueError, match=r"a time or a 1-d array, got shape \(2, 2\)"):
        traj.sol(np.full((2, 2), 0.5))


def test_termination_labels_are_closed_set():
    assert TERMINATIONS == ("reached_tmax", "event", "blowup", "step_underflow")


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=-2.0, max_value=2.0),
    y0=st.floats(min_value=0.5, max_value=2.0),
)
def test_linear_ode_matches_exponential(a, y0):
    traj = integrate(lambda t, y: a * y, (0.0, 3.0), [y0])
    expect = y0 * np.exp(a * 3.0)
    assert abs(traj.states[-1][0] - expect) <= 1e-7 * max(1.0, abs(expect))


# --------------------------------------------------------------------------
# bit for bit against scipy.integrate.solve_ivp(method="RK45") and brentq


# scipy's status codes as Trajectory termination labels
STATUS = {0: "reached_tmax", 1: "event", -1: "step_underflow"}


def events_by_index(traj, n):
    """traj.events split per event index, as scipy's t_events and y_events."""
    assert all(0 <= idx < n for _, _, idx in traj.events)
    per_index = [[rec for rec in traj.events if rec[2] == i] for i in range(n)]
    return ([np.array([t for t, _, _ in recs]) for recs in per_index],
            [np.array([y for _, y, _ in recs]) for recs in per_index])


def assert_same_run(ours, ref, points=1000):
    for mine, theirs, name in ((ours.times, ref.t, "t"), (ours.states, ref.y.T, "y"),
                               (ours.termination, STATUS[ref.status], "status"),
                               (ours.nfev, ref.nfev, "nfev")):
        assert np.array_equal(mine, theirs), f"{name} differs from {SCIPY}"
    ref_events = ([], []) if ref.t_events is None else (ref.t_events, ref.y_events)
    for mine, theirs in zip(events_by_index(ours, len(ref_events[0])), ref_events):
        for i, (a, b) in enumerate(zip(mine, theirs)):
            assert np.array_equal(a, b), f"event {i} differs from {SCIPY}"
    times = [t for t, _, _ in ours.events]
    assert times == sorted(times)
    # points across the run plus every step point, where the earlier
    # step's interpolant must be the one used
    ts = ours.sol.ts
    pts = np.concatenate([np.linspace(ts[0], ts[-1], points), ts])
    assert np.array_equal(ours.sol(pts), ref.sol(pts)), f"vectorized dense output differs from {SCIPY}"
    for t in pts:
        assert np.array_equal(ours.sol(t), ref.sol(t)), f"dense output at t={t!r} differs from {SCIPY}"


@pytest.mark.parametrize("h0sq", [0.0, 0.1, 0.3, 0.5, 1.5, 3.0])
def test_cylinder_flow_matches_scipy(recorded_solves, scipy_twin, h0sq):
    # the lambda-floor event and the blowup-ceiling sentinel ride along
    state = cylinder.CylinderState(1.0, np.sqrt(h0sq), 1.0)
    (call,) = recorded_solves(odesolve, lambda: cylinder.run_flow(state))
    assert len(call[1]["events"]) == 2
    assert_same_run(*scipy_twin(*call))


def test_shooting_matches_scipy(recorded_solves, scipy_twin):
    (call,) = recorded_solves(odesolve, shooting.shoot_r3_branch)
    ours, ref = scipy_twin(*call)
    # four milestones, no ceiling crossing
    assert [t.size for t in events_by_index(ours, 5)[0]] == [1, 1, 1, 1, 0]
    assert_same_run(ours, ref)


def test_gaussian_pair_matches_scipy(recorded_solves, scipy_twin):
    (call,) = recorded_solves(
        odesolve, lambda: entropy.gaussian_entropy_check(0.375, np.linspace(0.0, 0.5, 11))
    )
    assert_same_run(*scipy_twin(*call))


def test_conjugate_heat_solve_matches_scipy(recorded_solves, scipy_twin):
    from scipy.integrate import solve_ivp

    traj = cylinder.run_flow(cylinder.CylinderState(1.0, np.sqrt(0.5), 1.0))
    weights = []
    (call,) = recorded_solves(
        entropy, lambda: weights.append(entropy.conjugate_heat_homogeneous(traj, u0=1.0))
    )
    assert "t_eval" not in call[1]
    assert_same_run(*scipy_twin(*call))
    # u at the flow's steps is the dense output there, as scipy's t_eval gives it
    ref = solve_ivp(*call[0], method="RK45", t_eval=traj.times, **call[1])
    assert np.array_equal(weights[0](traj.times), ref.y[0]), f"u differs from {SCIPY}"


def test_nan_indicator_crosses_nothing_as_in_scipy(recorded_solves, scipy_twin):
    # y = exp(-t) passes 1/2 at t = ln 2, inside the span where the first
    # indicator is NaN: NaN compares false, so neither solver sees that
    # crossing, while the second indicator, NaN there too, crosses at ln 5
    def g(level):
        return lambda t, y: math.nan if 0.5 <= t <= 1.0 else y[0] - level

    events = (EventSpec(g(0.5), "any", True), EventSpec(g(0.2), "falling"))
    runs = []
    (call,) = recorded_solves(
        odesolve, lambda: runs.append(integrate(decay, (0.0, 3.0), [1.0], events=events))
    )
    ours, ref = scipy_twin(*call)
    assert_same_run(ours, ref)
    assert ref.t_events[0].size == 0
    traj = runs[0]
    assert traj.termination == "reached_tmax"
    assert [idx for _, _, idx in traj.events] == [1]
    assert abs(traj.events[0][0] - math.log(5.0)) < 1e-9


def test_step_control_matches_scipy_across_a_jump(recorded_solves, scipy_twin):
    # a source switched on at t = 1: the step that straddles the switch
    # misses the tolerance by far more than 5x, so the step shrinks by
    # MIN_FACTOR; none of the lab's own runs rejects a step that hard
    def jump(t, y):
        return np.array([1e6 if t > 1.0 else 0.0])

    (call,) = recorded_solves(odesolve, lambda: integrate(jump, (0.0, 2.0), [0.0]))
    assert_same_run(*scipy_twin(*call))


def test_crossings_within_one_step_sort_by_time_then_index(recorded_solves, scipy_twin):
    # y = t: the last step spans [0.111, 1] and holds every crossing; index 0
    # crosses last, and indices 1 and 2 tie
    late = EventSpec(lambda t, y: y[0] - 0.6)
    early = EventSpec(lambda t, y: y[0] - 0.3)
    runs = []
    (call,) = recorded_solves(odesolve, lambda: runs.append(
        integrate(lambda t, y: np.ones(1), (0.0, 1.0), [0.0], events=(late, early, early))
    ))
    assert_same_run(*scipy_twin(*call))
    traj = runs[0]
    assert traj.times[-2] < 0.3
    assert [idx for _, _, idx in traj.events] == [1, 2, 0]


@pytest.mark.parametrize("k", [0, 7])
def test_terminal_crossing_at_a_step_start_matches_scipy(recorded_solves, scipy_twin, k):
    # |t - t_k| touches 0 at the step point t_k, falling into it and rising
    # out of it: the rising terminal event's root is the next step's start,
    # so the run ends at t_k without that step.  At t0 (k = 0) the step is
    # kept and t0 appears twice, as in scipy.
    free = integrate(decay, (0.0, 5.0), [1.0])
    t_k = free.times[k]
    touch = EventSpec(lambda t, y: abs(t - t_k), direction="rising", terminal=True)
    runs = []
    (call,) = recorded_solves(
        odesolve, lambda: runs.append(integrate(decay, (0.0, 5.0), [1.0], events=(touch,)))
    )
    ours, ref = scipy_twin(*call)
    assert_same_run(ours, ref)
    traj = runs[0]
    assert traj.termination == "event"
    assert traj.events == [(t_k, free.states[k], 0)]
    if k == 0:
        assert np.array_equal(traj.times, [0.0, 0.0])
        assert np.array_equal(traj.states, free.states[[0, 0]])
        assert len(ours.sol.steps) == 1
    else:
        assert np.array_equal(traj.times, free.times[: k + 1])
        assert np.array_equal(traj.states, free.states[: k + 1])
        assert len(ours.sol.steps) == k
        ts = np.linspace(0.0, t_k, 101)
        assert np.array_equal(traj.sol(ts), free.sol(ts))


def brent_iterates(f, a, b, **kwargs):
    """Points each Brent visits on f over [a, b], then its root or the
    error it raised."""
    from scipy.optimize import brentq as scipy_brentq

    visited = []
    for solver in (brentq, scipy_brentq):
        xs = []
        try:
            xs.append(solver(lambda x: xs.append(x) or f(x), a, b, **kwargs))
        except (ValueError, RuntimeError) as exc:
            xs.append(type(exc))
        visited.append(xs)
    return visited


def test_brentq_matches_scipy_on_the_torsion_crossing():
    # torsion --psi0 12: I(t) = 12 on the default h0sq = 0.5 flow
    traj = cylinder.run_flow(cylinder.CylinderState(1.0, np.sqrt(0.5), 1.0))
    ours, ref = brent_iterates(
        lambda t: traj.state_at(t)[3] - 12.0, traj.times[0], traj.t_end, xtol=1e-13
    )
    assert len(ours) > 5
    assert ours == ref, f"Brent iterates differ from {SCIPY}"


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: x * x - 2.0, 0.0, 2.0),  # |f(a)| = |f(b)|: the bracket ends tie
    (lambda x: x**5 - 0.1, -2.0, 1.0),
    (lambda x: np.cos(x) - x, 0.0, 1.0),
    (lambda x: np.exp(x) - 2.0, -4.0, 4.0),
    (lambda x: np.arctan(50.0 * (x - 0.3)) + 0.1, -2.0, 2.0),  # steep: bisects
    (lambda x: (x - 0.3) ** 9, -1.0, 1.5),  # flat: creeps by delta, never converges
    (lambda x: x - 5.0, 0.0, 1.0),  # no sign change
], ids=["cubic", "sqrt2", "quintic", "cos", "exp", "arctan", "flat", "same-sign"])
def test_brentq_matches_scipy(f, a, b):
    ours, ref = brent_iterates(f, a, b)
    assert ours == ref, f"Brent iterates differ from {SCIPY}"


# --------------------------------------------------------------------------
# seeded random twins: the fixed runs above, and problems drawn at random

def _random_problem(rng):
    """(label, fun, y0) for 1-4 states and a linear, quadratic or tanh
    right-hand side that stays bounded on every drawn span."""
    n = int(rng.integers(1, 5))
    kind = str(rng.choice(("linear", "quadratic", "tanh")))
    A = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, n)
    c = rng.uniform(-1.0, 1.0, n)
    if kind == "linear":
        return kind, lambda t, y: A @ y + b + c * t, rng.uniform(-1.0, 1.0, n)
    if kind == "quadratic":
        # competitive Lotka-Volterra: the diagonal outweighs the coupling,
        # so positive states stay positive and bounded
        M = rng.uniform(-0.3, 0.3, (n, n)) / n
        np.fill_diagonal(M, -rng.uniform(0.5, 2.0, n))
        return kind, lambda t, y: y * (b + M @ y), rng.uniform(0.1, 2.0, n)
    return kind, lambda t, y: np.tanh(A @ y + b + c * t), rng.uniform(-1.0, 1.0, n)


def _event(rng, g, directions=("rising", "falling", "any"), terminal=None):
    """EventSpec on the indicator g with a direction drawn from directions;
    terminal as given, else drawn."""
    if terminal is None:
        terminal = bool(rng.random() < 0.3)
    return EventSpec(g, str(rng.choice(directions)), terminal)


def _random_solve(rng, case):
    """(description, (args, kwargs)) of one odesolve.solve_ivp call.  case
    forces a hard input on a random problem: 'step-start' puts a root on a
    step point of the free run, 'one-step' two crossings inside one of its
    steps, 't0' a terminal root at t0, and 'floor' sets rtol to RTOL_FLOOR
    on a short span; 'random' and 'floor' draw 0-3 linear events whose
    level is offset at random from the start."""
    label, fun, y0 = _random_problem(rng)
    n = y0.size
    t0 = float(rng.uniform(-1.0, 1.0))
    span = (t0, t0 + float(rng.uniform(0.1, 0.5 if case == "floor" else 5.0)))
    tol = {"rtol": RTOL_FLOOR if case == "floor" else float(10.0 ** rng.uniform(-13.0, -3.0)),
           "atol": float(10.0 ** rng.uniform(-14.0, -4.0))}
    events = []
    if case in ("random", "floor"):
        for _ in range(int(rng.integers(0, 4))):
            w, d = rng.uniform(-1.0, 1.0, n), float(rng.uniform(-1.0, 1.0))
            level = float(w @ y0) + d * t0 + float(rng.uniform(-1.0, 1.0))
            events.append(_event(rng, lambda t, y, w=w, d=d, e=level: w @ y + d * t - e))
    elif case == "t0":
        w, d = rng.uniform(-1.0, 1.0, n), float(rng.uniform(-1.0, 1.0))
        events.append(_event(rng, lambda t, y: w @ (y - y0) + d * (t - t0), ("any",), True))
    else:
        free = odesolve.solve_ivp(fun, span, y0, **tol)
        k = int(rng.integers(1, free.times.size - 1))
        if case == "step-start":
            t_k = float(free.times[k])
            events.append(_event(rng, lambda t, y: t - t_k, ("rising", "any")))
        else:
            s1, s2 = np.sort(rng.uniform(free.times[k], free.times[k + 1], 2))
            w = rng.uniform(-1.0, 1.0, n)
            level = float(w @ free.sol(s2))
            events.append(_event(rng, lambda t, y: t - s1, ("any",), False))
            events.append(_event(rng, lambda t, y: w @ y - level, ("any",)))
    desc = f"{case} {label} n={n} span={span} {tol} events={len(events)}"
    return desc, ((fun, span, y0), dict(tol, events=tuple(events)))


_TWIN_CASES = ("step-start", "one-step", "t0", "floor") + ("random",) * 6


def test_random_problems_match_scipy(scipy_twin):
    rng = np.random.default_rng(20240915)
    for i in range(100):
        desc, call = _random_solve(rng, _TWIN_CASES[i % len(_TWIN_CASES)])
        try:
            assert_same_run(*scipy_twin(*call), points=200)
        except AssertionError as exc:
            raise AssertionError(f"problem {i} ({desc}): {exc}") from exc


def test_twin_command_reruns_the_tier_1_draws(capsys):
    # tools/twins.py, the long run, reuses the generator and the check of
    # the test above, so at its seed it draws and passes the same problems
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "twins.py")
    spec = importlib.util.spec_from_file_location("twins", path)
    twins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(twins)
    assert twins.main(["20240915", "20"]) == 0
    assert "seed 20240915: 20 of 20 problems match scipy" in capsys.readouterr().out


def test_dense_output_gives_one_value_for_every_form_of_a_time():
    # a Python float, an np.float64, a 0-d array and a one-element array,
    # at every step point and every step's midpoint
    flow = cylinder.run_flow(cylinder.CylinderState(1.0, np.sqrt(0.5), 1.0))
    _, (args, kwargs) = _random_solve(np.random.default_rng(20241021), "random")
    for sol in (flow.sol, odesolve.solve_ivp(*args, **kwargs).sol):
        ts = sol.ts
        for t in np.concatenate([ts, (ts[:-1] + ts[1:]) / 2]).tolist():
            y = sol(t)
            assert y.shape == sol.steps[0].y_old.shape
            for form in (np.float64(t), np.array(t)):
                assert np.array_equal(sol(form), y), f"t={t!r} as {type(form).__name__}"
            assert np.array_equal(sol(np.array([t]))[:, 0], y), f"t={t!r} as a 1-element array"


def _random_smooth(rng):
    """(f, a, b): a random smooth function of x with a root r drawn inside
    a random bracket; other roots may lie in the bracket too."""
    r = float(rng.uniform(-5.0, 5.0))
    a, b = r - float(10.0 ** rng.uniform(-3.0, 1.0)), r + float(10.0 ** rng.uniform(-3.0, 1.0))
    coef = rng.uniform(-2.0, 2.0, 4)
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return (lambda x: coef[0] * (x - r) + coef[1] * (x - r) ** 2 + coef[2] * (x - r) ** 3), a, b
    if kind == 1:
        s = float(10.0 ** rng.uniform(-1.0, 2.0))
        return (lambda x: np.tanh(s * (x - r)) + coef[0] * np.sin(coef[1] * (x - r))), a, b
    return (lambda x: np.exp(coef[0] * (x - r)) - 1.0 + coef[1] * (x - r) ** 2), a, b


def test_brentq_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(20240916)
    for i in range(200):
        f, a, b = _random_smooth(rng)
        xtol = float(10.0 ** rng.uniform(-14.0, -4.0))
        ours, ref = brent_iterates(f, a, b, xtol=xtol)
        assert ours == ref, f"bracket {i} ({a!r}, {b!r}), xtol {xtol!r}: Brent iterates differ from {SCIPY}"
