"""Adaptive ODE integration with event location and blowup detection.

The integrator is the Dormand-Prince 5(4) embedded Runge-Kutta pair
(Dormand & Prince 1980) with Shampine's quartic dense output, written in
numpy so that solving an ODE loads no scipy.  It repeats the RK45 solver
of scipy 1.17.1 operation for operation: the same initial step, step
control, stage and error sums, interpolant, segment choice and event
location, so every step, event and dense value equals scipy's bit for
bit.  brentq is a port of scipy's C Brent root finder.

solve_ivp and integrate take the same arguments, a right-hand side,
t_span and y0 and the keywords events, rtol and atol, and both return a
Trajectory.  solve_ivp is the bare solver and the one place that checks
its inputs; integrate adds a blowup ceiling and runs with floating-point
warnings silenced.  Every run ends with an explicit termination label;
step-size underflow and state blowup are reported, never swallowed.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "EventSpec",
    "Trajectory",
    "OdeSolution",
    "integrate",
    "solve_ivp",
    "brentq",
    "RTOL_FLOOR",
    "BLOWUP_CEILING",
    "TERMINATIONS",
]

# Possible values of Trajectory.termination.
TERMINATIONS = ("reached_tmax", "event", "blowup", "step_underflow")

_DIRECTIONS = {"rising": 1.0, "falling": -1.0, "any": 0.0}

EPS = np.finfo(float).eps
# Below 100 eps the local error test asks for more than float64 can give.
RTOL_FLOOR = 100 * EPS
# integrate ends a run as a blowup once max|state| passes this
BLOWUP_CEILING = 1e12

# Dormand-Prince 5(4): nodes C, stage matrix A, fifth-order weights B and
# the error weights E (fifth minus fourth order, over the six stages and
# the first-same-as-last stage).  P maps the seven stages to Shampine's
# quartic dense output with the optimal c6.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])

# Step control: the new step is h * SAFETY * err^(-1/5), held within
# [MIN_FACTOR, MAX_FACTOR] times h, and never grown right after a rejection.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5

# brentq's relative tolerance and iteration cap, scipy's defaults
_BRENT_RTOL = 4 * EPS
_BRENT_MAXITER = 100

@dataclass(frozen=True)
class EventSpec:
    """Zero crossing of indicator(t, state) to be located during a run.

    direction: 'rising', 'falling' or 'any'.  Terminal events stop the
    integration at the located crossing.
    """

    indicator: Callable[[float, np.ndarray], float]
    direction: str = "any"
    terminal: bool = False

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {sorted(_DIRECTIONS)}")

    def __call__(self, t, y) -> float:
        return float(self.indicator(t, y))


@dataclass
class Trajectory:
    """Result of one integration.

    times/states hold the accepted steps (times strictly increasing,
    starting at t0).  events lists the located crossings as (time, state,
    event_index), sorted by time with ties in index order; the indices
    point into the events argument of the run.  sol is the dense-output
    interpolant, callable on [times[0], times[-1]].
    """

    times: np.ndarray
    states: np.ndarray
    events: list
    termination: str
    sol: Optional[Callable[[float], np.ndarray]] = None
    nfev: int = 0

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


class _Step:
    """Dense output over one accepted step [t_old, t_old + h]."""

    __slots__ = ("t_old", "h", "Q", "y_old")

    def __init__(self, t_old, h, K, y_old):
        self.t_old = float(t_old)
        self.h = float(h)
        self.Q = K.T.dot(_P)
        self.y_old = y_old

    def __call__(self, t):
        x = (t - self.t_old) / self.h
        if isinstance(x, float):
            x = float(x)
            x2 = x * x
            x3 = x2 * x
            y = self.h * np.dot(self.Q, np.array([x, x2, x3, x3 * x]))
            y += self.y_old
            return y
        p = np.cumprod(np.tile(x, (self.Q.shape[1], 1)), axis=0)
        y = self.h * np.dot(self.Q, p)
        y += self.y_old[:, None]
        return y


class OdeSolution:
    """Piecewise dense output of a run, callable on a time or a 1-d array.

    A time on a step point takes the earlier step's interpolant; times
    outside [ts[0], ts[-1]] take the nearest end step's.
    """

    def __init__(self, ts, steps):
        self.ts = np.asarray(ts)
        self._breaks = self.ts.tolist()
        self.steps = steps

    def __call__(self, t):
        if isinstance(t, float) or np.ndim(t) == 0:
            k = bisect_left(self._breaks, t) - 1
            return self.steps[min(max(k, 0), len(self.steps) - 1)](t)
        t = np.asarray(t)
        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]
        segments = np.searchsorted(self.ts, t_sorted, side="left") - 1
        np.clip(segments, 0, len(self.steps) - 1, out=segments)
        ys = []
        start = 0
        for k, group in groupby(segments):
            end = start + len(list(group))
            ys.append(self.steps[k](t_sorted[start:end]))
            start = end
        return np.hstack(ys)[:, reverse]


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """First step from the Hairer-Norsett-Wanner estimate (II.4), one rhs call."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _active_events(g, g_new, direction):
    g, g_new = np.asarray(g), np.asarray(g_new)
    up = (g <= 0) & (g_new >= 0)
    down = (g >= 0) & (g_new <= 0)
    either = up | down
    mask = up & (direction > 0) | down & (direction < 0) | either & (direction == 0)
    return np.nonzero(mask)[0]


def solve_ivp(
    fun,
    t_span,
    y0,
    *,
    events: Sequence[EventSpec] = (),
    rtol: float = 1e-3,
    atol: float = 1e-6,
) -> Trajectory:
    """Dormand-Prince 5(4) solve of y' = fun(t, y) over t_span = (t0, tf).

    The subset of scipy's solve_ivp(method="RK45", dense_output=True)
    that grflab uses, bit for bit: times and states are scipy's t and y.T,
    the events of index i are its t_events[i] and y_events[i], and its
    status 0, 1 and -1 is the termination reached_tmax, event and
    step_underflow.  Events are EventSpec instances; a terminal one stops
    the run at its first crossing.
    """
    t0, tf = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(tf)):
        raise ValueError(f"t_span must be finite, got ({t0:g}, {tf:g})")
    if not tf > t0:
        raise ValueError(f"t_span must be increasing, got ({t0:g}, {tf:g})")
    if not rtol >= RTOL_FLOOR:
        raise ValueError(f"rtol must be at least 100 eps = {RTOL_FLOOR:.4g}, got {rtol:.4g}")
    if not atol > 0:
        raise ValueError(f"atol must be positive, got {atol:.4g}")
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1 or y0.size == 0:
        raise ValueError(f"y0 must be a nonempty 1-d vector, got shape {y0.shape}")
    if not np.all(np.isfinite(y0)):
        raise ValueError(f"y0 must be finite, got {y0}")

    def rhs(t, y):
        out = np.asarray(fun(t, y), dtype=float)
        if out.shape != y0.shape:
            raise ValueError(f"rhs returned shape {out.shape}, expected {y0.shape}")
        return out

    f = rhs(t0, y0)
    h_abs = _initial_step(rhs, t0, y0, tf, f, rtol, atol)
    nfev = 2
    K = np.empty((_B.size + 1, y0.size))
    t, y = t0, y0
    ts, ys = [t0], [y0]
    steps = []

    directions = np.array([_DIRECTIONS[e.direction] for e in events])
    terminal = np.array([e.terminal for e in events], dtype=bool)
    g = [event(t0, y0) for event in events]
    found = []

    termination = None
    while termination is None:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                termination = "step_underflow"
                break
            t_new = t + h_abs
            if t_new > tf:
                t_new = tf
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = f
            for s in range(1, _B.size):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = rhs(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = rhs(t + h, y_new)
            K[-1] = f_new
            nfev += _B.size  # five new stages and the end-point slope

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        if termination is not None:
            break

        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t >= tf:
            termination = "reached_tmax"
        step = _Step(t_old, h, K, y_old)
        steps.append(step)

        if events:
            g_new = [event(t, y) for event in events]
            active = _active_events(g, g_new, directions)
            if active.size > 0:
                roots = np.asarray([
                    brentq(lambda s, e=events[i]: e(s, step(s)), t_old, t, xtol=4 * EPS)
                    for i in active
                ])
                stopped = terminal[active]
                if np.any(stopped):
                    order = np.argsort(roots)
                    active, roots = active[order], roots[order]
                    last = np.nonzero(stopped[order])[0][0]
                    active, roots = active[: last + 1], roots[: last + 1]
                    termination = "event"
                for i, t_root in zip(active, roots):
                    found.append((float(t_root), step(t_root), int(i)))
                if termination == "event":
                    t = roots[-1]
                    y = step(t)
            g = g_new

        if len(ts) > 1 and ts[-1] == t:
            # a terminal crossing exactly at the step start ends the run
            # there: drop the step, as scipy does.  At t0 the step stays
            # and t repeats t0, also as in scipy.
            steps.pop()
        else:
            ts.append(t)
            ys.append(y)

    # a step appends its crossings in index order, or in root order when
    # a terminal one fires: sort by time, ties in index order (stably, so
    # one event's repeats at one time keep their order)
    found.sort(key=lambda rec: (rec[0], rec[2]))
    return Trajectory(
        times=np.array(ts),
        states=np.vstack(ys),
        events=found,
        termination=termination,
        sol=OdeSolution(ts, steps),
        nfev=nfev,
    )


def brentq(f, a, b, xtol: float = 2e-12) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign (Brent 1973).

    A port of the C loop of scipy's brentq: the same inverse-quadratic
    and secant trials, bisection fallbacks and stopping test
    |step| < (xtol + 4 eps |x|) / 2 within 100 iterations, so it calls f
    at the same points and returns the same float.
    """
    if not xtol > 0:
        raise ValueError(f"xtol must be positive, got {xtol:g}")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C division gives inf or nan here, and either bisects below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"brentq did not converge in {_BRENT_MAXITER} iterations; last x = {xcur!r}")


def integrate(
    rhs,
    t_span,
    y0,
    *,
    events: Sequence[EventSpec] = (),
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> Trajectory:
    """solve_ivp with a terminal blowup-ceiling event, run quietly.

    Takes solve_ivp's arguments with a tighter default rtol and atol.  The run
    terminates at tf, at the first terminal event, when max|state|
    exceeds BLOWUP_CEILING (termination "blowup"), or when the adaptive
    step underflows.  The ceiling's own crossings are left out of
    Trajectory.events.  Floating-point warnings are silenced for the
    whole run: near a blowup the arithmetic overflows on the way, and the
    termination label carries the diagnosis.
    """
    # sentinel: |state|_inf crossing the ceiling from below, terminal
    ceiling = EventSpec(
        lambda t, y: BLOWUP_CEILING - float(np.max(np.abs(y))), "falling", True
    )
    with np.errstate(all="ignore"):
        traj = solve_ivp(rhs, t_span, y0, events=(*events, ceiling), rtol=rtol, atol=atol)

    # a terminal event stopped the run: solve_ivp keeps no crossing past
    # its root and sorts ties by index, the sentinel's being the largest,
    # so the event that stopped the run is the last one recorded
    sentinel = len(events)
    if traj.termination == "event" and traj.events[-1][2] == sentinel:
        traj.termination = "blowup"
    traj.events = [rec for rec in traj.events if rec[2] != sentinel]
    return traj
