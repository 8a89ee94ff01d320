"""Adaptive ODE integration with event location and blowup detection.

Thin, deterministic front end over an embedded Runge-Kutta 4(5) pair
(Dormand-Prince, via scipy) with dense output.  Every run ends with an
explicit termination label; step-size underflow and state blowup are
reported, never swallowed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "OdeProblem",
    "EventSpec",
    "Trajectory",
    "integrate",
    "solve_ivp",
    "TERMINATIONS",
]

# Possible values of Trajectory.termination.
TERMINATIONS = ("reached_tmax", "event", "blowup", "step_underflow")

_DIRECTIONS = {"rising": 1.0, "falling": -1.0, "any": 0.0}


@dataclass(frozen=True)
class OdeProblem:
    """First-order system state' = rhs(t, state) on [t0, tmax].

    rhs must accept (t, state) with state a 1-d float array and return
    an array of the same shape.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    t0: float
    tmax: float
    state0: np.ndarray

    def __post_init__(self):
        state0 = np.atleast_1d(np.asarray(self.state0, dtype=float))
        if state0.ndim != 1 or state0.size < 1:
            raise ValueError("state0 must be a 1-d vector of dimension >= 1")
        if not np.all(np.isfinite(state0)):
            raise ValueError("state0 must be finite")
        if not (np.isfinite(self.t0) and np.isfinite(self.tmax)):
            raise ValueError("t0 and tmax must be finite")
        if not self.tmax > self.t0:
            raise ValueError("tmax must exceed t0")
        object.__setattr__(self, "state0", state0)


@dataclass(frozen=True)
class EventSpec:
    """Zero crossing of indicator(t, state) to be located during a run.

    direction: 'rising', 'falling' or 'any'.  Terminal events stop the
    integration at the located crossing.
    """

    indicator: Callable[[float, np.ndarray], float]
    direction: str = "any"
    terminal: bool = False
    name: str = ""

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {sorted(_DIRECTIONS)}")


@dataclass
class Trajectory:
    """Result of one integration.

    times/states hold the accepted steps (times strictly increasing,
    starting at t0).  events is the ordered list of located crossings as
    (time, state, event_index) with indices into the events argument of
    integrate().  sol is the dense-output interpolant, callable on
    [times[0], times[-1]].
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

    @property
    def state_end(self) -> np.ndarray:
        return self.states[-1]


def _wrap_rhs(rhs, dim):
    def wrapped(t, y):
        # silence transient overflow chatter near blowups; the ceiling
        # event / underflow label carry the actual diagnosis
        with np.errstate(all="ignore"):
            out = np.asarray(rhs(t, y), dtype=float)
        if out.shape != (dim,):
            raise ValueError(f"rhs returned shape {out.shape}, expected ({dim},)")
        return out

    return wrapped


def _make_scipy_event(indicator, direction, terminal):
    def ev(t, y):
        with np.errstate(all="ignore"):
            return float(indicator(t, y))

    ev.direction = _DIRECTIONS[direction]
    ev.terminal = bool(terminal)
    return ev


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call.

    scipy.integrate takes most of a cold start, so the package's one route
    to it loads it only when an ODE is solved.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def integrate(
    problem: OdeProblem,
    events: Sequence[EventSpec] = (),
    rtol: float = 1e-10,
    atol: float = 1e-12,
    blowup_ceiling: float = 1e12,
) -> Trajectory:
    """Integrate problem with embedded-pair adaptive stepping.

    Local error per step is controlled by rtol*|state| + atol.  The run
    terminates at tmax, at the first terminal event, when max|state|
    exceeds blowup_ceiling, or when the adaptive step underflows; the
    outcome is recorded in Trajectory.termination.  Stepping is
    deterministic: identical inputs give identical output.
    """
    if not (rtol > 0 and atol > 0):
        raise ValueError("rtol and atol must be positive")
    if not blowup_ceiling > 0:
        raise ValueError("blowup_ceiling must be positive")

    dim = problem.state0.size
    scipy_events = [
        _make_scipy_event(e.indicator, e.direction, e.terminal) for e in events
    ]
    # sentinel: |state|_inf crossing the ceiling from below, terminal
    ceiling = _make_scipy_event(
        lambda t, y: blowup_ceiling - float(np.max(np.abs(y))), "falling", True
    )
    scipy_events.append(ceiling)

    res = solve_ivp(
        _wrap_rhs(problem.rhs, dim),
        (problem.t0, problem.tmax),
        problem.state0,
        method="RK45",
        events=scipy_events,
        dense_output=True,
        rtol=rtol,
        atol=atol,
    )

    occurrences = []
    for idx in range(len(events)):
        for t_ev, y_ev in zip(res.t_events[idx], res.y_events[idx]):
            occurrences.append((float(t_ev), np.asarray(y_ev, dtype=float), idx))
    occurrences.sort(key=lambda rec: rec[0])

    blowup_hit = res.t_events[len(events)].size > 0
    if res.status == -1:
        termination = "step_underflow"
    elif res.status == 1:
        # a terminal event stopped the run; the ceiling sentinel wins the
        # label only if it is the one that fired at the end time
        if blowup_hit and np.isclose(
            res.t_events[len(events)][-1], res.t[-1], rtol=0, atol=1e-13 * max(1.0, abs(res.t[-1]))
        ):
            termination = "blowup"
        else:
            termination = "event"
    else:
        termination = "reached_tmax"

    return Trajectory(
        times=np.asarray(res.t, dtype=float),
        states=np.asarray(res.y.T, dtype=float),
        events=occurrences,
        termination=termination,
        sol=res.sol,
        nfev=int(res.nfev),
    )
