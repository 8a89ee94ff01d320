"""Shared fixtures: scipy's RK45 as the reference for the in-house solver,
the two closed-form cylinder flows, and the threads a test starts.

scipy is used here only as a reference; grflab's ODE code never loads it.
"""
import threading

import numpy as np
import pytest

from grflab import odesolve
from grflab.cylinder import CylinderState, run_flow

_DIRECTIONS = {"rising": 1.0, "falling": -1.0, "any": 0.0}


@pytest.fixture()
def recorded_solves(monkeypatch):
    """record(module, run) -> the (args, kwargs) of every solve_ivp call
    that run() makes through module.solve_ivp."""

    def record(module, run):
        calls = []
        real = module.solve_ivp

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(module, "solve_ivp", recording)
            run()
        return calls

    return record


def twin(args, kwargs):
    """(in-house result, scipy.integrate.solve_ivp result) for one recorded
    odesolve.solve_ivp call."""
    from scipy.integrate import solve_ivp

    def adapt(event):
        def ev(t, y):
            return event(t, y)

        ev.direction = _DIRECTIONS[event.direction]
        ev.terminal = event.terminal
        return ev

    ref_kwargs = dict(kwargs)
    events = ref_kwargs.pop("events", ())
    ref = solve_ivp(*args, method="RK45", dense_output=True,
                    events=[adapt(e) for e in events] or None, **ref_kwargs)
    return odesolve.solve_ivp(*args, **kwargs), ref


@pytest.fixture()
def scipy_twin():
    """twin(args, kwargs) -> (in-house result, scipy.integrate.solve_ivp
    result) for one recorded odesolve.solve_ivp call."""
    return twin


@pytest.fixture(scope="module")
def flow_ricci():
    """h0 = 0: lambda = 1 - t, collapse at t = 1."""
    return run_flow(CylinderState(1.0, 0.0, 1.0))


@pytest.fixture(scope="module")
def flow_half():
    """h0^2 = 1/2, on the separatrix: collapse at t = 2."""
    return run_flow(CylinderState(1.0, np.sqrt(0.5), 1.0))


@pytest.fixture()
def workers(monkeypatch):
    """The names of the threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def recording(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started
