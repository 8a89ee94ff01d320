"""Shared fixtures: scipy's RK45 as the reference for the in-house solver.

scipy is used here only as a reference; grflab's ODE code never loads it.
"""
import pytest

from grflab import odesolve

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


@pytest.fixture()
def scipy_twin():
    """twin(args, kwargs) -> (in-house result, scipy.integrate.solve_ivp
    result) for one recorded odesolve.solve_ivp call."""
    from scipy.integrate import solve_ivp

    def adapt(event):
        def ev(t, y):
            return event(t, y)

        ev.direction = _DIRECTIONS[event.direction]
        ev.terminal = event.terminal
        return ev

    def twin(args, kwargs):
        ref_kwargs = dict(kwargs)
        events = ref_kwargs.pop("events", ())
        ref = solve_ivp(*args, method="RK45", dense_output=True,
                        events=[adapt(e) for e in events] or None, **ref_kwargs)
        return odesolve.solve_ivp(*args, **kwargs), ref

    return twin
