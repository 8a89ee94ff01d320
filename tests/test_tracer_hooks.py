"""The benchmark tracer (perfbench/tracer.py) patches grflab names where
callers look them up.  Installing and removing it here makes a refactor
that drops or renames one of those names fail in the fast suite, and a
traced name entered off the main thread, where the tracer's span stack
and counts are not safe, fail a test."""

import importlib.util
import threading
from pathlib import Path

from grflab import cli, cylinder, entropy, hodge, odesolve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer()
    before = (cli.main, dict(cli.RUNNERS), entropy.solve_ivp, hodge.atomic_write_text)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert cli.main is not before[0]
        assert all(cli.RUNNERS[c] is not f for c, f in before[1].items())
    finally:
        t.uninstall()
    assert (cli.main, dict(cli.RUNNERS), entropy.solve_ivp, hodge.atomic_write_text) == before


def test_tracer_counts_the_conjugate_heat_solve():
    # entropy calls odesolve's in-house solve_ivp by name; the tracer replaces
    # that name to count the solve's right-hand-side evaluations
    tracer = load_tracer()
    traj = cylinder.run_flow(cylinder.CylinderState(lam=1.0, h=0.5, beta=1.0), tmax=0.1)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        entropy.conjugate_heat_homogeneous(traj, u0=1.0)
    finally:
        t.uninstall()
    assert t.counts["entropy.conjugate_heat_homogeneous.nfev"] > 0
    assert entropy.solve_ivp is odesolve.solve_ivp


def test_no_traced_name_runs_on_the_walks_worker(monkeypatch, tmp_path, workers):
    # every name the tracer patches asserts that it runs on the main thread;
    # slabs of one plane put the 16^3 adjointness walk on two threads
    tracer = load_tracer()

    class MainThreadOnly(tracer.Tracer):
        def wrap(self, name, fn, **kwargs):
            traced = super().wrap(name, fn, **kwargs)

            def checked(*args, **kw):
                assert threading.current_thread() is threading.main_thread(), name
                return traced(*args, **kw)

            return checked

    monkeypatch.setattr(hodge, "_SLAB_BYTES", 8 * 16 * 16)
    t = MainThreadOnly()
    try:
        tracer.install(t)
        code = cli.main(["hodge-check", "--dim", "3", "--size", "16", "--identity", "adjointness",
                         "--out", str(tmp_path / "out")])
    finally:
        t.uninstall()
    assert code == 0
    assert workers == ["adjointness-walk"] * 3
    assert t.counts["hodge.adjointness_gap.calls"] == 3
    assert t.counts["cli.random_trig_form.calls"] == 6
