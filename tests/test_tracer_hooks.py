"""The benchmark tracer (perfbench/tracer.py) patches grflab names where
callers look them up.  Installing and removing it here makes a refactor
that drops or renames one of those names fail in the fast suite."""

import importlib.util
from pathlib import Path

from grflab import cli, entropy, hodge

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
