"""Package-level checks: imports stay light, each command loads only what
it runs, every exported name exists, and every demo runs."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import grflab
from grflab import cli

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(grflab.__path__))

# Runs `grflab <argv>` as `python -m grflab.cli` would, then prints the exit
# status and every loaded scipy module.
FOOTPRINT = """
import json, runpy, sys
sys.argv = ["grflab", *json.loads(sys.argv[1])]
try:
    runpy.run_module("grflab.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _env():
    path = os.environ.get("PYTHONPATH")
    src = str(REPO / "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def test_package_root_does_not_import_scipy():
    code = ("import sys, grflab, grflab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, expected, absent", [
    (["--help"], 0, ("scipy",)),
    (["soliton-residual"], 0, ("scipy",)),
    (["heat-check"], 0, ("scipy",)),
    (["cylinder-flow", "--h0sq", "-1"], 2, ("scipy",)),
    (["hodge-check", "--dim", "3", "--size", "16"], 0, ("scipy.integrate", "scipy.optimize")),
    (["cylinder-flow"], 0, ("scipy",)),
    (["blowup"], 0, ("scipy",)),
    (["torsion", "--psi0", "12"], 0, ("scipy",)),
    (["shoot", "--csv"], 0, ("scipy",)),
    (["entropy", "--dt", "1e-4"], 0, ("scipy",)),
], ids=["help", "soliton-residual", "heat-check", "rejected-input", "hodge-check",
        "cylinder-flow", "blowup", "torsion", "shoot", "entropy"])
def test_command_loads_only_the_scipy_it_runs(argv, expected, absent, tmp_path):
    if argv != ["--help"]:
        argv = argv + ["--out", str(tmp_path / "out")]
    run = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(argv)],
                         capture_output=True, text=True, env=_env(), cwd=tmp_path,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    code, loaded = json.loads(run.stdout.strip().splitlines()[-1])
    assert code == expected, run.stderr
    for name in absent:
        assert not [m for m in loaded if m == name or m.startswith(name + ".")], loaded
    if argv[0] == "hodge-check":
        assert "scipy.special" in loaded  # the integral check's closed form ran


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deletion that leaves its name in __all__ breaks `from ... import *`
    module = importlib.import_module(f"grflab.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_cold_sweep_matches_runs_done_alone(tmp_path):
    # in a fresh process the sweep's pool threads import cylinder for the
    # first time concurrently
    sweep = tmp_path / "sweep.json"
    runs = {"a": 0.1, "b": 0.5}
    sweep.write_text(json.dumps(
        {"runs": [{"name": n, "parameters": {"h0sq": h}} for n, h in runs.items()]}
    ))
    run = subprocess.run(
        [sys.executable, "-m", "grflab.cli", "cylinder-flow", "--sweep", str(sweep),
         "--out", str(tmp_path / "sweep")],
        capture_output=True, text=True, env=_env(), cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    for name, h0sq in runs.items():
        alone = tmp_path / "alone" / name
        assert cli.main(["cylinder-flow", "--h0sq", repr(h0sq), "--out", str(alone)]) == 0
        swept = tmp_path / "sweep" / name
        files = sorted(p.name for p in alone.iterdir())
        assert files and sorted(p.name for p in swept.iterdir()) == files
        for f in files:
            assert (swept / f).read_bytes() == (alone / f).read_bytes()


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=_env(), cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
    assert list(tmp_path.iterdir()) == []  # demos leave nothing in the cwd
