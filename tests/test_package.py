"""Package-level checks: importing the package loads no scipy, every
command runs with scipy unimportable, a hodge-check run loads neither
numpy.ma nor scipy, the memory guard covers a fresh
process's peak, every exported name exists, only the CLI writes files,
the CSV formatter keeps its columns, and every demo runs."""
import ast
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grflab
from grflab import cli
from grflab.ioutil import fmt_float, to_csv_text

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(grflab.__path__))

# Runs `grflab <argv>` as `python -m grflab.cli` would, with scipy made
# unimportable, then prints the exit status.
FOOTPRINT = """
import json, runpy, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
sys.argv = ["grflab", *json.loads(sys.argv[1])]
try:
    runpy.run_module("grflab.cli", run_name="__main__")
except SystemExit as exc:
    print(json.dumps(exc.code))
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


def test_cli_import_loads_no_compute_module():
    # every runner imports the compute modules it uses when it runs, and a
    # sweep runs its runs in the calling thread, with no pool or its logging
    code = ("import sys, grflab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('grflab.')"
            " or m in ('concurrent.futures', 'logging')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "['grflab.cli', 'grflab.ioutil']"


def test_hodge_check_run_loads_neither_numpy_ma_nor_scipy(tmp_path):
    # numpy.ma adds to a cold start's resident size, and np.unique, for
    # one, imports it
    code = ("import sys; from grflab import cli; "
            f"code = cli.main(['hodge-check', '--dim', '3', '--size', '16', '--out', {str(tmp_path)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']"
            " or m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "0 []"


@pytest.mark.parametrize("argv, expected", [
    (["--help"], 0),  # imports grflab and grflab.cli
    (["soliton-residual"], 0),
    (["heat-check"], 0),
    (["cylinder-flow", "--h0sq", "-1"], 2),
    (["hodge-check", "--dim", "3", "--size", "16"], 0),
    (["cylinder-flow"], 0),
    (["blowup"], 0),
    (["torsion", "--psi0", "12"], 0),
    (["shoot", "--csv"], 0),
    (["entropy", "--dt", "1e-4"], 0),
], ids=["help", "soliton-residual", "heat-check", "rejected-input", "hodge-check",
        "cylinder-flow", "blowup", "torsion", "shoot", "entropy"])
def test_command_loads_only_the_scipy_it_runs(argv, expected, tmp_path):
    # numpy is the only runtime dependency: no command imports any scipy
    if argv != ["--help"]:
        argv = argv + ["--out", str(tmp_path / "out")]
    run = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(argv)],
                         capture_output=True, text=True, env=_env(), cwd=tmp_path,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.strip().splitlines()[-1]) == expected, run.stderr


# Runs `grflab <argv>` in a fresh process and prints its exit status, the
# memory guard's estimates and the process's peak resident size in bytes.
# VmHWM is the peak of this program's own address space; ru_maxrss would
# also count the forking parent's.
COLD_PEAK = """
import json, sys
from grflab import cli
needs = []
check = cli._require_memory
def recorded(need, what):
    needs.append(need + cli._resident_memory())
    return check(need, what)
cli._require_memory = recorded
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(int(l.split()[1]) * 1024 for l in fh if l.startswith("VmHWM:"))
print(json.dumps([code, needs, peak]))
"""


def test_hodge_memory_estimate_covers_the_cold_peak(tmp_path):
    # At 24^4 the adjointness check's estimate is about 60.0 MiB against a
    # 56.1 MiB peak, a margin smaller than numpy.random, 5.4 MiB, which
    # must be loaded when the resident size is read.
    # On the small grids the run's fixed allocations decide: the integral
    # check alone at 32^3 peaked 0.17-0.24 MiB above the estimate without
    # cli.HODGE_FIXED_BYTES.
    for i, argv in enumerate((["--dim", "4", "--size", "24"],
                              ["--dim", "3", "--size", "16"],
                              ["--dim", "4", "--size", "16"],
                              ["--dim", "3", "--size", "32", "--identity", "integral"])):
        run = subprocess.run(
            [sys.executable, "-c", COLD_PEAK, "hodge-check", *argv,
             "--out", str(tmp_path / f"out{i}")],
            capture_output=True, text=True, env=_env(), cwd=tmp_path, timeout=120)
        code, needs, peak = json.loads(run.stdout.strip().splitlines()[-1])
        assert code == 0, run.stderr
        assert needs[0] >= peak, argv


# Calls the hodge memory guard in a fresh process and prints whether
# numpy.random was loaded before the call and each time the guard read
# the resident size.
RESIDENT_READ = """
import json, sys
from grflab import cli
loaded = "numpy.random" in sys.modules
seen = []
def resident():
    seen.append("numpy.random" in sys.modules)
    return 0
cli._resident_memory = resident
cli._require_hodge_memory({"identity": sys.argv[1], "dim": 3, "size": 16, "refine": False})
print(json.dumps([loaded, seen]))
"""


@pytest.mark.parametrize("identity", ["all", "adjointness"])
def test_hodge_memory_guard_loads_numpy_random_before_reading_the_resident_size(
        identity, tmp_path):
    # the adjointness check draws its fields with numpy.random, about
    # 5.4 MiB resident, which the estimate counts in the resident size
    run = subprocess.run([sys.executable, "-c", RESIDENT_READ, identity],
                         capture_output=True, text=True, env=_env(), cwd=tmp_path,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.strip().splitlines()[-1]) == [False, [True]]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deletion that leaves its name in __all__ breaks `from ... import *`
    module = importlib.import_module(f"grflab.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


# calls that write a file whatever their arguments
FILE_WRITERS = ("write_text", "write_bytes", "tofile", "savetxt", "save", "savez")


def _writes_file(call: ast.Call, callee: str) -> bool:
    """Whether a call writes a file: one of FILE_WRITERS, or open/fdopen
    with a mode that is not read-only or not a literal."""
    if callee in FILE_WRITERS:
        return True
    if callee not in ("open", "fdopen"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def _calls(node, func=None):
    """(enclosing function name, callee name, call) for every call under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    if isinstance(node, ast.Call):
        callee = node.func
        yield func, getattr(callee, "attr", getattr(callee, "id", None)), node
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, func)


def test_only_the_cli_writes_files():
    # the library returns artifact text; cli._written is the one caller of
    # the atomic write, and that write is the one place a file is opened
    # for writing
    writers, opened = set(), set()
    for name in MODULES:
        tree = ast.parse((REPO / "src" / "grflab" / f"{name}.py").read_text())
        for func, callee, call in _calls(tree):
            if callee == "atomic_write_text":
                writers.add((name, func))
            if _writes_file(call, callee):
                opened.add((name, func))
    assert writers == {("cli", "_written")}
    assert opened == {("ioutil", "atomic_write_text")}


def test_csv_columns_keep_their_order_length_and_format():
    text = to_csv_text({"b": [1.5, np.int64(3)], "a": [float("nan"), -0.0],
                        "c": np.array([math.inf, -math.inf])})
    assert text == "b,a,c\n1.5,nan,inf\n3,-0,-inf\n"
    assert text.splitlines()[2] == ",".join(map(fmt_float, (np.int64(3), -0.0, -math.inf)))
    with pytest.raises(ValueError):
        to_csv_text({"t": [0.0, 1.0], "W": [2.0]})
    assert to_csv_text({"t": []}) == "t\n"


def test_cold_sweep_matches_runs_done_alone(tmp_path):
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
