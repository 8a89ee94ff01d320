"""Package-level checks: importing the package loads no scipy and no
numpy, the CLI starts numpy with one BLAS thread unless the caller sets
OPENBLAS_NUM_THREADS and its artifacts do not depend on that count, only
the program entry freezes the collector's heap, every command runs with
scipy unimportable, a hodge-check run loads none of numpy.ma,
numpy.random and scipy, a run past its data cap exits 2 and every run
gives the process's data limit back, every exported name exists, only
the CLI writes files, the CSV formatter keeps its columns, and every
demo runs."""
import ast
import gc
import importlib
import json
import math
import os
import pkgutil
import resource
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


# Runs `grflab <argv>` as `python -m grflab.cli` would, then prints the exit
# status, whether the collector holds a frozen heap and whether it is on.
FROZEN = """
import gc, json, runpy, sys
sys.argv = ["grflab", *json.loads(sys.argv[1])]
try:
    runpy.run_module("grflab.cli", run_name="__main__")
except SystemExit as exc:
    print(json.dumps([exc.code, gc.get_freeze_count() > 0, gc.isenabled()]))
"""


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


def _blas_env(threads):
    # importing grflab.cli above set OPENBLAS_NUM_THREADS in this process,
    # and children inherit it, so each child starts from the caller's value
    env = _env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _threads_after(statement, threads):
    """OS threads and OPENBLAS_NUM_THREADS of a fresh process after
    `statement`, started with OPENBLAS_NUM_THREADS = `threads` (None: unset)."""
    code = (f"import os; {statement}; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_blas_env(threads), timeout=60)
    assert run.returncode == 0, run.stderr
    count, value = run.stdout.split()
    return int(count), value


needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                      reason="no /proc/self/task to count threads")


@needs_proc_tasks
def test_cli_starts_numpy_with_one_blas_thread():
    # OpenBLAS would start a worker per extra core that no command uses
    assert _threads_after("import grflab.cli", None) == (1, "1")


@needs_proc_tasks
def test_callers_blas_thread_count_wins():
    # the CLI leaves a caller's value, and numpy's pool, as they were
    numpy_alone = _threads_after("import numpy", "2")
    assert numpy_alone == (min(2, len(os.sched_getaffinity(0))), "2")
    assert _threads_after("import grflab.cli", "2") == numpy_alone


def test_package_root_loads_no_numpy():
    # so cli's BLAS setting runs before numpy's first import, and only there:
    # a library module keeps numpy's default pool
    code = ("import os, sys, grflab; print('numpy' in sys.modules); "
            "import grflab.cylinder; print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_blas_env(None), timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "None"]


def test_program_entry_freezes_the_import_heap(tmp_path):
    # so the collections as the process exits skip what the imports made
    argv = ["soliton-residual", "--out", str(tmp_path / "out")]
    run = subprocess.run([sys.executable, "-c", FROZEN, json.dumps(argv)],
                         capture_output=True, text=True, env=_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.strip().splitlines()[-1]) == [0, True, True]


def test_console_script_is_the_program_entry():
    assert 'grflab = "grflab.cli:entry"' in (REPO / "pyproject.toml").read_text()


def test_in_process_main_leaves_the_collector_as_it_found_it(tmp_path):
    # frozen objects are never collected, so only the program entry freezes
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["soliton-residual", "--out", str(tmp_path)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("argv", [["cylinder-flow", "--h0sq", "0.5"], ["shoot", "--csv"]],
                         ids=["cylinder-flow", "shoot"])
def test_artifacts_do_not_depend_on_blas_threads(argv, tmp_path):
    # both runs make every np.dot call of odesolve's stepper and dense
    # output
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        run = subprocess.run([sys.executable, "-m", "grflab.cli", *argv, "--out", "out"],
                             capture_output=True, text=True, env=_blas_env(threads),
                             cwd=cwd, timeout=120)
        assert run.returncode == 0, run.stderr
        files = sorted((cwd / "out").iterdir())
        assert files
        outputs.append((run.stdout, {p.name: p.read_bytes() for p in files}))
    assert outputs[0] == outputs[1]


def test_hodge_check_run_loads_neither_numpy_ma_nor_scipy(tmp_path):
    # numpy.ma adds to a cold start's resident size, and np.unique, for
    # one, imports it; numpy.random, with hashlib and OpenSSL, adds 6 MB,
    # and the adjointness fields draw from Python's generator instead
    code = ("import sys; from grflab import cli; "
            f"code = cli.main(['hodge-check', '--dim', '3', '--size', '16', '--out', {str(tmp_path)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[:2] in"
            " (['numpy', 'ma'], ['numpy', 'random']) or m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "0 []"


def test_threaded_hodge_check_loads_neither_a_pool_nor_logging(tmp_path):
    # slabs of one plane put the 16^3 adjointness walk on a worker thread of
    # plain threading; concurrent.futures would load logging, some 7 ms
    code = ("import sys, threading; from grflab import cli, hodge; "
            "hodge._SLAB_BYTES = 8 * 16 * 16; started = []; start = threading.Thread.start; "
            "threading.Thread.start = lambda t: (started.append(t.name), start(t))[1]; "
            f"code = cli.main(['hodge-check', '--dim', '3', '--size', '16', '--out', {str(tmp_path)!r}]); "
            "print(code, started, sorted(m for m in sys.modules"
            " if m in ('concurrent.futures', 'logging')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    walks = ["adjointness-walk"] * 3
    assert run.stdout.strip().splitlines()[-1] == f"0 {walks} []"


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


# Runs `grflab <argv[2:]>` in a fresh process; unless argv[1] is "-", the
# kernel is taken to report argv[1] MiB available.
REPORTED = """
import sys
from grflab import cli
if sys.argv[1] != "-":
    cli._available_memory = lambda: int(sys.argv[1]) << 20
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("available, expected", [("64", 2), ("-", 0)],
                         ids=["64MiB", "as-reported"])
def test_run_past_its_data_cap_is_a_config_error(available, expected, tmp_path):
    # the CSV resampled at 5e-6 has about 265,000 rows and its text costs
    # about 590 B per row, some 150 MiB: that fits in the memory the kernel
    # reports, but not under a cap 64 MiB above what the process maps when
    # the run starts.  (No hodge-check grid both passes that cap's test
    # quickly and needs more: the checks hold no grid-sized array.)
    out_dir = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-c", REPORTED, available, "cylinder-flow", "--dt-out", "5e-6",
         "--out", str(out_dir)],
        capture_output=True, text=True, env=_env(), cwd=tmp_path, timeout=120)
    assert run.returncode == expected, run.stderr
    if expected:
        assert run.stdout == ""
        assert run.stderr.startswith("config error: out of memory")
        assert not out_dir.exists()
    else:
        assert (out_dir / "cylinder_flow.csv").exists()


# Runs `grflab hodge-check <argv[2:]>` in a fresh process, with the kernel
# taken to report argv[1] bytes available, and prints its exit status and
# the number of rows generated and slab pairings formed.
WALKED = """
import sys
from grflab import cli, hodge
calls = []
def counted(real):
    def run(*args, **kwargs):
        calls.append(real.__name__)
        return real(*args, **kwargs)
    return run
hodge.TrigComponent.rows = counted(hodge.TrigComponent.rows)
hodge._pair_slab = counted(hodge._pair_slab)
cli._available_memory = lambda: int(sys.argv[1])
code = cli.main(["hodge-check", *sys.argv[2:]])
print(code, len(calls))
"""


@pytest.mark.parametrize("room", [False, True], ids=["degree-0-only", "every-degree"])
def test_adjointness_run_that_cannot_fit_fails_before_its_first_walk(room, tmp_path):
    # at 24^4 the degree-0 walk needs 4.6 MiB and degrees 1 and 2 need 8.4:
    # under a cap between the two, a run whose walks each allocated their
    # own arrays walked degree 0 whole before it ran out.  The report's one
    # workspace, sized for the largest degree, comes before any walk.
    from grflab import hodge

    grid = hodge.PeriodicGrid.cube(4, 24)
    need = [8 * hodge.adjointness_workspace_size(*pair)
            for pair in cli._adjointness_pairs(grid, 7)]
    assert 1.5 * need[0] < max(need)
    available = 4 * max(need) if room else (need[0] + max(need)) // 2
    out_dir = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-c", WALKED, str(available), "--dim", "4", "--size", "24",
         "--identity", "adjointness", "--out", str(out_dir)],
        capture_output=True, text=True, env=_env(), cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    code, calls = map(int, run.stdout.split()[-2:])
    if room:
        assert code == 0 and calls > 0
        assert (out_dir / "hodge_adjointness.json").exists()
    else:
        assert (code, calls) == (2, 0)
        assert run.stderr.startswith("config error: out of memory")
        assert not out_dir.exists()


# Calls cli.main in one fresh process on each argv of the JSON list argv[2],
# with 64 MiB reported available and, unless argv[1] is "-", a soft
# RLIMIT_DATA of argv[1] GiB set first.  Prints, as its last line, each
# call's exit status with RLIMIT_DATA before and after it, and the limit
# each run saw.
RESTORED = """
import json, resource, sys
from grflab import cli
if sys.argv[1] != "-":
    hard = resource.getrlimit(resource.RLIMIT_DATA)[1]
    resource.setrlimit(resource.RLIMIT_DATA, (int(sys.argv[1]) << 30, hard))
cli._available_memory = lambda: 64 << 20
seen = []
for command, run in list(cli.RUNNERS.items()):
    def watched(cfg, run=run):
        seen.append(resource.getrlimit(resource.RLIMIT_DATA))
        return run(cfg)
    cli.RUNNERS[command] = watched
calls = []
for argv in json.loads(sys.argv[2]):
    before = resource.getrlimit(resource.RLIMIT_DATA)
    code = cli.main(argv)
    calls.append([code, before, resource.getrlimit(resource.RLIMIT_DATA)])
print(json.dumps([calls, seen]))
"""


@pytest.mark.parametrize("soft_gib", ["-", "64"], ids=["unlimited", "finite"])
def test_data_limit_is_restored_after_every_run(soft_gib, tmp_path):
    # perfbench and the tests call cli.main in-process, so a run must give
    # back the limit it found, whether it passed, ran out of memory or was
    # one run of a sweep
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"runs": [{"name": "a"}, {"name": "b"}]}))
    # the 64^4 adjointness report needs more than the 64 MiB reported: it
    # runs out of memory at its workspace, before its first walk
    argvs = [["hodge-check", "--dim", "3", "--size", "16", "--identity", "integral"],
             ["hodge-check", "--dim", "4", "--size", "64", "--identity", "adjointness"],
             ["cylinder-flow", "--sweep", str(sweep)]]
    argvs = [argv + ["--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(argvs)]
    run = subprocess.run([sys.executable, "-c", RESTORED, soft_gib, json.dumps(argvs)],
                         capture_output=True, text=True, env=_env(), cwd=tmp_path,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    calls, seen = json.loads(run.stdout.strip().splitlines()[-1])
    assert [code for code, _, _ in calls] == [0, 2, 0]
    assert all(before == after for _, before, after in calls)
    limits = calls[0][1]
    # each of the four runs was capped below the limit it found
    assert len(seen) == 4
    assert all(hard == limits[1] and soft != resource.RLIM_INFINITY
               and (limits[0] == resource.RLIM_INFINITY or soft < limits[0])
               for soft, hard in seen)


# Calls cli.main on argv[1:] in a fresh process in which no thread can be
# started, and prints its exit status with RLIMIT_DATA before and after.
THREADLESS = """
import json, resource, sys, threading
from grflab import cli
def refuse(thread):
    raise RuntimeError("can't start new thread")
threading.Thread.start = refuse
before = resource.getrlimit(resource.RLIMIT_DATA)
code = cli.main(sys.argv[1:])
print(json.dumps([code, before, resource.getrlimit(resource.RLIMIT_DATA)]))
"""


def test_walk_whose_worker_cannot_start_is_out_of_memory(tmp_path):
    # a 40^4 slab is one plane, so the adjointness walk starts a worker
    # thread; one that cannot start, as when the data cap leaves no room
    # for its stack, is the run not fitting (exit 2), not a numerical
    # failure (exit 3)
    out_dir = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-c", THREADLESS, "hodge-check", "--dim", "4", "--size", "40",
         "--out", str(out_dir)],
        capture_output=True, text=True, env=_env(), cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    code, before, after = json.loads(run.stdout.strip().splitlines()[-1])
    assert code == 2 and before == after
    assert run.stderr.startswith("config error: out of memory")
    assert not out_dir.exists()


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
