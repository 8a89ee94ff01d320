"""Measuring process: started by run.py, prints one JSON object on stdout.

    worker.py setup   WORKLOAD SEED RUN_DIR
    worker.py measure WORKLOAD SEED RUN_DIR SECONDS
    worker.py trace   WORKLOAD SEED RUN_DIR

Every mode first times its set-up: importing grflab and grflab.cli and
generating the workload's inputs from the seed.  `measure` then runs
whole blocks of operations, one after another, until SECONDS have
passed; `trace` runs one block of every steady workload (and WORKLOAD)
under the tracing shim, and the first block of WORKLOAD once more
without it.  grflab must be importable (run.py puts src on PYTHONPATH).
"""
import json
import os
import resource
import shutil
import sys
import time
from itertools import cycle

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
BLOCKS = 64  # more than any run of at most 60 s can use; cycled if not


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup(workload: str, seed: int):
    t0 = time.perf_counter()
    import grflab.cli  # noqa: F401  (imports grflab first)

    blocks = wl.blocks(workload, seed, BLOCKS)
    return time.perf_counter() - t0, blocks


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Ledger:
    """Outcome of every operation attempted; failures are never retried."""

    def __init__(self):
        self.op_s = []
        self.errors = []
        self.attempted = 0
        self.cpu_s = 0.0
        self.digests = []

    def run(self, op: wl.Op) -> float:
        """Time op.run, then validate its output; returns the op's wall time."""
        self.attempted += 1
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            try:
                output = op.run()
            finally:
                elapsed = time.perf_counter() - t0
                self.cpu_s += cpu_seconds() - c0
            op.check(output)
        except Exception as exc:  # counted in fail_ratio, whatever it is
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        else:
            self.op_s.append(elapsed)
        if op.out_dir:
            self.digests.append({"op": op.label, "files": wl.digest_dir(op.out_dir)})
            shutil.rmtree(op.out_dir, ignore_errors=True)
        return elapsed

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.errors),
                "errors": self.errors, "op_s": self.op_s, "cpu_s": self.cpu_s,
                "digests": self.digests}


def measure(workload, seed, run_dir, seconds, blocks):
    ledger = Ledger()
    t_start = time.perf_counter()
    i = 0
    for block in cycle(blocks):
        for params in block:
            out_dir = os.path.join(run_dir, f"op{i:05d}")
            ledger.run(wl.make_op(workload, params, out_dir, wl.PYTHON_CLI))
            i += 1
        if time.perf_counter() - t_start >= seconds:
            break
    loop_s = time.perf_counter() - t_start
    # in-process ops run here; cold CLI processes are this process's children
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {**ledger.result(), "loop_s": loop_s, "peak_rss_mb": peak_kb / 1024.0}


def run_block(ledger, workload, seed, run_dir, traced):
    """First block of `workload`; returns summed op time and child trace files."""
    if traced:
        python_argv = [sys.executable, os.path.join(HERE, "tracecli.py")]
    else:
        python_argv = wl.PYTHON_CLI
    wall = 0.0
    traces = []
    for j, params in enumerate(wl.blocks(workload, seed, 1)[0]):
        out_dir = os.path.join(run_dir, f"{'t' if traced else 'u'}-{workload}-{j}")
        wall += ledger.run(wl.make_op(workload, params, out_dir, python_argv))
        trace_file = out_dir + ".trace.json"
        if os.path.exists(trace_file):
            with open(trace_file) as fh:
                traces.append(json.load(fh))
            os.unlink(trace_file)
    return wall, traces


def trace(workload, seed, run_dir, include=wl.STEADY):
    """Untraced then traced first block of `workload`, plus a traced block of
    every workload in `include`, so that every layer is measured."""
    ledger = Ledger()
    untraced_s, _ = run_block(ledger, workload, seed, run_dir, traced=False)
    shim = tracer.Tracer()
    tracer.install(shim)
    traced_s = {}
    children = []
    try:
        for name in dict.fromkeys((*include, workload)):
            traced_s[name], traces = run_block(ledger, name, seed, run_dir, traced=True)
            children += traces
    finally:
        shim.uninstall()
    layers = tracer.merge([shim.summary()] + children)
    imports = [c["import"] for c in children]
    return {
        **ledger.result(),
        "layers": layers,
        "imports": imports,
        "overhead": {"workload": workload, "traced_s": traced_s[workload],
                     "untraced_s": untraced_s},
    }


def main(argv) -> int:
    mode, workload, seed, run_dir = argv[:4]
    seed = int(seed)
    setup_s, blocks = setup(workload, seed)
    out = {"setup_s": setup_s}
    if mode == "measure":
        out.update(measure(workload, seed, run_dir, float(argv[4]), blocks))
        out["versions"] = versions()
    elif mode == "trace":
        out.update(trace(workload, seed, run_dir))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
