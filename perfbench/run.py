"""grflab benchmark: validated verifications, end to end and per layer.

    python3 perfbench/run.py --workload hodge-4d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Run from the root of a source checkout; the package is imported from
src/ (PYTHONPATH=src), not from an installed copy.  With --trace 0 the
run reports the end-to-end metrics of one workload; with --trace 1 it
reports the per-layer metrics of a traced pass over every listed workload
and the tracing overhead of the named one.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

A closed loop: one client in one process issues operations one after
another; at most two processes run at a time (this one waits).
"""
import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import layers  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5  # the measuring process's own set-up plus four more
RUN_LIMIT_S = 175
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
}


def worker(mode, workload, seed, run_dir, *extra, deadline):
    """Run worker.py in its own session; kill the whole group on timeout."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
            str(seed), run_dir, *map(str, extra)]
    env = dict(os.environ, TMPDIR=os.path.join(run_dir, "tmp"),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {mode} {workload} exceeded the run limit")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} {workload} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it, never below 50."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def percentile(values, p: float) -> float:
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cache_bytes(level: int):
    """Size of the CPU cache at `level` as the kernel describes cpu0's caches."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            return int(size.rstrip("K")) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        pass
    return None


def environment(workload: str, versions: dict) -> dict:
    return {
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "l2_bytes_per_core": cache_bytes(2),
        "llc_bytes": cache_bytes(3),
        "array_bytes": wl.array_bytes(workload),
    }


def end_to_end(workload, seed, seconds, run_dir, deadline):
    setups = [worker("setup", workload, seed, run_dir, deadline=deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = worker("measure", workload, seed, run_dir, seconds, deadline=deadline)
    setups.append(res["setup_s"])
    ok = res["op_s"] or [res["loop_s"]]
    n_ok = len(res["op_s"])
    p_tail = tail_percentile(n_ok)
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "ops_per_s": (n_ok / res["loop_s"], f"{n_ok} validated ops in {res['loop_s']:.3f} s"),
        "op_p50_s": (statistics.median(ok), f"n={n_ok}"),
        "op_tail_s": (percentile(ok, p_tail), f"p{p_tail:.1f}, n={n_ok}"),
        "cpu_per_op_s": (res["cpu_s"] / res["attempted"], f"n={res['attempted']}"),
        "peak_rss_mb": (res["peak_rss_mb"], "max RSS of the measuring process and its children"),
    }
    fail_ratio = res["failed"] / res["attempted"]
    print(f"# {workload} fail_ratio = {fail_ratio:.6g} "
          f"({res['failed']} of {res['attempted']} attempted)")
    for error in res["errors"]:
        print(f"# {workload} FAILED {error}")
    print(f"# {workload} env {json.dumps(environment(workload, res['versions']))}")
    print(f"# {workload} digests {json.dumps(res['digests'])}")
    return res, metrics, END_TO_END


def per_layer(workload, seed, run_dir, deadline):
    res = worker("trace", workload, seed, run_dir, deadline=deadline)
    metrics = layers.metrics(res)
    for error in res["errors"]:
        print(f"# {workload} FAILED {error}")
    return res, metrics, layers.UNITS


def run_one(workload, seed, seconds, trace, deadline):
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "tmp"))
    try:
        if trace:
            res, metrics, units = per_layer(workload, seed, run_dir, deadline)
        else:
            res, metrics, units = end_to_end(workload, seed, seconds, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, (value, note) in metrics.items():
        print(f"# {workload} {name} = {value:.6g} {units[name]} ({note})")
    return res, {name: {"value": value, "unit": units[name]}
                 for name, (value, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "grflab", "__init__.py")):
        print(f"perfbench: no grflab source tree at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        res, m = run_one(name, args.seed, args.seconds, args.trace,
                         time.monotonic() + RUN_LIMIT_S)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
