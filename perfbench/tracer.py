"""Tracing shim: spans and counts recorded around grflab's public functions.

Nothing inside the package is edited.  `install` replaces each traced
function at the place where callers look it up (module globals, class
attributes, the CLI's dispatch table) with a wrapper that records a span
(name, start, end, parent) and the counts named in layers.py; `uninstall`
puts the originals back.  Self time is derived afterwards from the spans:
a span's duration minus the part its direct child spans cover.
"""
from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter

# Hodge checks whose peak allocation is recorded (tracemalloc sees numpy's
# array buffers); it is switched on only inside these calls, so it does not
# slow the Python-heavy ODE layers.
ALLOC_TRACKED = (
    "check_suobing",
    "check_twisted_codiff",
    "check_integral_identity",
    "check_divH2",
    "adjointness_gap",
)


class Tracer:
    """In-memory span log plus counters for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.peak_alloc = {}  # span name -> largest peak bytes of one call
        self._patches = []

    def wrap(self, name, fn, on_result=None, track_alloc=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if track_alloc:
                tracemalloc.start()
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if track_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[name] = max(self.peak_alloc.get(name, 0), peak)
            self.counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return traced

    def replace(self, owner, attr, make):
        """owner.attr = make(original), for a module global, class attribute
        or dict entry; uninstall() restores the original."""
        original = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        _assign(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def patch(self, owner, attr, name, **kwargs):
        """Record a span around every call of owner.attr."""
        self.replace(owner, attr, lambda fn: self.wrap(name, fn, **kwargs))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            _assign(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: inclusive seconds, self seconds; plus counts and peaks."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            s, self_s = totals.get(name, (0.0, 0.0))
            totals[name] = (s + end - start, self_s + end - start - child[i])
        return {
            "spans": {k: {"s": v[0], "self_s": v[1]} for k, v in totals.items()},
            "counts": dict(self.counts),
            "peak_alloc": dict(self.peak_alloc),
        }


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _count_trajectory(counts, args, traj):
    counts["odesolve.integrate.nfev"] += int(traj.nfev)
    counts["odesolve.integrate.steps"] += int(traj.times.size) - 1


def _count_deriv(counts, args, out):
    u = args[1]
    counts["hodge.PeriodicGrid.deriv.bytes_computed"] += int(u.nbytes + out.nbytes)


def _count_write(counts, args, result):
    counts["ioutil.atomic_write_text.bytes"] += len(args[1].encode("utf-8"))


def install(tracer: Tracer) -> None:
    """Wrap every traced name where grflab code looks it up."""
    from grflab import cli, cylinder, entropy, hodge, ioutil, odesolve, shooting, warped

    p = tracer.patch
    p(cli, "main", "cli.main")
    for command in list(cli.RUNNERS):
        p(cli.RUNNERS, command, f"cli.cmd.{command}")
    p(cli, "_random_trig_form", "cli.random_trig_form")

    p(hodge.PeriodicGrid, "deriv", "hodge.PeriodicGrid.deriv", on_result=_count_deriv)
    for fn in ("d", "codiff", "hodge", "interior", "wedge", "lie", "example_fields"):
        p(hodge, fn, f"hodge.{fn}")
    for fn in ALLOC_TRACKED:
        p(hodge, fn, f"hodge.{fn}", track_alloc=True)
    # __add__/__sub__ go through _binary; __rmul__ is a separate class slot
    for attr in ("_binary", "__mul__", "__rmul__"):
        p(hodge.FormField, attr, "hodge.FormField.arith")

    # cylinder and shooting import integrate by name, so odesolve.integrate
    # alone would see none of their calls
    for module in (odesolve, cylinder, shooting):
        p(module, "integrate", "odesolve.integrate", on_result=_count_trajectory)
    for fn in ("run_flow", "blowup_analysis", "torsion_divergence"):
        p(cylinder, fn, f"cylinder.{fn}")
    p(cylinder.CylinderTrajectory, "state_at", "cylinder.CylinderTrajectory.state_at")

    for fn in (
        "conjugate_heat_homogeneous",
        "entropy_derivative_check",
        "soliton_heat_check",
        "pointwise_monotonicity_check",
    ):
        p(entropy, fn, f"entropy.{fn}")

    # the conjugate-heat solve calls scipy directly, bypassing odesolve
    def count_nfev(solve_ivp):
        def counted(*args, **kwargs):
            res = solve_ivp(*args, **kwargs)
            tracer.counts["entropy.conjugate_heat_homogeneous.nfev"] += int(res.nfev)
            return res

        return counted

    tracer.replace(entropy, "solve_ivp", count_nfev)

    p(shooting, "shoot_r3_branch", "shooting.shoot_r3_branch")

    for fn in ("ode_residuals", "tensor_residuals", "convention_check"):
        p(warped, fn, f"warped.{fn}")
    p(entropy, "convention_check", "warped.convention_check")

    for module in (ioutil, cli, cylinder, entropy, hodge, shooting, warped):
        p(module, "atomic_write_text", "ioutil.atomic_write_text", on_result=_count_write)


def merge(summaries) -> dict:
    """Sum per-process summaries (peaks take the maximum)."""
    out = {"spans": {}, "counts": Counter(), "peak_alloc": {}}
    for s in summaries:
        for name, v in s["spans"].items():
            acc = out["spans"].setdefault(name, {"s": 0.0, "self_s": 0.0})
            acc["s"] += v["s"]
            acc["self_s"] += v["self_s"]
        out["counts"].update(s["counts"])
        for name, peak in s["peak_alloc"].items():
            out["peak_alloc"][name] = max(out["peak_alloc"].get(name, 0), peak)
    out["counts"] = dict(out["counts"])
    return out
