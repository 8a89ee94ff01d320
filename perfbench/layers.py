"""Per-layer metrics of a traced run, by name, from the worker's span summary.

Names follow `<module>.<function>.<quantity>`: `.s` is inclusive time,
`.self_s` excludes traced callees, `.calls`/`.nfev`/`.steps`/`.bytes` are
counts that repeat exactly for a seed, `bytes_computed` is calls x (input
+ output array bytes) and ignores cache misses.
"""
import statistics

from tracer import ALLOC_TRACKED as HODGE_CHECKS
from workloads import CLI_SUMMARY

CLI_COMMANDS = tuple(CLI_SUMMARY)

UNITS = {
    "import.grflab_s": "s",
    "import.cli_s": "s",
    "cli.main.self_s": "s",
    **{f"cli.cmd.{c}.s": "s" for c in CLI_COMMANDS},
    "cli.random_trig_form.s": "s",
    "hodge.PeriodicGrid.deriv.calls": "count",
    "hodge.PeriodicGrid.deriv.self_s": "s",
    "hodge.PeriodicGrid.deriv.bytes_computed": "bytes",
    **{f"hodge.{f}.self_s": "s" for f in ("d", "codiff", "hodge", "interior", "wedge", "lie")},
    "hodge.FormField.arith.self_s": "s",
    **{f"hodge.{f}.s": "s" for f in HODGE_CHECKS},
    **{f"hodge.{f}.peak_alloc_mb": "MB" for f in HODGE_CHECKS},
    "hodge.example_fields.s": "s",
    "odesolve.integrate.calls": "count",
    "odesolve.integrate.self_s": "s",
    "odesolve.integrate.nfev": "count",
    "odesolve.integrate.steps": "count",
    **{f"cylinder.{f}.s": "s" for f in ("run_flow", "blowup_analysis", "torsion_divergence")},
    "cylinder.CylinderTrajectory.state_at.calls": "count",
    "cylinder.CylinderTrajectory.state_at.self_s": "s",
    "entropy.conjugate_heat_homogeneous.self_s": "s",
    "entropy.conjugate_heat_homogeneous.nfev": "count",
    **{f"entropy.{f}.s": "s" for f in ("entropy_derivative_check", "soliton_heat_check",
                                        "pointwise_monotonicity_check")},
    "shooting.shoot_r3_branch.s": "s",
    **{f"warped.{f}.s": "s" for f in ("ode_residuals", "tensor_residuals", "convention_check")},
    "ioutil.atomic_write_text.calls": "count",
    "ioutil.atomic_write_text.s": "s",
    "ioutil.atomic_write_text.bytes": "bytes",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}

COUNTS = tuple(name for name, unit in UNITS.items() if unit in ("count", "bytes"))


def metrics(res: dict) -> dict:
    """name -> (value, note) for every name in UNITS."""
    layers = res["layers"]
    spans, counts, peaks = layers["spans"], layers["counts"], layers["peak_alloc"]
    out = {}
    for name, unit in UNITS.items():
        if name.startswith(("import.", "trace.")):
            continue
        stem, quantity = name.rsplit(".", 1)
        if quantity in ("s", "self_s"):
            out[name] = (spans.get(stem, {}).get(quantity, 0.0), "traced pass")
        elif quantity == "peak_alloc_mb":
            out[name] = (peaks.get(stem, 0) / 2**20, "largest call, tracemalloc")
        else:
            out[name] = (counts.get(name, 0), "traced pass")
    for key in ("grflab_s", "cli_s"):
        samples = [imp[key] for imp in res["imports"]]
        out[f"import.{key}"] = (statistics.median(samples),
                                f"median of {len(samples)} cold starts")
    over = res["overhead"]
    out["trace.untraced_s"] = (over["untraced_s"], f"{over['workload']}, first block")
    out["trace.overhead_s"] = (over["traced_s"] - over["untraced_s"],
                               f"{over['workload']}: traced {over['traced_s']:.3f} s")
    return {name: out[name] for name in UNITS}
