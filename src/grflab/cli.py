"""Configuration-driven command line front end.

Each subcommand maps onto one module operation, reads an optional strict
JSON config (unknown keys rejected), lets flags override config values,
writes artifacts atomically into the output directory and prints a
one-line summary of the key scalars.  The output directory is created
by the first artifact write, so a run that exits 2 or 3 leaves none
behind.

Exit status: 0 success; 2 a rejected input or an output directory that
cannot be written; 3 a numerical failure.  The library raises
ValueError when an argument breaks a stated precondition
(domain, sign, grid, stencil window) and RuntimeError when the
computation ran and missed its goal (a solver failed, the flow did not
collapse, a cross-check exceeded its bound).  ConfigError is a
ValueError, NumericalError a RuntimeError, and _execute is the one place
that turns either kind into an exit status.  It also silences numpy's
floating-point warnings, so a run prints only its summary or failure
line.  Each run caps its own data size at what it maps plus the memory
the kernel reports as available, so a run too large for memory fails at
its first allocation past that cap and exits 2 instead of being killed.

Config layout (all sections optional):

    {
      "command": "cylinder-flow",
      "parameters": {"h0sq": 0.5, "rtol": 1e-11, "atol": 1e-13},
      "output": {"directory": "out", "csv": true, "json": true}
    }

Each parameter has one name, its flag's with underscores for dashes
(--lam-floor is "lam_floor"); --dump-config prints a config in this
layout that reads back as the same run.

The output directory defaults to $GRFLAB_OUTPUT_DIR, then "grflab_out".
A sweep file lists independent runs, done one after another, each into
its own subdirectory:

    {"runs": [{"name": "a", "parameters": {"h0sq": 0.1}}, ...]}
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

# OpenBLAS starts a spinning worker thread per extra core when numpy
# loads, yet grflab's only BLAS calls (odesolve's np.dot on at most
# 7 x 4 arrays) are far below the size it splits across threads.
# Set before numpy's first import, so it reaches every CLI process; a
# caller's own value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

# The compute modules are imported by the runners that use them, so a
# command loads only what it runs: after numpy, importing cylinder with
# odesolve takes 12-17 ms, entropy with warped 12-16 ms, hodge 15-19 ms and
# shooting 4-5 ms (five fresh processes, no bytecode cache), which would
# add to the cold start of every command that needs none of them.  numpy
# is most of a cold start: 60-92 ms of `import grflab.cli`'s 83-126 ms
# with one BLAS thread, against 127-163 of 155-197 ms with OpenBLAS's
# default pool (`-X importtime`, eight fresh processes each, 2 cores); a
# whole command runs 65-80 ms shorter in wall and CPU time.
from .ioutil import atomic_write_text, to_json_text

ENV_OUTPUT_DIR = "GRFLAB_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "grflab_out"

class ConfigError(ValueError):
    """Rejected configuration; maps to exit status 2."""


class NumericalError(RuntimeError):
    """Computation failed or did not reach its goal; exit status 3."""


@dataclass(frozen=True)
class Param:
    kind: str  # float | int | str | flag
    default: object
    help: str
    choices: tuple = ()
    at_least: Optional[float] = None  # inclusive lower bound on a number
    above: Optional[float] = None  # exclusive lower bound on a number


_TOL = {"rtol": Param("float", 1e-11, "relative tolerance"),
        "atol": Param("float", 1e-13, "absolute tolerance")}
_SCALES = {"lam0": Param("float", 1.0, "initial sphere scale"),
           "beta0": Param("float", 1.0, "initial circle scale")}
_SOLITON = Param("str", "cylinder", "which explicit soliton",
                 choices=("cylinder", "gaussian"))
_HODGE_IDENTITIES = ("suobing", "twisted", "integral", "divh2", "adjointness")

SCHEMAS: Dict[str, Dict[str, Param]] = {
    "cylinder-flow": {
        "h0sq": Param("float", 0.1, "initial torsion h0^2", at_least=0.0),
        **_SCALES,
        "tmax": Param("float", 10.0, "latest flow time", above=0.0),
        "lam_floor": Param("float", None,
                           "collapse detection floor; default cylinder.LAM_FLOOR"),
        "dt_out": Param("float", 0.01, "CSV sample step; 0 writes the solver's steps",
                        at_least=0.0),
        **_TOL,
    },
    "blowup": {
        "h0sq": Param("float", 0.3, "initial torsion h0^2", at_least=0.0),
        **_SCALES,
        "samples": Param("int", 18, "geometric sample count", at_least=3),
        "tmax": Param("float", 10.0, "latest flow time", above=0.0),
        **_TOL,
    },
    "torsion": {
        "h0sq": Param("float", 0.5, "initial torsion h0^2, nonzero", at_least=0.0),
        **_SCALES,
        "psi0": Param("float", None, "crossing threshold"),
        "fit_points": Param("int", 200, "points for the log fit", at_least=2),
        "tmax": Param("float", 10.0, "latest flow time", above=0.0),
        **_TOL,
    },
    "shoot": {
        "r_switch": Param("float", 0.05, "series-to-integrator handoff radius"),
        "delta_floor": Param("float", 1e-8, "terminal u floor"),
        "r_max": Param("float", 12.0, "integration ceiling in r"),
        "csv": Param("flag", False, "also write the phase trajectory CSV"),
        **_TOL,
    },
    "soliton-residual": {
        "soliton": _SOLITON,
        "points": Param("int", 200, "grid points", at_least=2),
        "r_min": Param("float", 0.1, "grid start"),
        "r_max": Param("float", 3.0, "grid end"),
    },
    "entropy": {
        "h0sq": Param("float", 0.0, "initial torsion h0^2", at_least=0.0),
        **_SCALES,
        "u0": Param("float", None, "initial weight; default normalizes mass to 1"),
        "T_ref": Param("float", None, "reference time; default detected T_sing"),
        "dt": Param("float", 1e-4, "derivative-check step; 0 skips the check",
                    at_least=0.0),
        "t_max": Param("float", None, "cap on the default sample window"),
        **_TOL,
    },
    "heat-check": {
        "soliton": _SOLITON,
        "dt": Param("float", 1e-4, "central time step", above=0.0),
        "dr": Param("float", 2e-3, "radial stencil step", above=0.0),
        "r_max": Param("float", 3.0, "grid half-width", above=0.0),
        "points": Param("int", 200, "grid points", at_least=2),
    },
    "hodge-check": {
        "identity": Param("str", "all", "which identity to check",
                          choices=("all",) + _HODGE_IDENTITIES),
        "dim": Param("int", 3, "torus dimension", choices=(3, 4)),
        "size": Param("int", 32, "grid points per axis", at_least=16),
        "f_amp": Param("float", 1.0, "scalar field amplitude"),
        "h_amp": Param("float", 1.0, "3-form amplitude"),
        "data": Param("str", "example", "trigonometric data family",
                      choices=("example", "closed")),
        "refine": Param("flag", False, "also run doubled resolution, report rates"),
        "seed": Param("int", 7, "seed for the adjointness fields", at_least=0),
    },
}

COMMANDS = tuple(SCHEMAS)


# --------------------------------------------------------------------------
# config resolution


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


# accepted JSON types and their description, per Param kind; bool is an
# int subclass, so only a flag accepts it
_KINDS = {"float": ((int, float), "a number"), "int": (int, "an integer"),
          "flag": (bool, "a boolean"), "str": (str, "a string")}


def _coerce(command: str, name: str, value, spec: Param):
    if value is None:
        if spec.default is None:
            return None
        raise ConfigError(f"{command}: parameter '{name}' must not be null")
    types, what = _KINDS[spec.kind]
    if not isinstance(value, types) or (isinstance(value, bool) and spec.kind != "flag"):
        raise ConfigError(f"{command}: parameter '{name}' must be {what}")
    if spec.kind == "float":
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"{command}: parameter '{name}' must be finite")
    if spec.choices and value not in spec.choices:
        raise ConfigError(
            f"{command}: parameter '{name}' must be one of {list(spec.choices)}"
        )
    if spec.at_least is not None and not value >= spec.at_least:
        raise ConfigError(
            f"{command}: parameter '{name}' must be at least {spec.at_least:g}"
        )
    if spec.above is not None and not value > spec.above:
        raise ConfigError(
            f"{command}: parameter '{name}' must be greater than {spec.above:g}"
        )
    return value


def _set_params(command: str, params: dict, section: dict, where: str) -> None:
    """Coerce each entry of a parameters section into params."""
    schema = SCHEMAS[command]
    for key, value in section.items():
        if key not in schema:
            raise ConfigError(f"{where}: unknown parameter '{key}'")
        params[key] = _coerce(command, key, value, schema[key])


def resolve_config(
    command: str,
    file_cfg: Optional[dict],
    cli_params: Dict[str, object],
    out_flag: Optional[str],
) -> dict:
    """Merge defaults, config file and flags into a validated run config."""
    params = {name: spec.default for name, spec in SCHEMAS[command].items()}
    out_dir = None
    formats = {"csv": True, "json": True}

    if file_cfg is not None:
        unknown = set(file_cfg) - {"command", "parameters", "output"}
        if unknown:
            raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
        declared = file_cfg.get("command")
        if declared is None and not file_cfg:
            raise ConfigError("empty config: no command and no parameters")
        if declared is not None and declared != command:
            raise ConfigError(
                f"config declares command '{declared}' but '{command}' was invoked"
            )
        section = file_cfg.get("parameters", {})
        if not isinstance(section, dict):
            raise ConfigError("'parameters' must be an object")
        _set_params(command, params, section, command)
        output = file_cfg.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError("'output' must be an object")
        for key, value in output.items():
            if key == "directory":
                if not isinstance(value, str):
                    raise ConfigError("output directory must be a string")
                out_dir = value
            elif key in ("csv", "json"):
                if not isinstance(value, bool):
                    raise ConfigError(f"output flag '{key}' must be a boolean")
                formats[key] = value
            else:
                raise ConfigError(f"unknown output key '{key}'")

    _set_params(command, params,
                {k: v for k, v in cli_params.items() if v is not None}, command)

    if out_flag is not None:
        out_dir = out_flag
    if out_dir is None:
        out_dir = os.environ.get(ENV_OUTPUT_DIR, DEFAULT_OUTPUT_DIR)

    return {
        "command": command,
        "parameters": params,
        "output": {"directory": out_dir, **formats},
    }


# --------------------------------------------------------------------------
# command runners; each returns a one-line summary string


def _written(cfg: dict, *artifacts) -> str:
    """Write each (format, file name, text) whose output switch is on and
    return the summary suffix naming the written paths.

    text is a zero-argument callable returning the artifact's text, so an
    artifact that is switched off is never formatted.  This is the one
    place that writes a file.
    """
    paths = []
    for fmt, name, text in artifacts:
        if cfg["output"][fmt]:
            paths.append(os.path.join(cfg["output"]["directory"], name))
            atomic_write_text(paths[-1], text())
    return f" -> {', '.join(paths)}" if paths else ""


def _flow(cfg: dict, **limits):
    """run_flow from (lam0, h0sq, beta0) down to the run's lam_floor, or
    cylinder.LAM_FLOOR where it sets none; a step underflow is a numerical
    failure.  A command without a lam_floor parameter rejects a lam0 at or
    below that floor by lam0's name."""
    from . import cylinder

    p = cfg["parameters"]
    floor = cylinder.LAM_FLOOR if p.get("lam_floor") is None else p["lam_floor"]
    if "lam_floor" not in p and not p["lam0"] > floor:
        raise ConfigError(f"{cfg['command']}: parameter 'lam0' must be greater "
                          f"than the collapse floor {floor:g}")
    state = cylinder.CylinderState(lam=p["lam0"], h=math.sqrt(p["h0sq"]), beta=p["beta0"])
    traj = cylinder.run_flow(state, rtol=p["rtol"], atol=p["atol"], lam_floor=floor, **limits)
    if traj.termination == "step_underflow":
        raise NumericalError("flow terminated with step_underflow")
    return traj


def _run_cylinder_flow(cfg: dict) -> str:
    p = cfg["parameters"]
    traj = _flow(cfg, tmax=p["tmax"])
    if traj.termination == "blowup":
        raise NumericalError("flow terminated with blowup")
    dt_out = p["dt_out"] or None
    dest = _written(cfg, ("csv", "cylinder_flow.csv", lambda: traj.to_csv(dt_out)))
    drift = float(np.max(np.abs(traj.lambda_h_beta - traj.lambda_h_beta[0])))
    tsing = "none" if traj.T_sing is None else f"{traj.T_sing:.6f}"
    return (
        f"cylinder-flow h0sq={p['h0sq']:g}: T_sing={tsing} "
        f"conserved_drift={drift:.3e} steps={traj.times.size}{dest}"
    )


def _run_blowup(cfg: dict) -> str:
    from . import cylinder

    p = cfg["parameters"]
    report = cylinder.blowup_analysis(_flow(cfg, tmax=p["tmax"]), n_samples=p["samples"])
    dest = _written(cfg, ("json", "blowup.json", report.to_json))
    return (
        f"blowup h0sq={p['h0sq']:g}: limit={report.limit:.6f} "
        f"err={report.limit_error:.2e} opening_max={report.opening_max:.3e}{dest}"
    )


def _run_torsion(cfg: dict) -> str:
    from . import cylinder

    p = cfg["parameters"]
    report = cylinder.torsion_divergence(
        _flow(cfg, tmax=p["tmax"]), psi0=p["psi0"], fit_points=p["fit_points"]
    )
    dest = _written(cfg, ("json", "torsion.json", report.to_json))
    cross = "none" if report.crossing_time is None else f"{report.crossing_time:.6f}"
    return (
        f"torsion h0sq={p['h0sq']:g}: log_coefficient={report.log_coefficient:.4f} "
        f"I_end={report.I_end:.4f} crossing={cross}{dest}"
    )


def _run_shoot(cfg: dict) -> str:
    from . import shooting

    p = cfg["parameters"]
    report = shooting.shoot_r3_branch(
        r_switch=p["r_switch"], delta_floor=p["delta_floor"],
        r_max=p["r_max"], rtol=p["rtol"], atol=p["atol"],
    )
    if report.termination == "step_underflow":
        raise NumericalError("phase integration hit step_underflow")
    if not report.terminated_at_zero:
        raise NumericalError("orbit did not return to the u floor")
    artifacts = [("json", "shoot.json", report.to_json)]
    if p["csv"]:
        artifacts.append(("csv", "shoot_trajectory.csv", report.trajectory_csv))
    dest = _written(cfg, *artifacts)
    ms = ",".join("none" if m is None else f"{m:.6f}" for m in report.milestones)
    return (
        f"shoot: milestones=[{ms}] u_max={report.u_max:.6f} "
        f"drift={report.invariant_drift:.2e}{dest}"
    )


def _soliton(name: str):
    from . import warped

    return warped.cylinder_soliton() if name == "cylinder" else warped.gaussian_shrinker()


def _run_soliton_residual(cfg: dict) -> str:
    from . import warped

    p = cfg["parameters"]
    if not p["r_max"] > p["r_min"]:
        raise ConfigError("soliton-residual: r_max must exceed r_min")
    data = _soliton(p["soliton"])
    grid = np.linspace(p["r_min"], p["r_max"], p["points"])
    conv = warped.convention_check(data, grid)
    payload = {
        "soliton": p["soliton"],
        "grid": {"r_min": p["r_min"], "r_max": p["r_max"], "points": p["points"]},
        "ode_sup": conv.ode.sup,
        "tensor_sup": conv.tensor.sup,
        "convention_ok": conv.ok,
        "factor_gap": conv.factor_gap,
        "lambda_ode": data.lambda_ode,
        "lambda_soliton": data.lambda_soliton,
    }
    dest = _written(cfg, ("json", "soliton_residual.json", lambda: to_json_text(payload)))
    worst = max(conv.ode.max_abs, conv.tensor.max_abs)
    return (
        f"soliton-residual {p['soliton']}: max_residual={worst:.3e} "
        f"convention_ok={conv.ok}{dest}"
    )


def _run_entropy(cfg: dict) -> str:
    from . import entropy

    p = cfg["parameters"]
    traj = _flow(cfg)
    u = entropy.conjugate_heat_homogeneous(traj, u0=p["u0"])
    trace = entropy.entropy_derivative_check(traj, u, dt=p["dt"], t_max=p["t_max"],
                                             T_ref=p["T_ref"])
    dest = _written(cfg, ("csv", "entropy.csv", trace.to_csv))
    drift = float(np.max(np.abs(trace.mass - trace.mass[0])) / trace.mass[0])
    # without the derivative check both columns are NaN, and so are these
    return (
        f"entropy h0sq={p['h0sq']:g}: W0={trace.W[0]:.6f} mass_drift={drift:.2e} "
        f"gap_max={np.max(trace.gap):.2e} "
        f"dW_formula_min={np.min(trace.dW_formula):.4f}{dest}"
    )


def _run_heat_check(cfg: dict) -> str:
    from . import entropy

    p = cfg["parameters"]
    data = _soliton(p["soliton"])
    # the gaussian warp vanishes at r = 0; keep the grid one-sided there
    lo = 0.1 if p["soliton"] == "gaussian" else -p["r_max"]
    if not p["r_max"] > lo:
        raise ConfigError(f"heat-check: r_max must exceed {lo:g}, where the "
                          f"{p['soliton']} grid starts")
    grid = np.linspace(lo, p["r_max"], p["points"])
    heat = entropy.soliton_heat_check(grid, dt=p["dt"], data=data)
    mono = entropy.pointwise_monotonicity_check(grid, dt=p["dt"], data=data, dr=p["dr"])
    dest = _written(cfg, ("json", "heat_check.json", heat.to_json),
                    ("json", "monotonicity_check.json", mono.to_json))
    return (
        f"heat-check {p['soliton']}: heat_sup={heat.max_abs:.3e} "
        f"monotonicity_sup={mono.max_abs:.3e}{dest}"
    )


def _hodge_data(grid, p: dict):
    from . import hodge

    f, H, ref = hodge.example_fields(grid, p["f_amp"], p["h_amp"])
    if p["data"] == "closed":
        H = hodge.closed_three_form(grid, (p["h_amp"], 0.8 * p["h_amp"]))
        ref = None
    return f, H, ref


def _one_hodge_report(identity: str, grid, p: dict):
    from . import hodge

    if identity == "adjointness":
        pairs = _adjointness_pairs(grid, p["seed"])
        # the pairs are lines only; every degree's walk runs in one workspace,
        # the report's largest allocation, made before the first walk, so a
        # run that does not fit fails here
        workspace = np.empty(max(hodge.adjointness_workspace_size(*pair) for pair in pairs))
        gaps = {f"degree_{k}": hodge.adjointness_gap(*pair, workspace=workspace)
                for k, pair in enumerate(pairs)}
        return hodge.HodgeReport(
            identity="adjointness", grid_spec=grid.spec(), residuals=gaps
        )
    f, H, ref = _hodge_data(grid, p)
    if identity == "suobing":
        return hodge.check_suobing(f, H, reference=ref)
    if identity == "twisted":
        return hodge.check_twisted_codiff(f, H)
    if identity == "integral":
        report = hodge.check_integral_identity(f, H)
        if p["data"] == "example":
            exact = hodge.integral_closed_form(p["f_amp"], p["h_amp"], grid.dim)
            report.values["closed_form"] = exact
            report.residuals["value_error"] = abs(report.values["left"] - exact)
        return report
    if identity == "divh2":
        return hodge.check_divH2(H)
    raise AssertionError(identity)


# module global so that callers (and the benchmark tracer) look it up by name
def _random_trig_form(grid, degree, rng):
    from . import hodge

    return hodge.random_trig_form(grid, degree, rng)


def _adjointness_pairs(grid, seed: int) -> list:
    """(alpha_k, beta_{k+1}) for k = 0 .. dim-1, drawn in that order, alpha
    before beta, from one `random.Random` seeded with seed.

    Python's generator, not numpy's: tempfile has loaded it already, and
    it repeats its stream for a seed across Python versions, while
    numpy.random costs a cold hodge-check 10-15 ms and 6 MB resident."""
    rng = random.Random(seed)
    return [(_random_trig_form(grid, k, rng), _random_trig_form(grid, k + 1, rng))
            for k in range(grid.dim)]


def _run_hodge_check(cfg: dict) -> str:
    from . import hodge

    p = cfg["parameters"]
    identities = _HODGE_IDENTITIES if p["identity"] == "all" else (p["identity"],)
    grid = hodge.PeriodicGrid.cube(p["dim"], p["size"])
    # the adjointness walk is the run's largest working set: it goes first,
    # so a run that does not fit fails before the other identities compute
    done = {i: _one_hodge_report(i, grid, p) for i in identities if i == "adjointness"}
    bits = []
    artifacts = []
    for identity in identities:
        report = done[identity] if identity in done else _one_hodge_report(identity, grid, p)
        if p["refine"] and identity != "adjointness":
            fine = _one_hodge_report(identity, grid.refined(), p)
            key = max(report.residuals, key=lambda k: report.residuals[k])
            coarse_r, fine_r = report.residuals[key], fine.residuals[key]
            if fine_r > 0 and coarse_r > 0:
                report.rate = float(np.log2(coarse_r / fine_r))
            report.residuals = {
                **report.residuals,
                **{f"refined_{k}": v for k, v in fine.residuals.items()},
            }
        bad = [k for part in (report.residuals, report.values)
               for k, v in part.items() if not math.isfinite(v)]
        if bad:
            raise NumericalError(f"hodge-check: {identity} {', '.join(bad)} not finite")
        artifacts.append(("json", f"hodge_{identity}.json", report.to_json))
        rate = f" rate={report.rate:.2f}" if report.rate is not None else ""
        bits.append(f"{identity}={report.sup:.3e}{rate}")
    dest = _written(cfg, *artifacts)
    if dest and len(artifacts) > 1:
        dest = f" -> {cfg['output']['directory']}"
    return f"hodge-check {p['dim']}d n={p['size']}: " + " ".join(bits) + dest


RUNNERS = {
    "cylinder-flow": _run_cylinder_flow,
    "blowup": _run_blowup,
    "torsion": _run_torsion,
    "shoot": _run_shoot,
    "soliton-residual": _run_soliton_residual,
    "entropy": _run_entropy,
    "heat-check": _run_heat_check,
    "hodge-check": _run_hodge_check,
}


# --------------------------------------------------------------------------
# argument parsing and dispatch


_ARG_TYPES = {"float": float, "int": int, "str": str}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The grflab parser; only the named command's subparser gets its
    schema's flags.

    argparse builds a help formatter, which asks for the terminal's size,
    for each argument it adds, so a call adds no flag of a command it does
    not run: 23 arguments for hodge-check, where every command's flags
    make 102.  The four options every command shares are declared once,
    in a parent parser."""
    parser = argparse.ArgumentParser(
        prog="grflab",
        description="numerical laboratory for shrinking generalized Ricci solitons",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="strict JSON config file")
    shared.add_argument("--out", help="output directory")
    shared.add_argument("--dump-config", action="store_true",
                        help="print the resolved config (a list with --sweep) and exit")
    shared.add_argument("--sweep", help="JSON sweep file: independent runs")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS + ("run",):
        sub.add_parser(name, parents=[shared])
    if command in SCHEMAS:
        sp = sub.choices[command]
        for name, spec in SCHEMAS[command].items():
            flag = "--" + name.replace("_", "-")
            if spec.kind == "flag":
                sp.add_argument(flag, dest=name, action="store_const", const=True,
                                default=None, help=spec.help)
            else:
                sp.add_argument(flag, dest=name, type=_ARG_TYPES[spec.kind],
                                default=None, choices=spec.choices or None,
                                help=spec.help)
    return parser


def _sweep_runs(command: str, file_cfg, cli_params, out_flag, sweep_path) -> list:
    """One (name, cfg) per run of the sweep file, each into its own
    subdirectory of the output directory."""
    sweep = _load_json(sweep_path)
    unknown = set(sweep) - {"runs"}
    if unknown:
        raise ConfigError(f"sweep file: unknown key(s) {sorted(unknown)}")
    runs = sweep.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ConfigError("sweep file needs a non-empty 'runs' list")
    configs = []
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            raise ConfigError(f"sweep run {i} must be an object")
        unknown = set(run) - {"name", "parameters"}
        if unknown:
            raise ConfigError(f"sweep run {i}: unknown key(s) {sorted(unknown)}")
        name = run.get("name", f"run{i:03d}")
        if (not isinstance(name, str) or name in ("", ".", "..")
                or os.sep in name):
            raise ConfigError(f"sweep run {i}: bad name")
        if any(name == used for used, _ in configs):
            raise ConfigError(f"sweep run {i}: name '{name}' already used")
        cfg = resolve_config(command, file_cfg, cli_params, out_flag)
        overrides = run.get("parameters", {})
        if not isinstance(overrides, dict):
            raise ConfigError(f"sweep run {i}: 'parameters' must be an object")
        _set_params(command, cfg["parameters"], overrides, f"sweep run {i}")
        cfg["output"]["directory"] = os.path.join(cfg["output"]["directory"], name)
        configs.append((name, cfg))
    return configs


def _resolve_runs(args) -> Tuple[str, list]:
    """The command and its (name, cfg) runs: the sweep's runs, or one
    unnamed run."""
    file_cfg = _load_json(args.config) if args.config else None
    if args.command == "run":
        if file_cfg is None:
            raise ConfigError("run: --config is required")
        command = file_cfg.get("command")
        if command is None:
            raise ConfigError("config has no 'command'")
        if not isinstance(command, str):
            raise ConfigError("config 'command' must be a string")
        if command not in SCHEMAS:
            raise ConfigError(f"unknown command '{command}'")
        cli_params = {}
    else:
        command = args.command
        cli_params = {name: getattr(args, name) for name in SCHEMAS[command]}
    if args.sweep:
        return command, _sweep_runs(command, file_cfg, cli_params, args.out, args.sweep)
    return command, [(None, resolve_config(command, file_cfg, cli_params, args.out))]


def _proc_bytes(path: str, key: str) -> Optional[int]:
    """The kB figure on the `key:` line of a /proc file, in bytes; None
    when it cannot be read."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _available_memory() -> Optional[int]:
    """Bytes the kernel reports as available, None when it cannot be read."""
    return _proc_bytes("/proc/meminfo", "MemAvailable")


@contextmanager
def _data_cap():
    """Lower this process's RLIMIT_DATA soft limit, for the block, to the
    data it maps now plus the memory the kernel reports as available, and
    restore the old limits on exit.

    An allocation past the cap raises MemoryError instead of drawing the
    OOM killer.  Yields the cap in bytes, or None where resource or /proc
    cannot be read and the block runs uncapped.
    """
    try:
        import resource
    except ImportError:  # not on every platform
        resource = None
    mapped = _proc_bytes("/proc/self/status", "VmData")
    available = _available_memory()
    if resource is None or mapped is None or available is None:
        yield None
        return
    limits = resource.getrlimit(resource.RLIMIT_DATA)
    cap = mapped + available
    if limits[0] != resource.RLIM_INFINITY:
        cap = min(cap, limits[0])
    resource.setrlimit(resource.RLIMIT_DATA, (cap, limits[1]))
    try:
        yield cap
    finally:
        resource.setrlimit(resource.RLIMIT_DATA, limits)


def _execute(run, *args) -> Tuple[int, object]:
    """(0, run(*args)), or the exit status and message of what it raised.

    The one place an exception becomes an exit status: a rejected input
    (ConfigError or a library ValueError) is 2, and so are a run that does
    not fit in memory, which runs under _data_cap, and an artifact that
    cannot be written (an OSError); a computation that ran and missed its
    goal (NumericalError or a library RuntimeError) is 3.
    numpy's floating-point warnings are silenced for the run: a value that
    overflows fails by its own check, and prints only that failure.
    """
    cap = None
    try:
        with _data_cap() as cap, np.errstate(all="ignore"):
            return 0, run(*args)
    except MemoryError:
        limit = "is available" if cap is None else f"the {cap >> 20} MiB available"
        return 2, f"config error: out of memory: the run needs more than {limit}"
    except OSError as exc:  # the only files a run touches are its artifacts
        path = "" if exc.filename is None else f"{exc.filename}: "
        return 2, f"config error: cannot write output: {path}{exc.strerror or exc}"
    except ValueError as exc:
        return 2, f"config error: {exc}"
    except RuntimeError as exc:
        return 3, f"numerical failure: {exc}"


def _run_sweep(command: str, runs: list) -> int:
    """Do the runs one after another in sweep order, print one line per
    run and return the worst exit status.

    Each run sets its own data cap from the memory available when it
    starts, and is done, its cap lifted, before the next one starts.
    """
    worst = 0
    for name, cfg in runs:
        code, line = _execute(RUNNERS[command], cfg)
        print(f"[{name}] {line}")
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level has no option that takes a value, so argparse runs the
    # first argument not starting with "-" as the command, or fails on an
    # earlier one, which names no command either
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    code, resolved = _execute(_resolve_runs, args)
    if code:
        print(resolved, file=sys.stderr)
        return code
    command, runs = resolved
    if args.dump_config:
        configs = [cfg for _, cfg in runs]
        sys.stdout.write(to_json_text(configs if args.sweep else configs[0]))
        return 0
    if args.sweep:
        return _run_sweep(command, runs)
    code, line = _execute(RUNNERS[command], runs[0][1])
    print(line, file=sys.stderr if code else sys.stdout)
    return code


def entry() -> int:
    """The program entry of `python -m grflab.cli` and the grflab console script."""
    # The collections an exiting interpreter runs walk every object the
    # imports made, some 21,000 after numpy; a full collection of them
    # takes 6-10 ms.  Frozen, they are skipped: a fresh `import grflab.cli`
    # process went from 132.6 to 116.9 ms (medians of 21 alternating
    # fresh processes, 2 cores) at the same peak RSS.  Frozen objects are
    # never collected, so only a fresh process freezes: main(), called
    # in-process, leaves its caller's collector as it was.
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
