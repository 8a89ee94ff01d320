"""End to end tests for the command line front end.

Every test drives grflab.cli.main(argv) in process and inspects the exit
status, the one-line summary, and the artifacts left in a scratch
directory; only the golden record's check runs fresh processes.  Exit
codes: 0 success, 2 config error, 3 numerical failure.
"""

import importlib.util
import json
import math
import os
import resource
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from grflab import cli, cylinder, hodge


@pytest.fixture()
def invoke(capsys):
    def _invoke(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _invoke


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# --------------------------------------------------------------------------
# happy paths and artifact contents


def test_cylinder_flow_writes_csv_with_closed_form_values(invoke, tmp_path):
    code, out, err = invoke("cylinder-flow", "--h0sq", "0.5", "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert out.startswith("cylinder-flow h0sq=0.5:")
    assert "T_sing=2.000000" in out
    header, rows = read_csv(tmp_path / "cylinder_flow.csv")
    assert header[:4] == ["t", "lambda", "h", "beta"]
    # dt_out = 0.01 puts a sample exactly at t = 1; there lambda = 1 - t/2
    by_t = {row[0]: row for row in rows}
    assert abs(by_t[1.0][1] - 0.5) < 1e-9
    assert abs(by_t[1.0][3] - 1.0 / math.sqrt(0.5)) < 1e-9


def test_artifacts_are_byte_identical_across_runs(invoke, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = invoke("shoot", "--csv", "--out", str(out_dir))
        assert code == 0
    for name in ("shoot.json", "shoot_trajectory.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_shoot_report_payload(invoke, tmp_path):
    code, out, err = invoke("shoot", "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("shoot: milestones=[")
    assert "u_max=2.279507" in out
    payload = read_json(tmp_path / "shoot.json")
    milestones = payload["milestones"]
    assert list(milestones) == ["r1", "r2", "r3", "r4"]
    values = [milestones[k] for k in ("r1", "r2", "r3", "r4")]
    assert all(isinstance(v, float) and math.isfinite(v) for v in values)
    assert values == sorted(values)
    assert abs(payload["u_max"] - 3.0 ** 0.75) < 1e-6
    assert payload["terminated_at_zero"] is True
    # the trajectory CSV only appears with the flag
    assert not (tmp_path / "shoot_trajectory.csv").exists()


def test_torsion_crossing_matches_closed_form(invoke, tmp_path):
    code, out, err = invoke(
        "torsion", "--h0sq", "0.5", "--psi0", "12", "--out", str(tmp_path)
    )
    assert code == 0
    assert "crossing=1.729329" in out
    payload = read_json(tmp_path / "torsion.json")
    assert set(payload) == {
        "times", "torsion_integral", "log_coefficient", "psi0",
        "crossing_time", "I_end", "T_sing",
    }
    # h0^2 = 1/2 collapses at T = 2 and the integral crosses 12 at 2 - 2/e^2
    assert abs(payload["crossing_time"] - (2.0 - 2.0 * math.exp(-2.0))) < 1e-6
    assert abs(payload["log_coefficient"] - 6.0) < 1e-4


def test_soliton_residual_payload(invoke, tmp_path):
    code, out, err = invoke(
        "soliton-residual", "--soliton", "gaussian", "--out", str(tmp_path)
    )
    assert code == 0
    assert out.startswith("soliton-residual gaussian:")
    assert "convention_ok=True" in out
    payload = read_json(tmp_path / "soliton_residual.json")
    assert set(payload) == {
        "soliton", "grid", "ode_sup", "tensor_sup", "convention_ok",
        "factor_gap", "lambda_ode", "lambda_soliton",
    }
    assert payload["convention_ok"] is True
    assert payload["factor_gap"] < 1e-10
    assert max(payload["ode_sup"].values()) < 1e-10
    assert max(payload["tensor_sup"].values()) < 1e-10
    assert payload["lambda_soliton"] == pytest.approx(2 * payload["lambda_ode"])


def test_entropy_artifact_starts_at_pinned_value(invoke, tmp_path):
    code, out, err = invoke("entropy", "--dt", "0", "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("entropy h0sq=0:")
    assert "W0=-0.734488" in out
    # without the derivative check its two summary figures are NaN
    assert "gap_max=nan dW_formula_min=nan" in out
    header, rows = read_csv(tmp_path / "entropy.csv")
    assert header == ["t", "tau", "W", "dW_fd", "dW_formula", "gap"]
    assert rows[0][0] == 0.0
    # default u0 normalizes mass to 1; at t = 0 then W = log(2 sqrt(pi)) - 2
    assert abs(rows[0][2] - (math.log(2.0 * math.sqrt(math.pi)) - 2.0)) < 1e-9


def test_entropy_without_collapse_needs_explicit_reference_time(invoke, tmp_path):
    # lam0 = 100 under pure Ricci flow only reaches lam = 90 by tmax
    code, out, err = invoke("entropy", "--lam0", "100", "--out", str(tmp_path))
    assert code == 3
    assert err.startswith("numerical failure:")
    assert "T_ref" in err
    code, out, err = invoke(
        "entropy", "--lam0", "100", "--T-ref", "200", "--dt", "0",
        "--out", str(tmp_path),
    )
    assert code == 0


def test_soliton_residual_evaluates_each_system_once(invoke, tmp_path, monkeypatch):
    # the convention check's own reports fill the artifact
    from grflab import warped

    calls = []
    for name in ("ode_residuals", "tensor_residuals"):
        def counted(*args, _name=name, _fn=getattr(warped, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(warped, name, counted)
    assert invoke("soliton-residual", "--out", str(tmp_path))[0] == 0
    assert sorted(calls) == ["ode_residuals", "tensor_residuals"]


def test_heat_check_writes_both_reports(invoke, tmp_path):
    code, out, err = invoke(
        "heat-check", "--soliton", "gaussian", "--points", "60",
        "--dt", "1e-3", "--out", str(tmp_path),
    )
    assert code == 0
    assert out.startswith("heat-check gaussian: heat_sup=")
    assert "monotonicity_sup=" in out
    heat = read_json(tmp_path / "heat_check.json")
    mono = read_json(tmp_path / "monotonicity_check.json")
    assert set(heat) == set(mono) == {"grid", "residuals", "sup", "max_abs", "meta"}
    assert max(abs(v) for v in heat["sup"].values()) < 1e-4
    assert max(abs(v) for v in mono["sup"].values()) < 1e-4


def test_hodge_refine_reports_fourth_order_rate(invoke, tmp_path):
    code, out, err = invoke(
        "hodge-check", "--identity", "twisted", "--size", "16", "--refine",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "rate=" in out
    payload = read_json(tmp_path / "hodge_twisted.json")
    assert set(payload) == {"identity", "grid", "residuals", "values", "sup", "rate"}
    assert 3.0 < payload["rate"] < 5.0
    assert any(key.startswith("refined_") for key in payload["residuals"])


# --------------------------------------------------------------------------
# config handling


def test_dump_config_resolves_flags_over_file(invoke, tmp_path):
    cfg = write_config(tmp_path, {
        "command": "cylinder-flow",
        "parameters": {"h0sq": 0.1, "tmax": 4.0},
    })
    code, out, err = invoke(
        "cylinder-flow", "--config", cfg, "--h0sq", "0.5",
        "--dump-config", "--out", str(tmp_path / "scratch"),
    )
    assert code == 0 and err == ""
    resolved = json.loads(out)
    assert resolved["command"] == "cylinder-flow"
    assert resolved["parameters"]["h0sq"] == 0.5  # flag wins
    assert resolved["parameters"]["tmax"] == 4.0  # file survives
    assert resolved["output"]["directory"] == str(tmp_path / "scratch")
    assert not (tmp_path / "scratch").exists()  # dump never runs anything


def test_dump_config_prints_every_sweep_run_and_runs_none(invoke, tmp_path):
    sweep = write_config(tmp_path, {
        "runs": [{"name": "a", "parameters": {"h0sq": 0.1}}, {"name": "b"}],
    }, name="sweep.json")
    code, out, err = invoke("blowup", "--h0sq", "0.5", "--dump-config",
                            "--sweep", sweep, "--out", str(tmp_path / "scratch"))
    assert code == 0 and err == ""
    resolved = json.loads(out)
    assert [cfg["parameters"]["h0sq"] for cfg in resolved] == [0.1, 0.5]
    assert [cfg["output"]["directory"] for cfg in resolved] == [
        str(tmp_path / "scratch" / name) for name in ("a", "b")
    ]
    assert not (tmp_path / "scratch").exists()


def test_config_parameter_holds_its_schema_bound(invoke, tmp_path):
    # the schema bound holds on the config route into a parameter too
    cfg = write_config(tmp_path, {"parameters": {"size": 8}})
    code, out, err = invoke("hodge-check", "--config", cfg, "--dump-config")
    assert code == 2 and out == ""
    assert "parameter 'size' must be at least 16" in err


def test_tolerances_section_is_rejected(invoke, tmp_path):
    # rtol, atol and the grid size are parameters; no section renames them
    cfg = write_config(tmp_path, {"parameters": {"size": 24}, "tolerances": {"grid": 40}})
    code, out, err = invoke("hodge-check", "--config", cfg, "--dump-config")
    assert code == 2 and out == ""
    assert "unknown config section(s): ['tolerances']" in err


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_dumped_config_reads_back_as_the_same_run(invoke, tmp_path, command):
    code, dumped, _ = invoke(command, "--dump-config")
    assert code == 0
    cfg = write_config(tmp_path, json.loads(dumped))
    code, again, err = invoke(command, "--config", cfg, "--dump-config")
    assert code == 0 and err == ""
    assert again == dumped


def test_output_directory_precedence(invoke, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "from_env"))
    code, out, _ = invoke("shoot", "--dump-config")
    assert json.loads(out)["output"]["directory"] == str(tmp_path / "from_env")

    cfg = write_config(tmp_path, {"output": {"directory": str(tmp_path / "from_cfg")}})
    code, out, _ = invoke("shoot", "--config", cfg, "--dump-config")
    assert json.loads(out)["output"]["directory"] == str(tmp_path / "from_cfg")

    code, out, _ = invoke("shoot", "--config", cfg, "--dump-config",
                          "--out", str(tmp_path / "from_flag"))
    assert json.loads(out)["output"]["directory"] == str(tmp_path / "from_flag")

    monkeypatch.delenv(cli.ENV_OUTPUT_DIR)
    code, out, _ = invoke("shoot", "--dump-config")
    assert json.loads(out)["output"]["directory"] == "grflab_out"


def test_env_output_dir_receives_artifacts(invoke, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(target))
    code, out, _ = invoke("shoot")
    assert code == 0
    assert (target / "shoot.json").exists()


def test_output_format_switches_suppress_artifacts(invoke, tmp_path):
    cfg = write_config(tmp_path, {"output": {"csv": False}})
    out_dir = tmp_path / "run"
    code, out, _ = invoke("cylinder-flow", "--config", cfg, "--out", str(out_dir))
    assert code == 0
    assert "->" not in out
    assert not (out_dir / "cylinder_flow.csv").exists()

    cfg = write_config(tmp_path, {"output": {"json": False}}, name="nojson.json")
    out_dir = tmp_path / "run2"
    code, out, _ = invoke("shoot", "--csv", "--config", cfg, "--out", str(out_dir))
    assert code == 0
    assert not (out_dir / "shoot.json").exists()
    assert (out_dir / "shoot_trajectory.csv").exists()


def test_run_subcommand_takes_command_from_config(invoke, tmp_path):
    cfg = write_config(tmp_path, {"command": "shoot"})
    out_dir = tmp_path / "run"
    code, out, err = invoke("run", "--config", cfg, "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "shoot.json").exists()

    code, _, err = invoke("run")
    assert code == 2 and "--config is required" in err

    cfg = write_config(tmp_path, {"parameters": {}}, name="nocmd.json")
    code, _, err = invoke("run", "--config", cfg)
    assert code == 2 and "no 'command'" in err


# --------------------------------------------------------------------------
# rejection paths


def test_empty_config_is_rejected(invoke, tmp_path):
    cfg = write_config(tmp_path, {})
    out_dir = tmp_path / "never"
    code, out, err = invoke("cylinder-flow", "--config", cfg, "--out", str(out_dir))
    assert code == 2
    assert err.startswith("config error:")
    assert "empty config" in err
    assert out == ""
    assert not out_dir.exists()


def test_unknown_parameter_is_named(invoke, tmp_path):
    cfg = write_config(tmp_path, {"parameters": {"h0qs": 0.5}})
    code, _, err = invoke("cylinder-flow", "--config", cfg)
    assert code == 2
    assert "h0qs" in err


def test_malformed_json_reports_position(invoke, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = invoke("cylinder-flow", "--config", str(path))
    assert code == 2
    assert "line 1" in err


# one case per config-error branch: the command, the files it reads (name:
# text), the arguments naming them, and the key or file the message names
CONFIG_ERRORS = {
    "unreadable-file": ("cylinder-flow", {}, ("--config", "absent.json"), "absent.json"),
    "top-level-not-object": ("cylinder-flow", {"c.json": "[1]"}, ("--config", "c.json"),
                             "c.json: top level must be a JSON object"),
    "null": ("cylinder-flow", {"c.json": '{"parameters": {"h0sq": null}}'},
             ("--config", "c.json"), "'h0sq' must not be null"),
    "wrong-type": ("cylinder-flow", {"c.json": '{"parameters": {"h0sq": "0.5"}}'},
                   ("--config", "c.json"), "'h0sq' must be a number"),
    "non-finite": ("cylinder-flow", {"c.json": '{"parameters": {"h0sq": Infinity}}'},
                   ("--config", "c.json"), "'h0sq' must be finite"),
    "choice": ("soliton-residual", {"c.json": '{"parameters": {"soliton": "sphere"}}'},
               ("--config", "c.json"), "'soliton' must be one of"),
    "parameters-not-object": ("cylinder-flow", {"c.json": '{"parameters": [1]}'},
                              ("--config", "c.json"), "'parameters' must be an object"),
    "output-not-object": ("cylinder-flow", {"c.json": '{"output": "out"}'},
                          ("--config", "c.json"), "'output' must be an object"),
    "directory-not-string": ("cylinder-flow", {"c.json": '{"output": {"directory": 1}}'},
                             ("--config", "c.json"), "output directory must be a string"),
    "flag-not-boolean": ("cylinder-flow", {"c.json": '{"output": {"csv": 1}}'},
                         ("--config", "c.json"), "'csv' must be a boolean"),
    "unknown-output-key": ("cylinder-flow", {"c.json": '{"output": {"xml": true}}'},
                           ("--config", "c.json"), "unknown output key 'xml'"),
    "unknown-sweep-key": ("shoot", {"s.json": '{"runs": [{}], "extra": 1}'},
                          ("--sweep", "s.json"), "unknown key(s) ['extra']"),
    "sweep-without-runs": ("shoot", {"s.json": "{}"}, ("--sweep", "s.json"), "'runs'"),
    "sweep-with-empty-runs": ("shoot", {"s.json": '{"runs": []}'}, ("--sweep", "s.json"),
                              "'runs'"),
    "sweep-run-not-object": ("shoot", {"s.json": '{"runs": [1]}'}, ("--sweep", "s.json"),
                             "sweep run 0 must be an object"),
    "sweep-run-parameters-not-object": ("shoot", {"s.json": '{"runs": [{"parameters": 1}]}'},
                                        ("--sweep", "s.json"),
                                        "sweep run 0: 'parameters' must be an object"),
    "run-unknown-command": ("run", {"c.json": '{"command": "sphere-flow"}'},
                            ("--config", "c.json"), "unknown command 'sphere-flow'"),
    **{f"run-{kind}-command" + "-dump" * bool(dump): ("run", {"c.json": '{"command": %s}' % value},
                                     ("--config", "c.json") + dump,
                                     "config 'command' must be a string")
       for kind, value in (("list", '["cylinder-flow"]'), ("object", '{"a": 1}'))
       for dump in ((), ("--dump-config",))},
    "soliton-residual-range": ("soliton-residual", {}, ("--r-min", "2", "--r-max", "1"),
                               "r_max must exceed r_min"),
}


@pytest.mark.parametrize("case", list(CONFIG_ERRORS))
def test_config_error_names_its_key_and_leaves_no_output(invoke, tmp_path, case):
    command, files, argv, named = CONFIG_ERRORS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    out_dir = tmp_path / "never"
    code, out, err = invoke(command, *argv, "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err
    assert not out_dir.exists()


def test_config_command_mismatch_is_rejected(invoke, tmp_path):
    cfg = write_config(tmp_path, {"command": "shoot"})
    code, _, err = invoke("cylinder-flow", "--config", cfg)
    assert code == 2
    assert "declares command 'shoot'" in err


def test_zero_torsion_witness_is_a_config_error(invoke, tmp_path):
    code, _, err = invoke("torsion", "--h0sq", "0", "--out", str(tmp_path))
    assert code == 2
    assert "nonzero" in err


@pytest.mark.parametrize("command", ["cylinder-flow", "blowup", "torsion", "entropy"])
def test_negative_h0sq_is_rejected_by_its_bound(invoke, tmp_path, command):
    code, _, err = invoke(command, "--h0sq", "-1", "--out", str(tmp_path))
    assert code == 2
    assert "parameter 'h0sq' must be at least 0" in err


def test_hodge_grid_beyond_available_memory_is_a_config_error(invoke, tmp_path, monkeypatch):
    # the adjointness walk, the largest working set, goes first, so the run
    # fails there before any other identity computes
    computed = []
    report = cli._one_hodge_report

    def recorded(identity, grid, p):
        computed.append(identity)
        return report(identity, grid, p)

    monkeypatch.setattr(cli, "_one_hodge_report", recorded)
    code, out, err = invoke(
        "hodge-check", "--dim", "4", "--size", "2000", "--out", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert "out of memory" in err and "MiB available" in err
    assert list(tmp_path.iterdir()) == []
    assert computed == ["adjointness"]


def test_cylinder_csv_beyond_available_memory_is_a_config_error(invoke, tmp_path, monkeypatch):
    # h0sq 0.1 collapses at t = 1.32: under a cap of 64 MiB above what the
    # process maps, the 1.3e3 rows of dt_out 1e-3 fit and the 1.3e6 rows
    # of 1e-6, about 0.8 GB of text, do not; the flow alone still runs
    monkeypatch.setattr(cli, "_available_memory", lambda: 64 << 20)
    assert invoke("cylinder-flow", "--dt-out", "1e-3", "--out", str(tmp_path / "a"))[0] == 0
    no_csv = write_config(tmp_path, {"output": {"csv": False}})
    assert invoke("cylinder-flow", "--dt-out", "1e-6", "--config", no_csv,
                  "--out", str(tmp_path / "b"))[0] == 0
    out_dir = tmp_path / "never"
    code, out, err = invoke("cylinder-flow", "--dt-out", "1e-6", "--out", str(out_dir))
    assert code == 2 and out == ""
    assert "out of memory" in err and "MiB available" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("below", ["sub", None], ids=["under-a-file", "at-a-file"])
def test_unwritable_output_directory_is_a_config_error(invoke, tmp_path, below):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / below if below else blocker
    code, out, err = invoke("soliton-residual", "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err == f"config error: cannot write output: {out_dir}: " + (
        "Not a directory\n" if below else "File exists\n")
    assert blocker.read_text() == ""


def test_resampled_csv_peak_stays_within_700_bytes_per_row(tmp_path):
    traj = cylinder.run_flow(cylinder.CylinderState(lam=1.0, h=math.sqrt(0.1), beta=1.0))
    dt_out = 1e-4
    traj.to_csv(dt_out)  # the first call allocates once
    tracemalloc.start()
    try:
        cli.atomic_write_text(str(tmp_path / "flow.csv"), traj.to_csv(dt_out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 590 B per row: the row's text in the line list, in the joined
    # table and encoded for the write
    assert peak <= ((traj.t_end - traj.times[0]) / dt_out + 2) * 700


def report_peak(identity, grid):
    """tracemalloc peak of one hodge-check report, after a warm-up call."""
    p = {"seed": 7, "f_amp": 1.0, "h_amp": 1.0, "data": "example"}
    cli._one_hodge_report(identity, grid, p)  # the first call allocates once
    tracemalloc.start()
    try:
        cli._one_hodge_report(identity, grid, p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim, size, arrays, threaded", [
    (4, 24, 3.86, False),
    (4, 32, 2.06, False),
    (4, 36, 1.60, True),
    (3, 64, 3.99, False),
], ids=["4d-24", "4d-32", "4d-36", "3d-64"])
def test_adjointness_report_peak_stays_within_its_grid_arrays(dim, size, arrays, threaded):
    # A report holds no grid-sized array: one workspace sized for its
    # largest walk, which cuts from it four slab arrays (the slab total and
    # three working arrays) per walking thread and one ring of generated
    # rows per component, and the lines each component sums: 3.49 grid
    # arrays at 24^4 (slabs of 4 planes, rings of 4 or 8), 1.66 at 32^4
    # (slabs of 2, rings of 2 or 6), 1.20 at 36^4 (slabs of 1 on two
    # threads, rings of 1 or 5, the path of the 48^4 benchmark) and 3.60
    # at 64^3 (four slabs of 16, rings of 16 or 32).  Each bound adds 0.4
    # arrays to the peak measured when each walk allocated its own, so one
    # full-size component kept by mistake, or a second workspace, goes
    # past it.
    grid = hodge.PeriodicGrid.cube(dim, size)
    assert hodge._two_threads(grid) is threaded
    peak = report_peak("adjointness", grid)
    assert peak <= arrays * 8 * size**dim


def test_adjointness_fields_repeat_for_one_seed_only():
    grid = hodge.PeriodicGrid.cube(3, 16)

    def drawn(seed):
        return [np.asarray(form.comps[idx]) for pair in cli._adjointness_pairs(grid, seed)
                for form in pair for idx in form.indices()]

    first, again, other = drawn(7), drawn(7), drawn(8)
    # (alpha_k, beta_{k+1}) for k = 0, 1, 2 have 1 + 3, 3 + 3 and 3 + 1 components
    assert len(first) == len(again) == len(other) == 14
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    assert not any(np.array_equal(a, b) for a, b in zip(first, other))


@pytest.mark.parametrize("dim, size", [(4, 24), (4, 36), (3, 64)], ids=["4d-24", "4d-36", "3d-64"])
def test_every_walk_of_a_report_runs_in_its_one_workspace(dim, size, monkeypatch):
    # whenever a walk starts a pairing, the only live allocation of one
    # axis-0 plane or more since the report began is the workspace, sized
    # for the largest pair: no walk holds a ring, slab total or working
    # array of its own.  36^4 walks on two threads, so each side looks
    grid = hodge.PeriodicGrid.cube(dim, size)
    plane = 8 * math.prod(grid.sizes[1:])
    pairs = cli._adjointness_pairs(grid, 7)
    workspace = 8 * max(hodge.adjointness_workspace_size(a, b) for a, b in pairs)
    pair_slab, seen = hodge._pair_slab, []

    def watched(grid, pairs, start, *args):
        if start == 0:
            snapshot = tracemalloc.take_snapshot()
            seen.append([trace.size for trace in snapshot.traces if trace.size >= plane])
        return pair_slab(grid, pairs, start, *args)

    monkeypatch.setattr(hodge, "_pair_slab", watched)
    tracemalloc.start()
    try:
        cli._one_hodge_report("adjointness", grid, {"seed": 7})
    finally:
        tracemalloc.stop()
    # both sides of every degree's walk
    assert seen == [[workspace]] * (2 * dim)


def test_example_report_peak_stays_within_its_grid_arrays():
    # the integral check is the largest example check, and 16^3 the grid
    # where its fixed-size allocations weigh most: about 1.665 arrays, a
    # little more than the contiguous copy it sums
    peak = report_peak("integral", hodge.PeriodicGrid.cube(3, 16))
    assert peak <= 1.7 * 8 * 16**3


def test_integral_report_holds_no_full_grid_copy():
    # at 64^3 the integrand is summed in four slabs of 16 planes: 0.35 grid
    # arrays, the slab buffer and the example fields' smaller arrays.  The
    # bound adds 0.4 arrays, so a full-grid copy of the integrand (1.10
    # arrays when `integral` made one) goes past it.
    peak = report_peak("integral", hodge.PeriodicGrid.cube(3, 64))
    assert peak <= 0.75 * 8 * 64**3


@pytest.mark.parametrize("command, argv, runs", [
    ("hodge-check", ("--dim", "4", "--size", "16", "--identity", "adjointness"),
     [{"seed": seed} for seed in range(4)]),
    ("cylinder-flow", (), [{"h0sq": h0sq} for h0sq in (0.0, 0.1, 0.3, 0.5)]),
], ids=["hodge-check", "cylinder-flow"])
def test_sweep_runs_one_at_a_time(invoke, tmp_path, monkeypatch, command, argv, runs):
    # each run caps the process's data size at what it maps plus what is
    # available when it starts, a cap that holds only while no other run
    # allocates: no two runs of any sweep may overlap, each must run under
    # its own cap, and the old limit must be back when the sweep ends
    monkeypatch.setattr(cli, "_available_memory", lambda: 2**30)
    limits = resource.getrlimit(resource.RLIMIT_DATA)
    run, lock = cli.RUNNERS[command], threading.Lock()
    active = most = 0
    caps = []

    def counted(cfg):
        nonlocal active, most
        with lock:
            active += 1
            most = max(most, active)
            caps.append(resource.getrlimit(resource.RLIMIT_DATA))
        try:
            time.sleep(0.05)  # long enough for a concurrent run to start beside it
            return run(cfg)
        finally:
            with lock:
                active -= 1

    monkeypatch.setitem(cli.RUNNERS, command, counted)
    sweep = write_config(tmp_path, {
        "runs": [{"name": f"s{i}", "parameters": p} for i, p in enumerate(runs)]
    }, name="sweep.json")
    code, out, _ = invoke(command, *argv, "--sweep", sweep,
                          "--out", str(tmp_path / "sweep_out"))
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["[s0]", "[s1]", "[s2]", "[s3]"]
    assert most == 1
    assert len(caps) == 4
    assert all(soft != resource.RLIM_INFINITY and hard == limits[1] for soft, hard in caps)
    assert resource.getrlimit(resource.RLIMIT_DATA) == limits


def test_underflowing_flow_prints_only_its_failure(invoke, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke("cylinder-flow", "--lam0", "1e-300", "--lam-floor", "1e-310",
                                "--out", str(tmp_path))
    assert code == 3 and out == ""
    assert err == "numerical failure: flow terminated with step_underflow\n"


def test_short_horizon_blowup_is_a_numerical_failure(invoke, tmp_path):
    code, out, err = invoke("blowup", "--tmax", "0.05", "--out", str(tmp_path))
    assert code == 3
    assert err.startswith("numerical failure:")
    assert "collapse" in err
    assert not (tmp_path / "blowup.json").exists()


# a report that overflows (1e200 squared; e^{-f} at f = -700 in the
# weighted sum) is a numerical failure, not an artifact holding NaN
HODGE_OVERFLOW = ("hodge-check", "--dim", "3", "--size", "16")
HODGE_OVERFLOWS = (("--identity", "integral", "--h-amp", "1e200"),
                   ("--identity", "integral", "--f-amp", "700"),
                   ("--identity", "divh2", "--h-amp", "1e200"))

# every rejected run: its exit status and the stderr text after the
# "config error: " (2) or "numerical failure: " (3) prefix, which names the
# parameter or the rule the run breaks
REJECTIONS = {
    ("torsion", "--h0sq", "0"): (2, "h0 must be nonzero for a divergence witness: "
                                    "at h0 = 0 the torsion integral converges"),
    ("cylinder-flow", "--tmax", "-1"): (2, "cylinder-flow: parameter 'tmax' must be greater than 0"),
    ("blowup", "--tmax", "0.05"): (3, "flow did not reach the collapse event"),
    # parameters below their schema bound are config errors
    ("torsion", "--fit-points", "0"): (2, "torsion: parameter 'fit_points' must be at least 2"),
    ("torsion", "--fit-points", "1"): (2, "torsion: parameter 'fit_points' must be at least 2"),
    ("heat-check", "--dt", "0"): (2, "heat-check: parameter 'dt' must be greater than 0"),
    ("heat-check", "--dr", "0"): (2, "heat-check: parameter 'dr' must be greater than 0"),
    ("heat-check", "--points", "1"): (2, "heat-check: parameter 'points' must be at least 2"),
    ("entropy", "--dt", "-1"): (2, "entropy: parameter 'dt' must be at least 0"),
    ("blowup", "--samples", "2"): (2, "blowup: parameter 'samples' must be at least 3"),
    # library ValueErrors: a broken precondition, not a numerical failure
    ("heat-check", "--r-max", "6"): (2, "soliton checks are restricted to |r| <= 5"),
    ("heat-check", "--soliton", "gaussian", "--dr", "0.2"):
        (2, "radial stencil leaves the phi > 0 region"),
    ("entropy", "--u0", "-1"): (2, "u0 must be positive"),
    ("entropy", "--u0", "0"): (2, "u0 must be positive"),
    # the stencil t - dt >= 0 leaves no sample up to t_max = 0
    ("entropy", "--t-max", "0"): (2, "no sample times in the default window"),
    ("torsion", "--psi0", "-1"): (2, "psi0 must be nonnegative"),
    ("cylinder-flow", "--lam-floor", "-1", "--tmax", "3"):
        (2, "lam_floor must lie in (0, lam0): got lam_floor=-1 and lam0=1"),
    ("shoot", "--delta-floor", "2"): (2, "delta_floor must lie in (0, 1)"),
    # the gaussian warp phi = r vanishes at 0
    ("soliton-residual", "--soliton", "gaussian", "--r-min", "-1"):
        (2, "phi must be positive on the grid"),
    ("cylinder-flow", "--h0sq", "-1"): (2, "cylinder-flow: parameter 'h0sq' must be at least 0"),
    ("entropy", "--h0sq", "-1"): (2, "entropy: parameter 'h0sq' must be at least 0"),
    # an rtol below 100 eps is rejected, not clamped to it
    ("cylinder-flow", "--rtol", "1e-20"): (2, "rtol must be at least 100 eps = 2.22e-14, got 1e-20"),
    # r_max at or below r_switch is rejected by name
    ("shoot", "--r-max", "0.01"): (2, "r_max (0.01) must exceed r_switch (0.05)"),
    **{HODGE_OVERFLOW + argv: (3, f"hodge-check: {fields} not finite")
       for argv, fields in zip(HODGE_OVERFLOWS, (
           "integral relative_gap, value_error, left, right, closed_form",
           "integral relative_gap, right",
           "divh2 sup"))},
    # tau near 1e308 overflows W: every derivative gap is NaN, which is no
    # agreement, and without the check W itself is not finite
    ("entropy", "--h0sq", "0.5", "--T-ref", "1e308"):
        (3, "derivative routes disagree: gap nan exceeds tolerance inf"),
    ("blowup", "--tmax", "0"): (2, "blowup: parameter 'tmax' must be greater than 0"),
    ("torsion", "--tmax", "-1"): (2, "torsion: parameter 'tmax' must be greater than 0"),
    ("entropy", "--h0sq", "0.5", "--T-ref", "1e308", "--dt", "0"):
        (3, "entropy or mass is not finite on the samples"),
    # u0 * 1e-14, the solve's absolute tolerance, underflows to 0
    ("entropy", "--u0", "1e-320"):
        (2, "u0 is too small: its solver tolerance u0 * 1e-14 underflows to 0"),
    ("entropy", "--dt", "0", "--t-max", "-1"): (2, "no sample times in the default window"),
    # only dt_out 0 means the solver's own steps; Python's generator would
    # take a negative seed's absolute value, rerunning another seed
    ("cylinder-flow", "--dt-out", "-1"): (2, "cylinder-flow: parameter 'dt_out' must be at least 0"),
    ("hodge-check", "--seed", "-3"): (2, "hodge-check: parameter 'seed' must be at least 0"),
    # the pullback family needs tau = 1 - dt > 0
    **{argv: (2, "dt must lie in (0, 1): the pullback family needs tau = 1 - dt > 0")
       for argv in (("heat-check", "--dt", "1"), ("heat-check", "--dt", "10"),
                    ("heat-check", "--soliton", "gaussian", "--dt", "2"))},
    # the collapse floor must lie below lam0, else the flow starts at or
    # under it; a command without a lam_floor names lam0 and the default
    # floor, 1e-8
    ("cylinder-flow", "--h0sq", "0.1", "--lam-floor", "1"):
        (2, "lam_floor must lie in (0, lam0): got lam_floor=1 and lam0=1"),
    ("cylinder-flow", "--lam-floor", "2"):
        (2, "lam_floor must lie in (0, lam0): got lam_floor=2 and lam0=1"),
    **{(command, "--lam0", "1e-9"):
       (2, f"{command}: parameter 'lam0' must be greater than the collapse floor 1e-08")
       for command in ("blowup", "torsion", "entropy")},
    # the gaussian grid starts at r = 0.1, where its warp is clear of zero
    ("heat-check", "--soliton", "gaussian", "--r-max", "0.05"):
        (2, "heat-check: r_max must exceed 0.1, where the gaussian grid starts"),
    # a T_ref inside the flow (T_sing = 2 here) is rejected at every dt, not
    # cut from the window
    ("entropy", "--h0sq", "0.5", "--T-ref", "1.2", "--dt", "0"):
        (2, "tau = T_ref - t must stay positive on the samples: "
            "T_ref = 1.2 is not past the window's last sample t = 2"),
    **{("entropy", "--h0sq", h0sq, "--T-ref", "1.2"):
       (2, "tau = T_ref - t must stay positive on the samples: "
           f"T_ref = 1.2 is not past the window's last sample t = {last}")
       for h0sq, last in (("0.5", "1.9999"), ("1.5", "3.02643"))},
    # a flow that starts inside the torsion fit's decade before its collapse
    ("torsion", "--lam0", "2e-8", "--h0sq", "0.5", "--fit-points", "2"):
        (3, "torsion fit: 1 of 2 sample times lie on the flow, t in [0, 1e-08] "
            "with T_sing = 2e-08; 2 needed"),
    ("torsion", "--lam0", "1.5e-8"):
        (3, "torsion fit: 35 of 200 sample times lie on the flow, t in [0, 5e-09] "
            "with T_sing = 1.5e-08; 200 needed"),
    # a sample grid past what an array can index, where numpy's own error
    # named neither the parameter nor the size
    ("cylinder-flow", "--dt-out", "1e-300"):
        (2, "dt_out=1e-300 asks for 1.32e+300 CSV rows, more than an array can hold"),
}
_ERROR_CLASS = {2: "config error: ", 3: "numerical failure: "}


@pytest.mark.parametrize("argv, expected", [(argv, code) for argv, (code, _) in REJECTIONS.items()])
def test_failed_run_leaves_no_output_directory(invoke, tmp_path, argv, expected):
    out_dir = tmp_path / "never"
    code, out, err = invoke(*argv, "--out", str(out_dir))
    assert code == expected and out == ""
    assert err == _ERROR_CLASS[expected] + REJECTIONS[argv][1] + "\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    # tau near 1e308 overflows W, on both dt paths
    pytest.param(("entropy", "--h0sq", "0.5", "--T-ref", "1e308", "--dt", "1e-4"), id="1e-4"),
    pytest.param(("entropy", "--h0sq", "0.5", "--T-ref", "1e308", "--dt", "0"), id="0"),
    # the conjugate-heat solve overflows
    pytest.param(("entropy", "--h0sq", "0.5", "--u0", "1e300"), id="u0-1e300"),
    pytest.param(("hodge-check", "--f-amp", "800"), id="f-amp-800"),
    # a torsion fit over one sample made numpy warn of a rank-deficient fit
    pytest.param(("torsion", "--lam0", "2e-8", "--h0sq", "0.5", "--fit-points", "2"),
                 id="torsion-lam0-2e-8"),
    *[pytest.param(HODGE_OVERFLOW + argv, id=argv[1] + argv[2])
      for argv in HODGE_OVERFLOWS],
])
def test_overflowing_entropy_prints_only_its_failure(invoke, tmp_path, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(*argv, "--out", str(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("numerical failure:") and err.count("\n") == 1


def test_entropy_t_max_only_caps_the_default_window(invoke, tmp_path):
    # past T_sing - 50 dt the cap must not bring back the samples whose tau
    # is too small for the central difference
    code, _, _ = invoke("entropy", "--h0sq", "0.5", "--out", str(tmp_path / "all"))
    assert code == 0
    code, _, _ = invoke("entropy", "--h0sq", "0.5", "--t-max", "10",
                        "--out", str(tmp_path / "capped"))
    assert code == 0
    assert ((tmp_path / "capped" / "entropy.csv").read_bytes()
            == (tmp_path / "all" / "entropy.csv").read_bytes())
    code, _, _ = invoke("entropy", "--h0sq", "0.5", "--t-max", "1",
                        "--out", str(tmp_path / "one"))
    assert code == 0
    _, rows = read_csv(tmp_path / "one" / "entropy.csv")
    assert 0 < len(rows) < 300 and max(row[0] for row in rows) <= 1.0


def _golden():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "golden.py")
    spec = importlib.util.spec_from_file_location("golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


@pytest.mark.parametrize("argv", _golden().RUNS, ids="_".join)
def test_golden_run_parses(argv):
    # tools/golden.py runs these in fresh processes; a renamed flag or
    # choice must fail here, not there
    try:
        args = cli.build_parser(argv[0]).parse_args(list(argv))
    except SystemExit:
        pytest.fail(f"grflab {' '.join(argv)} does not parse")
    assert args.command == argv[0]


@pytest.mark.parametrize("command", cli.COMMANDS + ("run",))
def test_only_the_named_command_gets_its_schema_flags(command):
    # every subparser takes -h, then the four options a parent parser
    # declares once; the command a call names adds its schema's flags, in
    # schema order
    (subparsers,) = [a for a in cli.build_parser(command)._actions if a.dest == "command"]
    assert list(subparsers.choices) == list(cli.COMMANDS) + ["run"]
    shared = [["-h", "--help"], ["--config"], ["--out"], ["--dump-config"], ["--sweep"]]
    for name, sp in subparsers.choices.items():
        flags = [["--" + key.replace("_", "-")] for key in cli.SCHEMAS.get(name, ())]
        expected = shared + flags if name == command else shared
        assert [a.option_strings for a in sp._actions] == expected, name


def test_golden_record_lists_the_runs_in_order():
    golden = _golden()
    with open(golden.RECORD) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# python ")
    assert [line for line in lines if line.startswith("$ grflab ")] == [
        "$ grflab " + " ".join(argv) for argv in golden.RUNS]


def test_golden_check_fails_on_one_changed_digit(tmp_path, monkeypatch, capsys):
    golden = _golden()
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", src + os.pathsep + path if path else src)
    monkeypatch.setattr(golden, "RUNS", (("soliton-residual", "--soliton", "gaussian"),
                                         ("heat-check", "--soliton", "gaussian")))
    monkeypatch.setattr(golden, "RECORD", str(tmp_path / "golden.txt"))
    assert golden.main([]) == 0
    record = capsys.readouterr().out
    (tmp_path / "golden.txt").write_text(record)
    assert golden.main(["--check"]) == 0
    assert capsys.readouterr().out == "golden: 2 runs match\n"

    i = record.index("sha256 ") + len("sha256 ")
    i = record.index(" ", i) + 1  # the hash after the artifact's name
    digit = "1" if record[i] == "0" else "0"
    (tmp_path / "golden.txt").write_text(record[:i] + digit + record[i + 1:])
    assert golden.main(["--check"]) == 1
    diff = capsys.readouterr().out.splitlines()
    assert [line[0] for line in diff if line[:1] in "-+" and line[:3] not in ("---", "+++")] == [
        "-", "+"]

    header, rest = record.split("\n", 1)
    (tmp_path / "golden.txt").write_text("# python 0.0 numpy 0.0 simd none\n" + rest)
    assert golden.main(["--check"]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  record: # python 0.0 numpy 0.0 simd none", "  here:   " + header]


def test_missing_command_prints_usage(invoke):
    code, _, err = invoke()
    assert code == 2
    assert "usage" in err.lower()


# --------------------------------------------------------------------------
# sweeps


def test_sweep_fans_out_into_subdirectories(invoke, tmp_path):
    sweep = write_config(tmp_path, {
        "runs": [
            {"name": "ricci", "parameters": {"h0sq": 0.0}},
            {"name": "separatrix", "parameters": {"h0sq": 0.5}},
        ],
    }, name="sweep.json")
    out_dir = tmp_path / "sweep_out"
    code, out, err = invoke("cylinder-flow", "--sweep", sweep, "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "ricci" / "cylinder_flow.csv").exists()
    assert (out_dir / "separatrix" / "cylinder_flow.csv").exists()
    lines = out.splitlines()
    assert any(line.startswith("[ricci] cylinder-flow h0sq=0:") for line in lines)
    assert any("T_sing=2.000000" in line for line in lines if line.startswith("[separatrix]"))


def test_sweep_exit_code_is_the_worst_run(invoke, tmp_path):
    sweep = write_config(tmp_path, {
        "runs": [
            {"name": "ok"},
            {"name": "bad", "parameters": {"tmax": 0.05}},
            {"name": "input", "parameters": {"lam0": -1}},
        ],
    }, name="sweep.json")
    out_dir = tmp_path / "sweep_out"
    code, out, err = invoke("blowup", "--sweep", sweep, "--out", str(out_dir))
    assert code == 3
    lines = out.splitlines()
    assert any(line.startswith("[bad] numerical failure:") for line in lines)
    assert any(line.startswith("[input] config error:") for line in lines)
    assert set(read_json(out_dir / "ok" / "blowup.json")) == {
        "sample_times", "lambda_h2", "limit", "limit_error", "opening",
        "opening_increasing", "opening_max", "ricci_case",
    }
    assert not (out_dir / "bad").exists()
    assert not (out_dir / "input").exists()


def test_sweep_goes_on_past_an_unwritable_run_directory(invoke, tmp_path):
    sweep = write_config(tmp_path, {"runs": [{"name": "blocked"}, {"name": "free"}]},
                         name="sweep.json")
    out_dir = tmp_path / "sweep_out"
    out_dir.mkdir()
    (out_dir / "blocked").write_text("")
    code, out, err = invoke("soliton-residual", "--sweep", sweep, "--out", str(out_dir))
    assert code == 2 and err == ""
    blocked, free = out.splitlines()
    assert blocked == ("[blocked] config error: cannot write output: "
                       f"{out_dir / 'blocked'}: File exists")
    assert free.startswith("[free] soliton-residual")
    assert (out_dir / "free" / "soliton_residual.json").exists()


@pytest.mark.parametrize("names", [["a", ".."], ["a", "."], ["a", "b", "a"],
                                   ["run001", None]],
                         ids=["parent", "self", "repeated", "repeated-default"])
def test_sweep_rejects_escaping_and_repeated_names(invoke, tmp_path, names):
    runs = [{} if name is None else {"name": name} for name in names]
    sweep = write_config(tmp_path, {"runs": runs}, name="sweep.json")
    out_dir = tmp_path / "deep" / "sweep_out"
    code, out, err = invoke("blowup", "--sweep", sweep, "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err.startswith("config error: sweep run")
    assert not (tmp_path / "deep").exists()


def test_sweep_rejects_unknown_run_keys(invoke, tmp_path):
    sweep = write_config(tmp_path, {
        "runs": [{"name": "x", "parameters": {}, "extra": 1}],
    }, name="sweep.json")
    code, _, err = invoke("shoot", "--sweep", sweep)
    assert code == 2
    assert "unknown key" in err
