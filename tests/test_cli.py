"""End to end tests for the command line front end.

Every test drives grflab.cli.main(argv) in process and inspects the exit
status, the one-line summary, and the artifacts left in a scratch
directory.  Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

import json
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from grflab import cli, hodge


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


def test_grid_tolerance_feeds_the_resolution_parameter(invoke, tmp_path):
    cfg = write_config(tmp_path, {"tolerances": {"grid": 24}})
    code, out, _ = invoke("hodge-check", "--config", cfg, "--dump-config")
    assert code == 0
    assert json.loads(out)["parameters"]["size"] == 24
    # the schema bound holds on every route into a parameter
    cfg = write_config(tmp_path, {"tolerances": {"grid": 8}}, name="coarse.json")
    code, out, err = invoke("hodge-check", "--config", cfg, "--dump-config")
    assert code == 2 and out == ""
    assert "parameter 'size' must be at least 16" in err


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


def test_hodge_grid_beyond_available_memory_is_a_config_error(invoke, tmp_path):
    start = time.perf_counter()
    code, out, err = invoke(
        "hodge-check", "--dim", "4", "--size", "2000", "--out", str(tmp_path)
    )
    assert time.perf_counter() - start < 1.0  # rejected before any allocation
    assert code == 2 and out == ""
    assert "MiB available" in err
    assert list(tmp_path.iterdir()) == []


def test_hodge_memory_estimate_uses_the_refined_grid(invoke, tmp_path, monkeypatch):
    # the integral check needs 0.4 MiB of grid arrays at 32^3 by the
    # estimate, 3.3 MiB on its refinement 64^3; the other terms are zeroed
    monkeypatch.setattr(cli, "_resident_memory", lambda: 0)
    monkeypatch.setattr(cli, "SCIPY_SPECIAL_BYTES", 0)
    monkeypatch.setattr(cli, "_available_memory", lambda: 2 * 2**20)
    argv = ("hodge-check", "--identity", "integral", "--size", "32",
            "--out", str(tmp_path))
    assert invoke(*argv)[0] == 0
    code, _, err = invoke(*argv, "--refine")
    assert code == 2
    assert "64 points per axis" in err


def test_hodge_memory_estimate_counts_the_resident_process(invoke, tmp_path, monkeypatch):
    # 1 MiB above scipy.special covers the 0.4 MiB of grid arrays at 32^3,
    # not the process that holds them
    monkeypatch.setattr(cli, "_available_memory", lambda: cli.SCIPY_SPECIAL_BYTES + 2**20)
    out_dir = tmp_path / "never"
    code, out, err = invoke("hodge-check", "--identity", "integral", "--size", "32",
                            "--out", str(out_dir))
    assert code == 2 and out == ""
    assert "MiB available" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("dim, size, arrays", [
    (4, 24, cli.ADJOINTNESS_ARRAYS),
    (4, 32, 12.0),
    (3, 64, 9.5),
], ids=["4d-24", "4d-32", "3d-64"])
def test_adjointness_report_peak_stays_within_the_memory_estimate(dim, size, arrays):
    # A report holds one pair's components (10 in 4-d, 6 in 3-d), the
    # pointwise sum and three working arrays of one slab of axis-0 planes.
    # 24^4 peaks at 12.21 grid arrays: keeping the previous degree's pair
    # alive or building d alpha whole goes past the estimate.  32^4 (slabs
    # of 4 planes) peaks at 11.40 and 64^3 (two slabs) at 8.55, so a
    # full-grid working array kept by mistake goes past 12.0 and 9.5.
    grid = hodge.PeriodicGrid.cube(dim, size)
    p = {"seed": 7}
    cli._one_hodge_report("adjointness", grid, p)  # the first call allocates once
    tracemalloc.start()
    try:
        cli._one_hodge_report("adjointness", grid, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * size**dim


def test_hodge_sweep_runs_one_at_a_time(invoke, tmp_path, monkeypatch):
    # memory for 1.5 runs of the 16^4 adjointness check: each run's guard
    # passes on its own, so the runs must not hold their arrays at once
    monkeypatch.setattr(cli, "_resident_memory", lambda: 0)
    monkeypatch.setattr(cli, "SCIPY_SPECIAL_BYTES", 0)
    monkeypatch.setattr(cli, "_available_memory",
                        lambda: int(1.5 * cli.ADJOINTNESS_ARRAYS * 8 * 16**4))
    run, lock = cli.RUNNERS["hodge-check"], threading.Lock()
    active = most = 0

    def counted(cfg):
        nonlocal active, most
        with lock:
            active += 1
            most = max(most, active)
        try:
            time.sleep(0.05)  # long enough for a pooled run to start beside it
            return run(cfg)
        finally:
            with lock:
                active -= 1

    monkeypatch.setitem(cli.RUNNERS, "hodge-check", counted)
    sweep = write_config(tmp_path, {
        "runs": [{"name": f"s{seed}", "parameters": {"seed": seed}} for seed in range(4)]
    }, name="sweep.json")
    code, out, _ = invoke("hodge-check", "--dim", "4", "--size", "16",
                          "--identity", "adjointness", "--sweep", sweep,
                          "--out", str(tmp_path / "sweep_out"))
    assert code == 0
    assert out.count("adjointness=") == 4
    assert most == 1


def test_short_horizon_blowup_is_a_numerical_failure(invoke, tmp_path):
    code, out, err = invoke("blowup", "--tmax", "0.05", "--out", str(tmp_path))
    assert code == 3
    assert err.startswith("numerical failure:")
    assert "collapse" in err
    assert not (tmp_path / "blowup.json").exists()


@pytest.mark.parametrize("argv, expected", [
    (("torsion", "--h0sq", "0"), 2),
    (("cylinder-flow", "--tmax", "-1"), 2),
    (("blowup", "--tmax", "0.05"), 3),
    # parameters below their schema bound are config errors
    (("torsion", "--fit-points", "0"), 2),
    (("torsion", "--fit-points", "1"), 2),
    (("heat-check", "--dt", "0"), 2),
    (("heat-check", "--dr", "0"), 2),
    (("heat-check", "--points", "1"), 2),
    (("entropy", "--dt", "-1"), 2),
    (("blowup", "--samples", "2"), 2),
    # library ValueErrors: a broken precondition, not a numerical failure
    (("heat-check", "--r-max", "6"), 2),
    (("heat-check", "--soliton", "gaussian", "--dr", "0.2"), 2),
    (("entropy", "--u0", "-1"), 2),
    (("entropy", "--u0", "0"), 2),
    (("entropy", "--t-max", "0"), 2),
    (("torsion", "--psi0", "-1"), 2),
    (("cylinder-flow", "--lam-floor", "-1", "--tmax", "3"), 2),
    (("shoot", "--delta-floor", "2"), 2),
    (("soliton-residual", "--soliton", "gaussian", "--r-min", "-1"), 2),
    (("cylinder-flow", "--h0sq", "-1"), 2),
    (("entropy", "--h0sq", "-1"), 2),
    # an rtol below 100 eps is rejected, not clamped to it
    (("cylinder-flow", "--rtol", "1e-20"), 2),
    # r_max at or below r_switch is rejected by name
    (("shoot", "--r-max", "0.01"), 2),
])
def test_failed_run_leaves_no_output_directory(invoke, tmp_path, argv, expected):
    out_dir = tmp_path / "never"
    code, out, err = invoke(*argv, "--out", str(out_dir))
    assert code == expected and out == ""
    assert not out_dir.exists()


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


def test_sweep_rejects_unknown_run_keys(invoke, tmp_path):
    sweep = write_config(tmp_path, {
        "runs": [{"name": "x", "parameters": {}, "extra": 1}],
    }, name="sweep.json")
    code, _, err = invoke("shoot", "--sweep", sweep)
    assert code == 2
    assert "unknown key" in err
