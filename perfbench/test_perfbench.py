"""The benchmark's own checks.

    PYTHONPATH=src python3 -m pytest perfbench -q

A corrupted output is counted as a failed operation (never dropped or
retried), the traced counts repeat exactly for a seed, and the benchmark
refuses to run without the source tree.  The trace test traces only the
cold CLI block (the 48^4 op alone takes about 25 s and 1.3 GB); its eight
subcommands still drive every counter.
"""
import copy
import os
import shutil
import subprocess
import sys

import pytest

import layers
import worker
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

P3 = {"dim": 3, "size": 64, "refine": True, "f_amp": 0.3, "h_amp": 0.4, "seed": 5}


def good_hodge_output():
    left = wl.integral_closed_form(P3["f_amp"], P3["h_amp"], 3) * (1.0 + 6e-6)
    reports = {
        "suobing": {"sup": 3.7e-07, "rate": 4.0, "residuals": {}},
        "twisted": {"sup": 2.2e-06, "rate": 3.99, "residuals": {}},
        "integral": {"sup": 1.3e-04, "rate": 4.0,
                     "residuals": {"relative_gap": 0.0}, "values": {"left": left}},
        "divh2": {"sup": 7.4e-06, "rate": 3.99, "residuals": {}},
        "adjointness": {"sup": 5.7e-14, "residuals": {
            "degree_0": 3.6e-15, "degree_1": 1.4e-14, "degree_2": 5.7e-14}},
    }
    summary = ("hodge-check 3d n=64: suobing=3.700e-07 rate=4.00 twisted=2.200e-06 "
               "rate=3.99 integral=1.300e-04 rate=4.00 divh2=7.400e-06 rate=3.99 "
               "adjointness=5.700e-14 -> out\n")
    return 0, summary, reports


def corrupt(path, value):
    rc, summary, reports = good_hodge_output()
    reports = copy.deepcopy(reports)
    *keys, last = path
    target = reports
    for key in keys:
        target = target[key]
    target[last] = value
    return rc, summary, reports


def test_hodge_check_accepts_good_and_rejects_corrupted_output():
    wl.check_hodge(P3, good_hodge_output())
    for path, value in [
        (("adjointness", "residuals", "degree_1"), 1e-3),
        (("integral", "values", "left"), 21.0),
        (("integral", "residuals", "relative_gap"), 1e-3),
        (("twisted", "rate"), 2.0),
        (("divh2", "sup"), 1.0),  # summary line no longer matches the report
    ]:
        with pytest.raises(wl.CheckFailed):
            wl.check_hodge(P3, corrupt(path, value))
    with pytest.raises(wl.CheckFailed):
        wl.check_hodge(P3, (3, "", {}))


def test_integral_closed_form_matches_bessel_route():
    from scipy.special import iv

    a, b = 0.3, 0.4
    bessel = b * b * 4.0 * 3.141592653589793**3 * (iv(0, a) + a * iv(1, a))
    assert wl.integral_closed_form(a, b, 3) == pytest.approx(bessel, rel=1e-14)


def test_cli_check_needs_exit_zero_summary_and_artifact():
    line = "blowup h0sq=0.3: limit=0.500000 err=1.23e-09 opening_max=4.567e+07 -> out/blowup.json\n"
    wl.check_cli("blowup", (0, line, "", {"blowup.json": "ab"}))
    for output in [
        (3, line, "numerical failure", {"blowup.json": "ab"}),
        (0, "blowup h0sq=0.3: limit=garbled\n", "", {"blowup.json": "ab"}),
        (0, "", "", {"blowup.json": "ab"}),
        (0, line, "", {}),
    ]:
        with pytest.raises(wl.CheckFailed):
            wl.check_cli("blowup", output)


def test_ledger_counts_a_corrupted_op_once_and_keeps_going():
    real = wl.run_ode(0.5, 0.05)
    wl.check_ode(real)
    calls = []

    def corrupted():
        calls.append(1)
        return {**real, "u_max": real["u_max"] + 1e-3}

    def raising():
        raise FloatingPointError("solver blew up")

    ledger = worker.Ledger()
    ledger.run(wl.Op("good", lambda: real, wl.check_ode))
    ledger.run(wl.Op("corrupted", corrupted, wl.check_ode))
    ledger.run(wl.Op("raising", raising, wl.check_ode))
    res = ledger.result()
    assert res["attempted"] == 3 and res["failed"] == 2
    assert len(res["op_s"]) == 1 and len(calls) == 1
    assert "u_max" in res["errors"][0] and "FloatingPointError" in res["errors"][1]


def test_traced_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", SRC)
    runs = []
    for i in range(2):
        run_dir = tmp_path / f"run{i}"
        run_dir.mkdir()
        res = worker.trace("cli-cold", 3, str(run_dir), include=())
        assert res["failed"] == 0, res["errors"]
        runs.append(layers.metrics(res))
    counts = {name: runs[0][name][0] for name in layers.COUNTS}
    assert counts == {name: runs[1][name][0] for name in layers.COUNTS}
    for name in ("hodge.PeriodicGrid.deriv.calls", "odesolve.integrate.nfev",
                 "odesolve.integrate.steps", "cylinder.CylinderTrajectory.state_at.calls",
                 "entropy.conjugate_heat_homogeneous.nfev",
                 "ioutil.atomic_write_text.calls", "ioutil.atomic_write_text.bytes"):
        assert counts[name] > 0, name


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ode-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
