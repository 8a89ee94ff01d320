"""Phase-plane shooting on the u'' = (3/4)(u^{-1/3} - u) branch."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grflab.shooting import (
    SERIES_C3,
    SERIES_C5,
    PhaseState,
    orbit_invariant,
    series_phi,
    series_start,
    shoot_r3_branch,
)

SQRT3 = np.sqrt(3.0)

# closed-form milestones of phi = sqrt(3) sin(r/sqrt(3)):
# phi = 1 rising, phi max, phi = 1 falling, phi = 0
R1 = SQRT3 * np.arcsin(1.0 / SQRT3)
R2 = SQRT3 * np.pi / 2.0
R3 = SQRT3 * (np.pi - np.arcsin(1.0 / SQRT3))
R4 = SQRT3 * np.pi


@pytest.fixture(scope="module")
def report():
    return shoot_r3_branch()


def test_series_coefficients_are_taylor_of_sine_branch():
    assert SERIES_C3 == -1.0 / 18.0
    assert SERIES_C5 == 1.0 / 1080.0
    # truncation error carries the sine branch's r^7/136080 law
    for r in (0.1, 0.3, 0.5):
        phi, dphi = series_phi(r)
        err = abs(float(phi) - SQRT3 * np.sin(r / SQRT3))
        assert 0.9 * r**7 / 136080.0 < err < 1.1 * r**7 / 136080.0
        assert abs(float(dphi) - np.cos(r / SQRT3)) < 1e-3 * r**4


def test_milestones_match_closed_forms(report):
    r1, r2, r3, r4 = report.milestones
    assert r1 < r2 < r3 < r4
    assert abs(r1 - R1) < 1e-9
    assert abs(r2 - R2) < 1e-9
    assert abs(r3 - R3) < 1e-9
    # r4 is short of sqrt(3) pi by the u-floor: phi_end = floor^{2/3}
    shift = R4 - r4
    assert abs(shift - report.delta_floor ** (2.0 / 3.0)) < 1e-8
    assert abs(r4 - R4) < 1e-5


def test_peak_and_invariant(report):
    assert abs(report.u_max - 3.0**0.75) < 1e-9
    assert report.invariant_drift < 1e-9
    assert report.terminated_at_zero
    assert report.termination == "event"


def test_floor_slope_matches_prediction(report):
    # at the u-floor the orbit obeys p = -1.5 u^{1/3} (E = 0 branch)
    assert abs(report.floor_p - report.floor_p_predicted) < 1e-7
    assert abs(report.floor_p_predicted + 1.5 * report.delta_floor ** (1.0 / 3.0)) < 1e-12


def test_milestones_insensitive_to_series_handoff(report):
    other = shoot_r3_branch(r_switch=0.08)
    for a, b in zip(report.milestones, other.milestones):
        assert abs(a - b) < 1e-8
    assert abs(report.u_max - other.u_max) < 1e-9


def test_trajectory_csv_and_json(report):
    lines = report.trajectory_csv().splitlines()
    assert lines[0] == "r,u,p,E"
    assert len(lines) > 100
    first = [float(x) for x in lines[1].split(",")]
    assert abs(first[3]) < 1e-10  # E ~ 0 all along the branch
    payload = json.loads(report.to_json())
    assert sorted(payload) == [
        "delta_floor",
        "floor_p",
        "floor_p_predicted",
        "invariant_drift",
        "milestones",
        "terminated_at_zero",
        "termination",
        "u_max",
    ]
    assert payload["terminated_at_zero"] is True


def test_orbit_invariant_forms():
    assert abs(orbit_invariant(2.0, 0.5) - (13.0 - 9.0 * 2.0 ** (2.0 / 3.0))) < 1e-14
    u = np.array([1.0, 8.0])
    p = np.array([0.0, 0.0])
    expect = 3 * u**2 - 9 * np.cbrt(u) ** 2
    assert np.allclose(orbit_invariant(u, p), expect, atol=1e-14)


def test_validation():
    with pytest.raises(ValueError):
        series_start(0.0)
    with pytest.raises(ValueError):
        series_start(0.2)
    with pytest.raises(ValueError):
        PhaseState(r=0.0, u=-1.0, p=0.0)


@settings(max_examples=30, deadline=None)
@given(rs=st.floats(min_value=0.01, max_value=0.1))
def test_series_start_sits_on_zero_invariant_branch(rs):
    # E error inherits the O(r^6.5) truncation of the seed series
    start = series_start(rs)
    E = orbit_invariant(start.u, start.p)
    assert abs(E) < 3e-10 * (rs / 0.1) ** 6 + 1e-13
