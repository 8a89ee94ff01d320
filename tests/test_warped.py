"""Warped-product soliton data: residuals, convention bridge, rescalings."""
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from grflab.warped import (
    ConventionReport,
    RadialProfile,
    WarpedSolitonData,
    combined_equation_residual,
    convention_check,
    cylinder_soliton,
    gaussian_shrinker,
    laplacian_radial,
    normalize_phi,
    ode_residuals,
    rescale_profile,
    scalar_curvature,
    tensor_residuals,
    torsion_norm_sq,
    twisted_flux_norm_sq,
)

CYL_GRID = np.linspace(-3.0, 3.0, 201)
GAUSS_GRID = np.linspace(0.1, 3.0, 201)  # phi = r needs r > 0

SQRT3 = np.sqrt(3.0)


def smooth_branch_profile():
    # normalized warp profile: phi^2 + (phi')^2 + 2 phi phi'' = 1 exactly
    return RadialProfile(
        lambda r: SQRT3 * np.sin(r / SQRT3),
        lambda r: np.cos(r / SQRT3),
        lambda r: -np.sin(r / SQRT3) / SQRT3,
    )


def test_cylinder_soliton_residuals_vanish():
    data = cylinder_soliton()
    assert ode_residuals(data, CYL_GRID).max_abs < 1e-14
    assert tensor_residuals(data, CYL_GRID).max_abs < 1e-14
    assert data.lambda_soliton == 1.0
    assert data.lambda_ode == 0.5


def test_gaussian_shrinker_residuals_vanish():
    data = gaussian_shrinker()
    assert ode_residuals(data, GAUSS_GRID).max_abs < 1e-14
    assert tensor_residuals(data, GAUSS_GRID).max_abs < 1e-14
    # torsion-free: every h-derived quantity is identically zero
    assert np.all(torsion_norm_sq(data.h.value(GAUSS_GRID)) == 0.0)
    assert np.all(twisted_flux_norm_sq(data, GAUSS_GRID) == 0.0)


def test_residual_report_keys():
    ro = ode_residuals(cylinder_soliton(), CYL_GRID)
    rt = tensor_residuals(cylinder_soliton(), CYL_GRID)
    assert set(ro.residuals) == {"shape", "mixed", "torsion"}
    assert set(rt.residuals) == {"metric_r", "metric_sphere", "torsion"}
    assert ro.sup == {"shape": 0.0, "mixed": 0.0, "torsion": 0.0}
    assert ro.max_abs == 0.0


def test_convention_check_passes_on_both_solitons():
    for data in (cylinder_soliton(), gaussian_shrinker()):
        grid = GAUSS_GRID if data.h.value(np.array([1.0]))[0] == 0.0 else CYL_GRID
        report = convention_check(data, grid)
        assert report.ok
        assert bool(report)
        assert report.factor_gap < 1e-12
        assert report.failing == ()


def test_broken_factor_two_is_detected():
    broken = dataclasses.replace(cylinder_soliton(), lambda_soliton=0.5)
    report = convention_check(broken, CYL_GRID)
    assert not report.ok
    assert not bool(report)
    assert abs(report.factor_gap - 0.5) < 1e-12
    assert abs(report.tensor_sup - 0.5) < 1e-12
    assert report.ode_sup < 1e-14  # the ODE side never saw lambda_soliton
    assert any("factor" in name for name in report.failing)
    assert "fail" in report.message.lower()


def test_combined_equation_is_potential_free():
    # the f-eliminated warp equation holds on the smooth branch for any
    # constant torsion once lambda_ode + 1.5 h^2 = 2
    phi = smooth_branch_profile()
    r = np.linspace(0.1, 1.5, 80)
    for h0 in (0.0, 0.5, 1.0):
        data = WarpedSolitonData(
            phi=phi,
            h=RadialProfile.constant(h0),
            f=RadialProfile.constant(0.0),
            lambda_ode=2.0 - 1.5 * h0 * h0,
        )
        assert np.abs(combined_equation_residual(data, r)).max() < 1e-12


def test_normalize_phi_constraints():
    for lam, h0 in ((0.5, 1.0), (0.125, 0.5), (0.2, 0.8)):
        a, b = normalize_phi(lam, h0)
        assert abs(a * a * b * b - 1.0) < 1e-14
        assert abs(a * a * (lam + 1.5 * h0 * h0) - 2.0) < 1e-14
    assert normalize_phi(0.5, 1.0) == (1.0, 1.0)


def test_normalize_phi_produces_combined_solution():
    # pull the normalized branch back to an arbitrary (lambda, h) pair;
    # the combined equation must hold for the rescaled profile
    lam, h0 = 0.2, 0.8
    a, b = normalize_phi(lam, h0)
    phi = rescale_profile(smooth_branch_profile(), 1.0 / a, 1.0 / b)
    data = WarpedSolitonData(
        phi=phi,
        h=RadialProfile.constant(h0),
        f=RadialProfile.constant(0.0),
        lambda_ode=lam,
    )
    r = np.linspace(0.05, 1.2 / b if b < 1 else 1.2, 60)
    assert np.abs(combined_equation_residual(data, r)).max() < 1e-12


def test_rescale_profile_semantics_and_roundtrip():
    phi = smooth_branch_profile()
    q = rescale_profile(phi, 2.0, 0.5)
    r = np.linspace(0.1, 1.0, 30)
    assert np.abs(q.value(r) - phi.value(r / 0.5) / 2.0).max() < 1e-14
    back = rescale_profile(q, 0.5, 2.0)
    for part in ("value", "d1", "d2"):
        assert np.abs(getattr(back, part)(r) - getattr(phi, part)(r)).max() < 1e-13


def test_curvature_and_laplacian_closed_forms():
    r = GAUSS_GRID
    cyl, gau = cylinder_soliton(), gaussian_shrinker()
    assert np.abs(scalar_curvature(cyl.phi, r) - 2.0).max() < 1e-14
    assert np.abs(scalar_curvature(gau.phi, r)).max() < 1e-14
    # radial laplacian f'' + 2 (phi'/phi) f'
    assert np.abs(laplacian_radial(cyl.f, cyl.phi, r) - 1.0).max() < 1e-14
    assert np.abs(laplacian_radial(gau.f, gau.phi, r) - 1.5).max() < 1e-14


def test_torsion_pointwise_helpers():
    h = np.array([0.0, 1.0, 2.0])
    assert np.array_equal(torsion_norm_sq(h), 6.0 * h * h)
    # cylinder: h = 1, f' = r, so the twisted flux density is 2 r^2
    r = np.linspace(-2.0, 2.0, 41)
    assert np.abs(twisted_flux_norm_sq(cylinder_soliton(), r) - 2.0 * r * r).max() < 1e-13


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(min_value=-0.9, max_value=2.0))
def test_lambda_override_shifts_tensor_residuals_linearly(eps):
    # overriding the data's soliton constant by 1 + eps moves every tensor
    # residual by exactly -eps on soliton data
    data = dataclasses.replace(cylinder_soliton(), lambda_soliton=1.0 + eps)
    report = tensor_residuals(data, CYL_GRID)
    for key in ("metric_r", "metric_sphere", "torsion"):
        assert np.abs(np.asarray(report.residuals[key]) + eps).max() < 1e-12
