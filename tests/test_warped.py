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
    curvature,
    cylinder_soliton,
    gaussian_shrinker,
    normalize_phi,
    ode_residuals,
    rescale_profile,
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
    assert abs(report.tensor.max_abs - 0.5) < 1e-12
    assert report.ode.max_abs < 1e-14  # the ODE side never saw lambda_soliton
    # the report carries both residual systems it judged
    assert report.tensor.sup == tensor_residuals(broken, CYL_GRID).sup
    assert report.ode.sup == ode_residuals(broken, CYL_GRID).sup
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


def curvature_of(data, r):
    return curvature(data.phi(r), data.phi.d1(r), data.phi.d2(r), data.f.d1(r), data.f.d2(r))


def test_curvature_and_laplacian_closed_forms():
    # radial Ricci, sphere Ricci, radial Hess f, sphere Hess f, R, Lap f,
    # |grad f|^2: the round cylinder S^2 x R with f = r^2/2, flat R^3
    # with f = r^2/4, and the Gaussian entropy testbed's slice
    r = GAUSS_GRID
    closed = {
        cylinder_soliton: (0.0, 1.0, 1.0, 0.0, 2.0, 1.0, r * r),
        gaussian_shrinker: (0.0, 0.0, 0.5, 0.5, 0.0, 1.5, r * r / 4.0),
    }
    for soliton, values in closed.items():
        k = curvature_of(soliton(), r)
        assert k._fields == ("ric_r", "ric_s", "hess_r", "hess_s", "R", "lap_f", "grad2")
        for name, got, want in zip(k._fields, k, values):
            assert np.abs(got - want).max() < 1e-14, (soliton.__name__, name)
    # the Gaussian entropy testbed's slice of the cylinder flow: phi =
    # sqrt(tau), a^2 = 1/tau, f = alpha r^2 + b, each value within 1e-15
    # relative (a few ulp; measured 3.1e-16) and the vanishing ones exact
    rng = np.random.default_rng(24)
    tau, alpha, r = (rng.uniform(lo, hi, 500) for lo, hi in ((0.05, 2.0), (0.1, 3.0), (-5.0, 5.0)))
    k = curvature(np.sqrt(tau), 0.0, 0.0, 2.0 * alpha * r, 2.0 * alpha, 1.0 / tau)
    values = (0.0, 1.0 / tau, 2.0 * alpha * tau, 0.0, 2.0 / tau, 2.0 * alpha * tau,
              tau * (2.0 * alpha * r) ** 2)
    for name, got, want in zip(k._fields, k, values):
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), ("gaussian slice", name)


def hexes(x):
    return [v.hex() for v in np.asarray(x, dtype=float).tolist()]


def test_curvature_keeps_the_bits_of_each_written_out_formula():
    # written out in the operation order of each formula's earlier home:
    # at a^2 = 1 the tensor residuals' eigenvalues, R, the radial Laplacian
    # and f'^2; at the cylinder family's a^2 = tau^{1 - 2 kappa} = 1/tau,
    # the family density's R, Lap f and |grad f|^2
    r = np.linspace(0.1, 5.0, 301)
    prof = smooth_branch_profile()
    phi, dphi, ddphi = prof(r), prof.d1(r), prof.d2(r)
    df, ddf = r * np.cos(r), np.exp(-r) - 0.3
    k = curvature(phi, dphi, ddphi, df, ddf)
    plain = (
        -2.0 * ddphi / phi,
        (1.0 - dphi**2 - phi * ddphi) / (phi * phi),
        ddf,
        dphi * df / phi,
        -4.0 * ddphi / phi + 2.0 * (1.0 - dphi * dphi) / (phi * phi),
        ddf + 2.0 * (dphi / phi) * df,
        df**2,
    )
    for name, got, want in zip(k._fields, k, plain):
        assert hexes(got) == hexes(want), name
    kappa = 1.0  # the cylinder's f'' = kappa
    for dt in (1e-4, 0.5):
        for tau in (1.0 - dt, 1.0 + dt):
            a2 = tau ** (1.0 - 2.0 * kappa)
            k = curvature(phi, dphi, ddphi, df, ddf, a2)
            family = {
                "R": -4.0 * (ddphi / a2) / phi + 2.0 * (1.0 - dphi * dphi / a2) / (phi * phi),
                "lap_f": (ddf + 2.0 * (dphi / phi) * df) / a2,
                "grad2": df * df / a2,
            }
            for name, want in family.items():
                assert hexes(getattr(k, name)) == hexes(want), (tau, name)


def test_radial_coefficient_is_a_change_of_radius():
    # a^2 dr^2 + phi^2 g is dx^2 + phi^2 g in the arc length x = a r, so
    # every quantity equals its a^2 = 1 value on x-derivatives
    r = np.linspace(0.1, 5.0, 301)
    prof = smooth_branch_profile()
    phi, dphi, ddphi = prof(r), prof.d1(r), prof.d2(r)
    df, ddf = r * np.cos(r), np.exp(-r) - 0.3
    for a2 in (0.25, 1.0 / 1.5, 2.0, 1e4):
        a = np.sqrt(a2)
        scaled = curvature(phi, dphi, ddphi, df, ddf, a2)
        arc = curvature(phi, dphi / a, ddphi / a2, df / a, ddf / a2)
        for name, got, want in zip(scaled._fields, scaled, arc):
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13), (a2, name)


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
