"""Warped-product soliton geometry on dr^2 + phi(r)^2 g_{S^2}.

The sphere factor here is the unit round sphere (Ricci = metric).  The
torsion 3-form is h(r) times the volume form, so its squared norm is
|H|^2 = 6 h^2 (full index contraction, no 1/3! factor) and the induced
symmetric square is H2 = 2 h^2 g.

Two equivalent descriptions of a gradient soliton are implemented:

* the reduced second-order system in (phi, h, f) with constant
  lambda_ode,
* the tensor equations 2 Ric - H2/2 = lambda_soliton g - 2 Hess f and
  the reduced torsion equation, with lambda_soliton = 2 * lambda_ode.

Residual evaluators return signed residuals (left side minus right
side) on a radial grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .ioutil import Report
from .ioutil import atomic_write_text  # noqa: F401  (unused here; perfbench/tracer.py patches it)

__all__ = [
    "RadialProfile",
    "WarpedSolitonData",
    "ResidualReport",
    "cylinder_soliton",
    "gaussian_shrinker",
    "ode_residuals",
    "tensor_residuals",
    "combined_equation_residual",
    "ConventionReport",
    "convention_check",
    "normalize_phi",
    "rescale_profile",
    "scalar_curvature",
    "laplacian_radial",
    "torsion_norm_sq",
    "twisted_flux_norm_sq",
]


@dataclass(frozen=True)
class RadialProfile:
    """A radial function with first and second derivative, each a
    closed-form callable vectorized in r."""

    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def constant(c: float) -> "RadialProfile":
        c = float(c)
        return RadialProfile(
            value=lambda r: np.full_like(np.asarray(r, dtype=float), c),
            d1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            d2=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )

    def __call__(self, r):
        return np.asarray(self.value(np.asarray(r, dtype=float)), dtype=float)


@dataclass(frozen=True)
class WarpedSolitonData:
    """Candidate soliton data (phi, h, f) with both soliton constants.

    lambda_ode is the constant of the reduced second-order system;
    lambda_soliton is the tensor-level constant and defaults to twice
    lambda_ode.  Both are stored so that an inconsistent pair is
    representable; convention_check verifies the factor-2 bridge.
    """

    phi: RadialProfile
    h: RadialProfile
    f: RadialProfile
    lambda_ode: float
    lambda_soliton: Optional[float] = None

    def __post_init__(self):
        if self.lambda_soliton is None:
            object.__setattr__(self, "lambda_soliton", 2.0 * self.lambda_ode)
        object.__setattr__(self, "lambda_soliton", float(self.lambda_soliton))
        object.__setattr__(self, "lambda_ode", float(self.lambda_ode))


def cylinder_soliton() -> WarpedSolitonData:
    """The explicit shrinker on (round S^2) x R: phi = 1, h = 1, f = r^2/2."""
    return WarpedSolitonData(
        phi=RadialProfile.constant(1.0),
        h=RadialProfile.constant(1.0),
        f=RadialProfile(
            value=lambda r: 0.5 * np.asarray(r, float) ** 2,
            d1=lambda r: np.asarray(r, float),
            d2=lambda r: np.ones_like(np.asarray(r, float)),
        ),
        lambda_ode=0.5,
    )


def gaussian_shrinker() -> WarpedSolitonData:
    """Flat torsion-free shrinker: phi = r, h = 0, f = r^2/4."""
    ident = RadialProfile(
        value=lambda r: np.asarray(r, float),
        d1=lambda r: np.ones_like(np.asarray(r, float)),
        d2=lambda r: np.zeros_like(np.asarray(r, float)),
    )
    return WarpedSolitonData(
        phi=ident,
        h=RadialProfile.constant(0.0),
        f=RadialProfile(
            value=lambda r: 0.25 * np.asarray(r, float) ** 2,
            d1=lambda r: 0.5 * np.asarray(r, float),
            d2=lambda r: np.full_like(np.asarray(r, float), 0.5),
        ),
        lambda_ode=0.5,
    )


@dataclass
class ResidualReport(Report):
    """Signed residual samples of a set of named equations on a grid."""

    grid: np.ndarray
    residuals: Dict[str, np.ndarray]
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def sup(self) -> Dict[str, float]:
        return {k: float(np.max(np.abs(v))) for k, v in self.residuals.items()}

    @property
    def max_abs(self) -> float:
        return max(self.sup.values())

    def _extras(self) -> dict:
        return {"sup": self.sup, "max_abs": self.max_abs}


def _fields(data: WarpedSolitonData, r: np.ndarray):
    r = np.asarray(r, dtype=float)
    phi, dphi, ddphi = data.phi(r), data.phi.d1(r), data.phi.d2(r)
    if np.any(phi <= 0):
        raise ValueError("phi must be positive on the grid")
    h, dh, ddh = data.h(r), data.h.d1(r), data.h.d2(r)
    df, ddf = data.f.d1(r), data.f.d2(r)
    return r, phi, dphi, ddphi, h, dh, ddh, df, ddf


def ode_residuals(data: WarpedSolitonData, grid: np.ndarray) -> ResidualReport:
    """Residuals of the reduced soliton system on the grid.

    shape:   1 - phi'^2 - phi phi''  =  lam phi^2 - phi phi' f' + h^2 phi^2 / 2
    mixed:  -2 phi phi''             = (lam - f'') phi^2 + h^2 phi^2 / 2
    torsion: (phi^2 h')'             = -2 lam h phi^2 + (f' h phi^2)'

    with lam = lambda_ode and all primes d/dr (derivative terms expanded
    analytically, no finite differencing).
    """
    r, phi, dphi, ddphi, h, dh, ddh, df, ddf = _fields(data, grid)
    lam = data.lambda_ode
    phi2 = phi * phi
    r1 = (1.0 - dphi**2 - phi * ddphi) - (
        lam * phi2 - phi * dphi * df + 0.5 * h * h * phi2
    )
    r2 = (-2.0 * phi * ddphi) - ((lam - ddf) * phi2 + 0.5 * h * h * phi2)
    lhs3 = 2.0 * phi * dphi * dh + phi2 * ddh
    rhs3 = -2.0 * lam * h * phi2 + (ddf * h * phi2 + df * dh * phi2 + 2.0 * df * h * phi * dphi)
    r3 = lhs3 - rhs3
    return ResidualReport(
        grid=r,
        residuals={"shape": r1, "mixed": r2, "torsion": r3},
        meta={"lambda_ode": lam},
    )


def tensor_residuals(
    data: WarpedSolitonData,
    grid: np.ndarray,
    lambda_soliton: Optional[float] = None,
) -> ResidualReport:
    """Residuals of the tensor soliton equations, per metric direction.

    Metric equation 2 Ric - H2/2 - lambda g + 2 Hess f, reported through
    its two distinct eigenvalues (radial and spherical, both relative to
    g), and the torsion equation reduced to its radial dV component via
    the twisted codifferential.  lambda_soliton defaults to
    2 * lambda_ode.
    """
    r, phi, dphi, ddphi, h, dh, ddh, df, ddf = _fields(data, grid)
    lam_s = data.lambda_soliton if lambda_soliton is None else float(lambda_soliton)
    phi2 = phi * phi
    h2 = h * h

    ric_r = -2.0 * ddphi / phi
    ric_s = (1.0 - dphi**2 - phi * ddphi) / phi2
    hess_r = ddf
    hess_s = dphi * df / phi

    metric_r = 2.0 * ric_r - h2 - lam_s + 2.0 * hess_r
    metric_s = 2.0 * ric_s - h2 - lam_s + 2.0 * hess_s

    # dV coefficient of d(e^f d*(e^{-f} H)) - lambda_soliton H
    torsion = (
        -(2.0 * phi * dphi * dh + phi2 * ddh - ddf * h * phi2 - df * dh * phi2 - 2.0 * df * h * phi * dphi)
        / phi2
        - lam_s * h
    )
    return ResidualReport(
        grid=r,
        residuals={"metric_r": metric_r, "metric_sphere": metric_s, "torsion": torsion},
        meta={"lambda_soliton": lam_s, "lambda_ode": data.lambda_ode},
    )


def combined_equation_residual(data: WarpedSolitonData, grid: np.ndarray) -> np.ndarray:
    """Residual of 2 - 2 phi'^2 - 4 phi phi'' = (lam + 3 h^2 / 2) phi^2.

    This is the constant-h combination of the reduced system; on soliton
    data it vanishes along with the individual residuals.
    """
    r, phi, dphi, ddphi, h, _, _, _, _ = _fields(data, grid)
    return (2.0 - 2.0 * dphi**2 - 4.0 * phi * ddphi) - (
        data.lambda_ode + 1.5 * h * h
    ) * phi * phi


@dataclass(frozen=True)
class ConventionReport:
    """Outcome of the factor-2 cross-check between the two descriptions."""

    ok: bool
    ode_sup: float
    tensor_sup: float
    factor_gap: float
    failing: tuple

    def __bool__(self) -> bool:
        return self.ok

    @property
    def message(self) -> str:
        if self.ok:
            return "both conventions consistent"
        return "failing: " + ", ".join(self.failing)


def convention_check(data: WarpedSolitonData, grid: np.ndarray, tol: float = 1e-9) -> ConventionReport:
    """Truthy iff both descriptions vanish with the factor-2 bridge intact.

    Evaluates the reduced system with lambda_ode, the tensor system with
    the stored lambda_soliton, and the relation
    lambda_soliton = 2 * lambda_ode; every residual must stay below tol
    in sup norm.  The report names whichever side fails.
    """
    rep1 = ode_residuals(data, grid)
    rep2 = tensor_residuals(data, grid)
    gap = abs(data.lambda_soliton - 2.0 * data.lambda_ode)
    failing = []
    if not rep1.max_abs < tol:
        failing.append("ode system (lambda_ode)")
    if not rep2.max_abs < tol:
        failing.append("tensor equations (lambda_soliton)")
    if not gap < tol:
        failing.append("factor-2 relation")
    return ConventionReport(
        ok=not failing,
        ode_sup=rep1.max_abs,
        tensor_sup=rep2.max_abs,
        factor_gap=gap,
        failing=tuple(failing),
    )


def normalize_phi(lambda_ode: float, h_const: float):
    """Scaling (a, b) with a^2 b^2 = 1, a^2 (lambda_ode + 3 h^2 / 2) = 2.

    Pulling back a constant-h solution by phi_tilde(r) = phi(r/b) / a
    yields the normalized warp equation
    phi^2 + (phi')^2 + 2 phi phi'' = 1.
    """
    s = float(lambda_ode) + 1.5 * float(h_const) ** 2
    if s <= 0:
        raise ValueError("lambda_ode + 1.5 h^2 must be positive")
    a = np.sqrt(2.0 / s)
    return float(a), float(1.0 / a)


def rescale_profile(p: RadialProfile, a: float, b: float) -> RadialProfile:
    """Profile r -> p(r/b)/a with chain-rule derivatives."""
    a, b = float(a), float(b)
    return RadialProfile(
        value=lambda r: p.value(np.asarray(r, float) / b) / a,
        d1=lambda r: p.d1(np.asarray(r, float) / b) / (a * b),
        d2=lambda r: p.d2(np.asarray(r, float) / b) / (a * b * b),
    )


# geometry helpers reused by the entropy checks


def scalar_curvature(phi: RadialProfile, r: np.ndarray) -> np.ndarray:
    """Scalar curvature of dr^2 + phi^2 g_{S^2} (unit round fiber)."""
    r = np.asarray(r, dtype=float)
    p, dp, ddp = phi(r), phi.d1(r), phi.d2(r)
    return -4.0 * ddp / p + 2.0 * (1.0 - dp * dp) / (p * p)


def laplacian_radial(func: RadialProfile, phi: RadialProfile, r: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami of a radial function: F'' + 2 (phi'/phi) F'."""
    r = np.asarray(r, dtype=float)
    return func.d2(r) + 2.0 * (phi.d1(r) / phi(r)) * func.d1(r)


def torsion_norm_sq(h) -> np.ndarray:
    """|H|^2 = 6 h^2 for H = h dV (full contraction, no factorial)."""
    h = np.asarray(h, dtype=float)
    return 6.0 * h * h


def twisted_flux_norm_sq(data: WarpedSolitonData, r: np.ndarray) -> np.ndarray:
    """|d*H + i_{grad f} H|^2 = 2 (h' - f' h)^2 on the warped product.

    Full two-index contraction, matching the |H|^2 convention above.
    """
    r = np.asarray(r, dtype=float)
    dh = data.h.d1(r)
    h = data.h(r)
    df = data.f.d1(r)
    return 2.0 * (dh - df * h) ** 2
