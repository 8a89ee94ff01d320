"""Shrinking entropy, conjugate-heat weights, and monotonicity checks.

Three testbeds share this module, and one entropy density
v = [tau (2 Lap f - |grad f|^2 + R - |H|^2/12) + f - 3] u (_density) and
one monotonicity integrand (2 tau |M|^2 + (tau/2) |sigma|^2 - |H|^2/6) u
(_integrand).  Each testbed supplies its curvature as a warped.Curvature:
the homogeneous flow writes its sphere's Ric = g/2, R = 1/lam in _w_values,
and the Gaussian and soliton testbeds read warped.curvature (unit sphere).

* The homogeneous S^2 x S^1 flow: every spatial integral collapses to a
  product, the weight is a function u(t) of time alone that solves a
  scalar linear ODE, and the entropy and its two derivative routes
  (finite difference vs the curvature formula) are closed-form products.
  The formula derivative is strictly positive on this family.
  entropy_derivative_check is its one sampler, and the one owner of the
  reference time in tau = T_ref - t: at dt = 0 it evaluates W and the
  mass only, at dt > 0 it also runs both derivative routes, and every
  sample t - dt and t + dt must lie on the flow; a T_ref inside the
  default window is an error at every dt.
* Gaussian weights on the S^2 x R cylinder flow: the weight is
  inhomogeneous in r, its two exponents solve an ODE pair, and W, the
  mass and the formula derivative are radial quadratures.  Away from the
  soliton weight the torsion term can make the derivative negative.
* The explicit warped solitons at a single time: the conjugate-heat
  identity and the pointwise monotonicity identity are checked on the
  self-similar pullback family, time derivatives by central differences.
  The data must pass convention_check with soliton constant
  2 * lambda_ode, and the identities assume that constant equals one, so
  only the two canonical profiles (and rescalings with the same constant)
  qualify.

Norms are raw index contractions throughout: |H|^2 = 6 h^2 for H = h dV,
H2 = 2 h^2 g, |sigma|^2 = 2 (h' - f' h)^2 for the twisted codifferential
2-form, |M|^2 = sum of squared eigenvalues of the symmetric tensor M.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cylinder import CylinderTrajectory
from .odesolve import integrate, solve_ivp
from .ioutil import to_csv_text
from .ioutil import atomic_write_text  # noqa: F401  (unused here; perfbench/tracer.py patches it)
from .warped import (
    Curvature,
    ResidualReport,
    WarpedSolitonData,
    convention_check,
    curvature,
    cylinder_soliton,
    torsion_norm_sq,
    twisted_flux_norm_sq,
)

__all__ = [
    "EntropyTrace",
    "conjugate_heat_homogeneous",
    "entropy_derivative_check",
    "gaussian_entropy_check",
    "soliton_heat_check",
    "pointwise_monotonicity_check",
]

SPHERE_AREA = 8.0 * np.pi  # area of the Ric = g/2 sphere (radius sqrt 2)
CIRCLE_LENGTH = 2.0 * np.pi  # circle length at beta = 1


def conjugate_heat_homogeneous(
    traj: CylinderTrajectory,
    u0: Optional[float] = None,
) -> Callable[..., np.ndarray]:
    """The weight u(t) solving u' = (1/lam - (3/2) h^2) u along the trajectory.

    This integrates the conjugate-heat reduction as its own initial value
    problem over the trajectory's dense output; it does not reuse the
    flow identity (ln u)' = -(ln lam beta)', so mass conservation stays a
    genuine two-route check downstream.  u maps times on the flow to an
    array of their shape, read from the solve's dense output.  The
    equation has no reference time: entropy_derivative_check owns T_ref.

    u0 defaults to the weight of unit total mass on the initial state,
    1 / (SPHERE_AREA CIRCLE_LENGTH lam0 beta0).  u0 must be positive, as
    the entropy takes log u, and above about 2.5e-310, where the solve's
    atol u0 * 1e-14 underflows.
    """
    if u0 is None:
        u0 = 1.0 / (SPHERE_AREA * CIRCLE_LENGTH * traj.initial.lam * traj.initial.beta)
    u0 = float(u0)
    if not u0 > 0:
        raise ValueError("u0 must be positive")
    if not u0 * 1e-14 > 0:
        raise ValueError("u0 is too small: its solver tolerance u0 * 1e-14 underflows to 0")

    def rhs(t, y):
        # Python floats: on the solve's span lam stays at or above the
        # flow's positive floor, so 1 / lam never divides by zero
        lam, h = traj.state_at(t)[:2].tolist()
        return (1.0 / lam - 1.5 * h * h) * y

    run = solve_ivp(
        rhs,
        (traj.times[0], traj.t_end),
        np.array([u0]),
        rtol=1e-13,
        atol=u0 * 1e-14,
    )
    if run.termination != "reached_tmax":
        raise RuntimeError("conjugate-heat integration ended by " + run.termination)

    def u(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(run.sol(t)[0], dtype=float).reshape(t.shape)

    return u


@dataclass
class EntropyTrace:
    """Entropy samples with the two derivative routes and their gap."""

    times: np.ndarray
    tau: np.ndarray
    W: np.ndarray
    dW_fd: np.ndarray
    dW_formula: np.ndarray
    gap: np.ndarray
    mass: np.ndarray
    tolerance: Optional[float] = None

    def to_csv(self) -> str:
        return to_csv_text({
            "t": self.times, "tau": self.tau, "W": self.W, "dW_fd": self.dW_fd,
            "dW_formula": self.dW_formula, "gap": self.gap,
        })


def _check_tau(tau: np.ndarray):
    if np.any(tau <= 0):
        raise ValueError("tau = T_ref - t must stay positive on the samples")


def _density(k: Curvature, h2, f, tau, u):
    """Every testbed's entropy density, |H|^2 = 6 h2 (module docstring)."""
    return (tau * (2.0 * k.lap_f - k.grad2 + k.R - 0.5 * h2) + f - 3.0) * u


def _integrand(k: Curvature, h2, sigma2, tau, u):
    """Every testbed's monotonicity integrand (module docstring), with
    M = Ric - H2/4 + Hess f - g/(2 tau) and H2 = 2 h2 g."""
    m_r = k.ric_r - 0.5 * h2 + k.hess_r - 0.5 / tau
    m_s = k.ric_s - 0.5 * h2 + k.hess_s - 0.5 / tau
    return (2.0 * tau * (m_r * m_r + 2.0 * m_s * m_s) + 0.5 * tau * sigma2 - h2) * u


def _w_values(traj, u, T_ref, times):
    """(times, tau, curvature, h^2, mass, W) of the homogeneous testbed
    with weight u(t) and tau = T_ref - t."""
    times = np.asarray(times, dtype=float)
    tau = T_ref - times
    _check_tau(tau)
    lam, h, beta, _ = traj.state_at(times)
    weight = u(times)
    if np.any(weight <= 0):
        raise ValueError("entropy needs a positive weight")
    # total weight u V, V = 8 pi lam L beta with circle length L =
    # CIRCLE_LENGTH; constant in exact arithmetic
    m = weight * SPHERE_AREA * lam * CIRCLE_LENGTH * beta
    f = -np.log(weight) - 1.5 * np.log(4.0 * np.pi * tau)
    # the flow's Ric = g/2 sphere, flat circle and constant f; curvature at
    # phi = sqrt(2 lam) would round phi^2
    k = Curvature(ric_r=0.0, ric_s=0.5 / lam, hess_r=0.0, hess_s=0.0, R=1.0 / lam,
                  lap_f=0.0, grad2=0.0)
    return times, tau, k, h * h, m, _density(k, h * h, f, tau, m)


def _entropy_trace(times, tau, W, m, dt=None, *, W_plus=None, W_minus=None, dW_formula=None):
    """EntropyTrace of W and the mass m on the samples; both testbeds build
    theirs here.

    Without dt the derivative columns are NaN, and a W or mass that is not
    finite raises RuntimeError.  With dt, dW_fd = (W_plus - W_minus) / 2 dt
    is set against dW_formula, and RuntimeError is raised unless the worst
    gap is within max(1e-6, 10 dt^2 scale); a NaN gap or an infinite bound
    fails too, as neither is an agreement.
    """
    tol = None
    if dt is None:
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(m))):
            raise RuntimeError("entropy or mass is not finite on the samples")
        dW_fd, dW_formula, gap = (np.full_like(W, np.nan) for _ in range(3))
    else:
        dW_fd = (W_plus - W_minus) / (2.0 * dt)
        gap = np.abs(dW_fd - dW_formula)
        # truncation of the central difference is W''' dt^2 / 6 and the
        # potential contributes mass / tau^3 to W''', hence the smallest tau
        scale = max(
            1.0,
            float(np.max(np.abs(W))),
            float(np.max(np.abs(dW_formula))),
            float(np.max(m)) * (1.0 + 1.0 / float(np.min(tau))) ** 3,
        )
        tol = max(1e-6, 10.0 * dt * dt * scale)
        worst = float(np.max(gap))
        if not (math.isfinite(tol) and worst <= tol):
            raise RuntimeError(
                "derivative routes disagree: gap %.3e exceeds tolerance %.3e" % (worst, tol)
            )
    return EntropyTrace(
        times=times, tau=tau, W=W, dW_fd=dW_fd, dW_formula=dW_formula, gap=gap,
        mass=m, tolerance=tol,
    )


def _samples(values, name: str, span=None, dt: float = 0.0) -> np.ndarray:
    """values as a float array, which must be finite, 1-d and non-empty;
    with span = (t0, t1), every value - dt and value + dt must lie in it."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be a finite 1-d array")
    if span is not None and (np.any(values - dt < span[0]) or np.any(values + dt > span[1])):
        raise ValueError("sample times t - dt and t + dt must lie on the flow, "
                         "in [%.6g, %.6g]" % span)
    return values


def entropy_derivative_check(
    traj: CylinderTrajectory,
    u: Callable[..., np.ndarray],
    dt: float = 1e-4,
    times=None,
    t_max: Optional[float] = None,
    T_ref: Optional[float] = None,
) -> EntropyTrace:
    """Shrinking entropy along the flow with weight u(t), as
    conjugate_heat_homogeneous returns it, and tau = T_ref - t, and at
    dt > 0 its central finite difference against the curvature formula.
    T_ref defaults to the detected singular time, RuntimeError is raised
    when the flow did not collapse, and an explicit T_ref must be finite.

    Homogeneous reduction: W is the shared density with R = 1/lam and
    f = -ln u - (3/2) ln(4 pi tau), weighted by the mass, and dW_formula
    the shared integrand, whose M has eigenvalue 1/(2 lam) - h^2/2 - 1/(2 tau)
    on the two sphere directions and -h^2/2 - 1/(2 tau) on the circle; the
    homogeneous reduction kills the twisted-flux term.

    Samples: explicit times must be a finite, non-empty 1-d array with
    every t - dt and t + dt on the flow, and t_max does not apply to them.
    The default window is the flow's steps up to t_max whose stencil
    stays on the flow; a T_ref at or before its last sample raises
    ValueError, at every dt.  At dt > 0 the window then keeps only the
    samples whose tau is at least 50 dt.  Every sample needs tau > 0.

    At dt = 0 only W and the mass are filled, the derivative columns are
    NaN, and RuntimeError is raised when W or the mass is not finite.  At
    dt > 0, RuntimeError is raised if the worst gap exceeds
    max(1e-6, 10 dt^2 scale) or is NaN.
    """
    if not dt >= 0:
        raise ValueError("dt must be positive, or 0 to skip the derivative check")
    if T_ref is None:
        if traj.T_sing is None:
            raise RuntimeError("flow did not collapse; pass an explicit T_ref")
        T_ref = traj.T_sing
    T_ref = float(T_ref)
    if not np.isfinite(T_ref):
        raise ValueError("T_ref must be finite")
    t0, t1 = float(traj.times[0]), float(traj.t_end)
    if times is None:
        times = traj.times
        keep = (times - dt >= t0) & (times + dt <= t1)
        if t_max is not None:
            keep &= times <= t_max
        times = times[keep]
        if times.size and not T_ref > times[-1]:
            raise ValueError("tau = T_ref - t must stay positive on the samples: T_ref = %.6g is "
                             "not past the window's last sample t = %.6g" % (T_ref, times[-1]))
        if dt > 0:
            # tau well clear of the step keeps the central difference meaningful
            times = times[T_ref - times >= 50.0 * dt]
        if times.size == 0:
            raise ValueError("no sample times in the default window")
    else:
        times = _samples(times, "times", (t0, t1), dt)

    times, tau, k, h2, m, W = _w_values(traj, u, T_ref, times)
    if dt == 0:
        return _entropy_trace(times, tau, W, m)
    return _entropy_trace(
        times, tau, W, m, dt,
        W_plus=_w_values(traj, u, T_ref, times + dt)[5],
        W_minus=_w_values(traj, u, T_ref, times - dt)[5],
        dW_formula=_integrand(k, h2, 0.0, tau, m),
    )


# ---------------------------------------------------------------------------
# Gaussian weights on the cylinder flow


def _gaussian_slice(r, tau, a, b):
    """Entropy density v, weight u and monotonicity integrand on the
    cylinder flow g = dr^2/tau + tau g_{S^2}, the warped product phi =
    sqrt(tau), a^2 = 1/tau, for u = (4 pi tau)^{-3/2} e^{-f}, f = a r^2 + b.
    H = dr ^ vol_{S^2} is h dV with h^2 = 1/tau, and d*H = 0 leaves
    sigma = i_{grad f} H, so |sigma|^2 = 2 |grad f|^2 h^2."""
    f, df = a * r * r + b, 2.0 * a * r
    k = curvature(np.sqrt(tau), 0.0, 0.0, df, 2.0 * a, 1.0 / tau)
    h2 = 1.0 / tau
    u = (4.0 * np.pi * tau) ** (-1.5) * np.exp(-f)
    return (_density(k, h2, f, tau, u), u,
            _integrand(k, h2, 2.0 * k.grad2 * h2, tau, u))


def gaussian_entropy_check(a0: float, times, dt: float = 1e-4) -> EntropyTrace:
    """Entropy and both derivative routes for a Gaussian weight on the
    cylinder flow g_t = dr^2/tau + tau g_{S^2}, H = dr ^ vol_{S^2},
    tau = 1 - t: the self-similar family of cylinder_soliton, an exact
    solution of the flow.

    u = (4 pi tau)^{-3/2} e^{-(a r^2 + b)} solves the conjugate heat
    equation iff a' = 4 tau a^2 and b' = 1/tau - 2 tau a, so
    1/a = 1/a0 - 4 t + 2 t^2 with a0 = a(0).  a0 = 1/2 is the soliton
    weight f = r^2/2, on which dW vanishes.  Otherwise
    dW/mass = 2 tau (2 a tau - 1/tau)^2 + 2 tau a - 1/tau, negative at
    t = 0 for 1/4 < a0 < 1/2 (minimum -1/8 at a0 = 3/8): the -|H|^2/6
    term of the monotonicity identity outweighs the squares.  For
    a0 > 1/2 the weight concentrates at t* = 1 - sqrt(1 - 1/(2 a0)), and
    a stencil that reaches t* raises ValueError before any integration.

    (a, b) is integrated as an initial value problem from the earliest
    stencil time, started from the closed form of a at unit mass, and a is
    checked against its closed form at every stencil time.  W, mass and
    dW_formula are trapezoid quadratures over dV = 4 pi sqrt(tau) dr on a
    grid fine and wide enough for e^{-50} accuracy; dW_fd is the central
    difference of W with step dt.  Raises as entropy_derivative_check does
    when the two routes disagree.
    """
    a0 = float(a0)
    if not (np.isfinite(a0) and a0 > 0):
        raise ValueError("a0 must be positive")
    if not dt > 0:
        raise ValueError("dt must be positive")
    times = _samples(times, "times")
    stencil = np.concatenate([times - dt, times, times + dt])
    _check_tau(1.0 - stencil)

    def inv_a(t):
        return 1.0 / a0 - 4.0 * t + 2.0 * t * t

    def a_closed(t):
        return 1.0 / inv_a(t)

    def rhs(t, y):
        tau = 1.0 - t
        return np.array([4.0 * tau * y[0] * y[0], 1.0 / tau - 2.0 * tau * y[0]])

    t_lo, t_hi = float(stencil.min()), float(stencil.max())
    # 1/a falls for t < 1, so a positive 1/a at the last stencil time keeps
    # the weight spread over the whole window
    if not inv_a(t_hi) > 0:
        t_star = 1.0 - math.sqrt(1.0 - 0.5 / a0)
        raise ValueError(
            "the weight concentrates at t* = %.6g, not after the last "
            "stencil time %.6g" % (t_star, t_hi)
        )
    a_lo = a_closed(t_lo)
    b_lo = -math.log(2.0 * (1.0 - t_lo) * math.sqrt(a_lo))  # unit mass
    run = integrate(rhs, (t_lo, t_hi), [a_lo, b_lo], rtol=1e-12, atol=1e-14)
    if run.termination != "reached_tmax":
        raise RuntimeError("Gaussian weight integration ended by " + run.termination)
    a, b = run.sol(stencil)
    a_err = float(np.max(np.abs(a / a_closed(stencil) - 1.0)))
    if not a_err < 1e-9:
        raise RuntimeError("integrated a leaves its closed form by %.3e" % a_err)

    half_width = math.sqrt(50.0 / float(a.min()))
    dr = math.pi / math.sqrt(50.0 * float(a.max()))
    k = math.ceil(half_width / dr)
    r = dr * np.arange(-k, k + 1.0)
    tau = 1.0 - stencil
    v, u, integrand = _gaussian_slice(r[None, :], tau[:, None], a[:, None], b[:, None])
    vol = 4.0 * np.pi * np.sqrt(tau) * dr

    def quadrature(x):  # one row per stencil time: t - dt, t, t + dt
        return (vol * x.sum(axis=1)).reshape(3, -1)

    W_minus, W, W_plus = quadrature(v)
    return _entropy_trace(
        times, tau.reshape(3, -1)[1], W, quadrature(u)[1], dt,
        W_plus=W_plus, W_minus=W_minus, dW_formula=quadrature(integrand)[1],
    )


# ---------------------------------------------------------------------------
# pointwise checks on the explicit solitons


def _grid_constant(values: np.ndarray, message: str) -> float:
    """The mean of values, which must be constant on the grid to 1e-9."""
    mean = float(np.mean(values))
    if np.max(np.abs(values - mean)) > 1e-9:
        raise ValueError(message)
    return mean


def _soliton_gate(data: Optional[WarpedSolitonData], grid, dt: float):
    """(data, grid, kappa) for a pointwise check at t = 0 on the pullback
    family of data (default the cylinder soliton): the family needs
    tau = 1 - dt > 0 and, for a linear dilation flow of grad f, a quadratic
    potential f'' = kappa.  Both canonical solitons qualify."""
    if data is None:
        data = cylinder_soliton()
    if not 0 < dt < 1:
        raise ValueError("dt must lie in (0, 1): the pullback family needs tau = 1 - dt > 0")
    grid = _samples(grid, "grid")
    if np.max(np.abs(grid)) > 5.0 + 1e-12:
        raise ValueError("soliton checks are restricted to |r| <= 5")
    report = convention_check(data, grid)
    if not report:
        raise ValueError("data is not a soliton: " + report.message)
    if abs(data.lambda_soliton - 1.0) > 1e-9:
        raise ValueError("heat identities assume soliton constant 1")
    kappa = _grid_constant(data.f.d2(grid), "pullback family requires a quadratic potential")
    return data, grid, kappa


def soliton_heat_check(
    grid,
    dt: float,
    data: Optional[WarpedSolitonData] = None,
) -> ResidualReport:
    """Potential form of the conjugate heat equation on a soliton at t = 0.

    Left side: d/dt of the pullback potential f_t(r) = f(r (1-t)^{-kappa})
    by central differences.  Right side, closed form:
    -Lap f + |grad f|^2 - R + |H|^2/4 + 3/(2 (1-t)).
    """
    data, grid, kappa = _soliton_gate(data, grid, dt)

    def f_at(t):
        return data.f(grid * (1.0 - t) ** (-kappa))

    lhs = (f_at(dt) - f_at(-dt)) / (2.0 * dt)
    k = curvature(data.phi(grid), data.phi.d1(grid), data.phi.d2(grid),
                  data.f.d1(grid), data.f.d2(grid))
    rhs = -k.lap_f + k.grad2 - k.R + 0.25 * torsion_norm_sq(data.h(grid)) + 1.5
    return ResidualReport(
        grid=grid,
        residuals={"heat_identity": lhs - rhs},
        meta={"dt": dt, "kappa": kappa},
    )


def _family_v(data: WarpedSolitonData, r: np.ndarray, t: float, kappa: float, c: float):
    """Entropy density v, weight u, Curvature and h on the self-similar family
    g_t = tau^{1-2kappa} dr^2 + tau phi(s)^2 g_sphere, s = r tau^{-kappa},
    with the torsion kept as the fixed coordinate form."""
    tau = 1.0 - t
    s = r * tau ** (-kappa)
    a2 = tau ** (1.0 - 2.0 * kappa)  # radial metric coefficient
    phi0, dphi0, ddphi0 = data.phi(s), data.phi.d1(s), data.phi.d2(s)
    sq = np.sqrt(tau)
    phi = sq * phi0
    dphi = sq * dphi0 * tau ** (-kappa)
    ddphi = sq * ddphi0 * tau ** (-2.0 * kappa)

    f = data.f(s)
    df = data.f.d1(s) * tau ** (-kappa)
    ddf = data.f.d2(s) * tau ** (-2.0 * kappa)

    k = curvature(phi, dphi, ddphi, df, ddf, a2)
    h_t = c / (np.sqrt(a2) * phi * phi)
    u = (4.0 * np.pi * tau) ** (-1.5) * np.exp(-f)
    return _density(k, h_t * h_t, f, tau, u), u, k, h_t


def pointwise_monotonicity_check(
    grid,
    dt: float,
    data: Optional[WarpedSolitonData] = None,
    dr: float = 2e-3,
) -> ResidualReport:
    """Conjugate-heat operator applied to the entropy density at t = 0.

    LHS: box* v = -dv/dt - Lap v + (R - |H|^2/4) v with dv/dt by central
    differences along the pullback family and Lap v from a fourth-order
    radial stencil of the t = 0 slice.  RHS, closed form on the soliton:
    -(2 tau |M|^2 + (tau/2) |sigma|^2 - |H|^2/6) u where
    M = Ric - H^2/4 + Hess f - g/(2 tau) and sigma is the twisted
    codifferential of H.
    """
    data, grid, kappa = _soliton_gate(data, grid, dt)
    # H = c dr ^ (unit-sphere area form) with c = h phi^2 constant makes H
    # closed and codifferential-free at every time of the family
    c = _grid_constant(data.h(grid) * data.phi(grid) ** 2,
                       "torsion form must have constant coefficient h phi^2")
    if not dr > 0:
        raise ValueError("dr must be positive")
    stencil = grid[None, :] + dr * np.arange(-2, 3)[:, None]
    if np.any(data.phi(stencil.ravel()) <= 0):
        raise ValueError("radial stencil leaves the phi > 0 region")

    v_plus = _family_v(data, grid, dt, kappa, c)[0]
    v_minus = _family_v(data, grid, -dt, kappa, c)[0]
    dv_dt = (v_plus - v_minus) / (2.0 * dt)

    # at t = 0 the family is data itself: tau, a^2 and every rescaling are 1
    v0, u0, k0, h0 = _family_v(data, grid, 0.0, kappa, c)
    vs = _family_v(data, stencil, 0.0, kappa, c)[0]
    d1 = (-vs[4] + 8.0 * vs[3] - 8.0 * vs[1] + vs[0]) / (12.0 * dr)
    d2 = (-vs[4] + 16.0 * vs[3] - 30.0 * vs[2] + 16.0 * vs[1] - vs[0]) / (
        12.0 * dr * dr
    )
    lap_v = d2 + 2.0 * (data.phi.d1(grid) / data.phi(grid)) * d1

    lhs = -dv_dt - lap_v + (k0.R - 1.5 * h0 * h0) * v0

    # closed-form right side at t = 0, tau = 1
    h = data.h(grid)
    rhs = -_integrand(k0, h * h, twisted_flux_norm_sq(data, grid), 1.0, u0)

    return ResidualReport(
        grid=grid,
        residuals={"pointwise_monotonicity": lhs - rhs},
        meta={"dt": dt, "dr": dr, "kappa": kappa, "torsion_coefficient": c},
    )
