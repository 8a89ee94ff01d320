"""Homogeneous generalized Ricci flow on (sphere) x (circle).

State (lambda, h, beta): sphere scale with the Ric = g/2 normalization
(so the product scalar curvature is 1/lambda), torsion amplitude of
H = h dV, and circle scale.  The reduced flow is

    lambda' = -1 + lambda h^2
    h'      = h/lambda - (3/2) h^3
    beta'   = (1/2) h^2 beta

with conserved lambda*h*beta, sign-invariant u = 1/2 - lambda h^2, and
a finite-time collapse lambda -> 0 whenever h0 is not too large.  The
torsion integral I(t) = int_0^t 6 h^2 ds rides along as a fourth state
and witnesses divergence at the singular time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ioutil import Report, to_csv_text
from .ioutil import atomic_write_text  # noqa: F401  (unused here; perfbench/tracer.py patches it)
from .odesolve import EventSpec, OdeSolution, brentq, integrate

__all__ = [
    "CylinderState",
    "CylinderTrajectory",
    "BlowupReport",
    "TorsionReport",
    "run_flow",
    "LAM_FLOOR",
    "blowup_analysis",
    "torsion_divergence",
]


@dataclass(frozen=True)
class CylinderState:
    lam: float
    h: float
    beta: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive")


def _rhs(t, y):
    lam, h, beta, _ = y
    h2 = h * h
    return np.array(
        [-1.0 + lam * h2, h / lam - 1.5 * h2 * h, 0.5 * h2 * beta, 6.0 * h2]
    )


@dataclass
class CylinderTrajectory:
    """Flow run with per-step diagnostics and a dense interpolant.

    states columns: lambda, h, beta, torsion integral I.  T_sing is the
    linear extrapolation of the lambda-floor event time to lambda = 0,
    None when the run ended without collapsing.  termination is
    'singularity' for a floor hit, otherwise the integrator label.
    """

    times: np.ndarray
    states: np.ndarray
    T_sing: Optional[float]
    termination: str
    sol: OdeSolution
    initial: CylinderState

    # diagnostic views

    @property
    def lam(self):
        return self.states[:, 0]

    @property
    def h(self):
        return self.states[:, 1]

    @property
    def beta(self):
        return self.states[:, 2]

    @property
    def torsion_integral(self):
        return self.states[:, 3]

    @property
    def lambda_h2(self):
        return self.lam * self.h**2

    @property
    def u(self):
        return 0.5 - self.lambda_h2

    @property
    def lambda_h_beta(self):
        return self.lam * self.h * self.beta

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def state_at(self, t):
        """Dense-output states, shape (4,) or (4, len(t))."""
        return self.sol(t)

    def to_csv(self, dt_out: Optional[float] = None) -> str:
        """Trajectory table; dt_out, None or a finite positive step,
        switches to a uniform sample grid."""
        if dt_out is not None and not 0 < dt_out < np.inf:
            raise ValueError(f"dt_out must be None or a finite positive number, got {dt_out!r}")
        if dt_out is None:
            ts = self.times
            ys = self.states.T
        else:
            ts = np.arange(self.times[0], self.t_end, dt_out)
            if self.t_end - ts[-1] > 1e-12:
                ts = np.append(ts, self.t_end)
            ys = self.state_at(ts)
        lam, h, beta, torsion = ys
        lh2 = lam * h**2
        return to_csv_text({
            "t": ts, "lambda": lam, "h": h, "beta": beta, "lambda_h2": lh2,
            "u": 0.5 - lh2, "lambda_h_beta": lam * h * beta, "torsion_integral": torsion,
        })


# The default collapse floor: a flow ends when lambda falls through it.
LAM_FLOOR = 1e-8


def run_flow(
    initial: CylinderState,
    rtol: float = 1e-11,
    atol: float = 1e-13,
    tmax: float = 10.0,
    lam_floor: float = LAM_FLOOR,
) -> CylinderTrajectory:
    """Integrate until the lambda-floor event (collapse) or tmax; the floor
    must lie strictly between 0 and the initial lambda."""
    if not 0 < lam_floor < initial.lam:
        raise ValueError(
            f"lam_floor must lie in (0, lam0): got lam_floor={lam_floor:g} "
            f"and lam0={initial.lam:g}"
        )
    y0 = np.array([initial.lam, initial.h, initial.beta, 0.0])
    floor_event = EventSpec(lambda t, y: y[0] - lam_floor, direction="falling", terminal=True)
    traj = integrate(_rhs, (0.0, tmax), y0, events=(floor_event,), rtol=rtol, atol=atol)

    T_sing = None
    termination = traj.termination
    if traj.termination == "event" and traj.events:
        t_ev, y_ev, _ = traj.events[-1]
        dlam = -1.0 + y_ev[0] * y_ev[1] ** 2
        # lambda' < -1/2 near collapse; linear extrapolation to lambda=0
        T_sing = float(t_ev + y_ev[0] / abs(dlam))
        termination = "singularity"

    return CylinderTrajectory(
        times=traj.times,
        states=traj.states,
        T_sing=T_sing,
        termination=termination,
        sol=traj.sol,
        initial=initial,
    )


@dataclass
class BlowupReport(Report):
    """Rescaling diagnostics on a geometric approach to the singular time.

    lambda*h^2 should approach 1/2 (the nontrivial soliton) for every
    h0 != 0, while the opening factor beta^2/lambda diverges
    monotonically.  ricci_case flags h0 = 0 where lambda*h^2 is
    identically zero and no nontrivial limit exists.
    """

    sample_times: np.ndarray
    lambda_h2: np.ndarray
    limit: float
    limit_error: float
    opening: np.ndarray
    opening_increasing: bool
    opening_max: float
    ricci_case: bool


def _aitken(x: np.ndarray):
    """Aitken-accelerated limit of a geometrically converging sequence."""
    diffs = np.diff(x)
    if np.max(np.abs(diffs)) < 1e-14:
        return float(x[-1]), 0.0
    limits = []
    for k in range(1, diffs.size):
        d0, d1 = diffs[k - 1], diffs[k]
        if d0 == 0 or abs(d1) >= abs(d0):
            continue
        rho = d1 / d0
        limits.append(x[k + 1] + d1 * rho / (1.0 - rho))
    if not limits:
        return float(x[-1]), float(np.max(np.abs(diffs)))
    if len(limits) == 1:
        return float(limits[0]), float(abs(limits[0] - x[-1]))
    return float(limits[-1]), float(abs(limits[-1] - limits[-2]))


def blowup_analysis(traj: CylinderTrajectory, n_samples: int = 18) -> BlowupReport:
    """Sample t_i = T - 2^{-i}(T - t_start) and extrapolate lambda*h^2."""
    if traj.T_sing is None:
        raise RuntimeError("flow did not reach the collapse event")
    T = traj.T_sing
    t_start = float(traj.times[0])
    t_i = T - 0.5 ** np.arange(1, n_samples + 1) * (T - t_start)
    t_i = t_i[t_i <= traj.t_end]
    if t_i.size < 3:
        raise RuntimeError("need at least 3 samples before the floor event")

    lam, h, beta, _ = traj.state_at(t_i)
    x = lam * h**2
    ricci = traj.initial.h == 0.0
    if ricci:
        limit, err = 0.0, 0.0
    else:
        limit, err = _aitken(x)
    opening = beta**2 / lam
    increasing = bool(np.all(np.diff(opening) > 0))
    return BlowupReport(
        sample_times=t_i,
        lambda_h2=x,
        limit=limit,
        limit_error=err,
        opening=opening,
        opening_increasing=increasing,
        opening_max=float(opening[-1]),
        ricci_case=ricci,
    )


@dataclass
class TorsionReport(Report):
    """Divergence witness for the torsion integral I(t) = int 6 h^2.

    log_coefficient is the fitted c in I ~ -c ln(T_sing - t) over the
    last decade before the floor event; crossing_time solves
    I(t*) = psi0 when psi0 is given and reached.
    """

    times: np.ndarray
    torsion_integral: np.ndarray
    log_coefficient: float
    psi0: Optional[float]
    crossing_time: Optional[float]
    I_end: float
    T_sing: float


def torsion_divergence(
    traj: CylinderTrajectory,
    psi0: Optional[float] = None,
    fit_points: int = 200,
) -> TorsionReport:
    """Fit the logarithmic divergence of I(t) near the singular time."""
    if traj.initial.h == 0.0:
        raise ValueError(
            "h0 must be nonzero for a divergence witness: at h0 = 0 the "
            "torsion integral converges"
        )
    if psi0 is not None and not psi0 >= 0:
        raise ValueError("psi0 must be nonnegative")
    if traj.T_sing is None:
        raise RuntimeError("flow did not reach the collapse event")
    T = traj.T_sing
    delta_end = T - traj.t_end
    # log-uniform samples over the last decade of (T_sing - t)
    t_fit = T - delta_end * 10.0 ** np.linspace(1.0, 0.0, fit_points)
    t_fit = t_fit[t_fit >= traj.times[0]]
    I_fit = traj.state_at(t_fit)[3]
    xi = -np.log(T - t_fit)
    c = float(np.polyfit(xi, I_fit, 1)[0])

    crossing = None
    I_end = float(traj.torsion_integral[-1])
    if psi0 is not None and psi0 <= I_end:
        crossing = float(
            brentq(
                lambda t: traj.state_at(t)[3] - psi0,
                traj.times[0],
                traj.t_end,
                xtol=1e-13,
            )
        )
    return TorsionReport(
        times=traj.times,
        torsion_integral=traj.torsion_integral,
        log_coefficient=c,
        psi0=psi0,
        crossing_time=crossing,
        I_end=I_end,
        T_sing=T,
    )
