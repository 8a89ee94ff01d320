"""Phase-plane lab for the normalized warp equation.

The substitution u = phi^{3/2} turns
phi^2 + (phi')^2 + 2 phi phi'' = 1 into the autonomous system

    u' = p,    p' = (3/4) (u^{-1/3} - u),

whose orbits conserve E = 3u^2 + 4p^2 - 9u^{2/3}.  The branch with
E = 0 starts smoothly at the coordinate origin and is traced here with
a series start plus event detection: u reaches 1 (rising), tops out
where p falls through 0, returns through 1 and hits the terminal floor
near 0 at finite radius.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ioutil import Report, atomic_write_text, to_csv_text
from .odesolve import EventSpec, OdeProblem, Trajectory, integrate

__all__ = [
    "PhaseState",
    "ShootingReport",
    "SERIES_C3",
    "SERIES_C5",
    "orbit_invariant",
    "series_start",
    "series_phi",
    "shoot_r3_branch",
]

# Origin expansion phi(r) = r + c3 r^3 + c5 r^5 + O(r^7) of the
# normalized warp equation.  Matching order r^2 of the equation gives
# 1 + 18 c3 = 0 and order r^4 gives 2 c3 + 21 c3^2 + 50 c5 = 0.
SERIES_C3 = -1.0 / 18.0
SERIES_C5 = 1.0 / 1080.0


@dataclass(frozen=True)
class PhaseState:
    r: float
    u: float
    p: float

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("u must be nonnegative")


def orbit_invariant(u, p):
    """E = 3u^2 + 4p^2 - 9u^{2/3}, conserved along the phase orbits;
    scalars or arrays."""
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    return 3.0 * u * u + 4.0 * p * p - 9.0 * np.cbrt(u) ** 2


def series_phi(r):
    """Two-term origin expansion of the normalized warp profile."""
    r = np.asarray(r, dtype=float)
    phi = r + SERIES_C3 * r**3 + SERIES_C5 * r**5
    dphi = 1.0 + 3.0 * SERIES_C3 * r**2 + 5.0 * SERIES_C5 * r**4
    return phi, dphi


def series_start(r_switch: float = 0.05) -> PhaseState:
    """Smooth-branch state at r_switch from the origin expansion.

    The raw system is singular at u=0, so the E=0 branch must be seeded
    from the series.  Valid for 0 < r_switch <= 0.1.
    """
    if not 0.0 < r_switch <= 0.1:
        raise ValueError("r_switch must lie in (0, 0.1]")
    phi, dphi = series_phi(r_switch)
    u = phi**1.5
    p = 1.5 * np.sqrt(phi) * dphi
    return PhaseState(r=float(r_switch), u=float(u), p=float(p))


def _rhs(r, y):
    u, p = y
    # the terminal floor keeps u positive; guard anyway so rejected trial
    # steps past the floor cannot take a fractional power of a negative
    u = max(u, 1e-300)
    return np.array([p, 0.75 * (u ** (-1.0 / 3.0) - u)])


@dataclass
class ShootingReport(Report):
    """Milestones of the smooth branch and the certification flags.

    r1: u=1 rising, r2: p=0 falling (top), r3: u=1 falling, r4: terminal
    floor u=delta_floor.  terminated_at_zero certifies the orbit came
    back to u ~ 0 at finite radius through r1 < r2 < r3 < r4; a
    step_underflow before that leaves it false (numerics failure, not a
    conclusion).
    """

    r1: Optional[float]
    r2: Optional[float]
    r3: Optional[float]
    r4: Optional[float]
    u_max: float
    invariant_drift: float
    terminated_at_zero: bool
    delta_floor: float
    floor_p: Optional[float]
    floor_p_predicted: Optional[float]
    termination: str
    trajectory: Optional[Trajectory] = None

    _skip = ("r1", "r2", "r3", "r4", "trajectory")

    @property
    def milestones(self):
        return (self.r1, self.r2, self.r3, self.r4)

    def _extras(self) -> dict:
        return {"milestones": dict(zip(("r1", "r2", "r3", "r4"), self.milestones))}

    def trajectory_csv(self, path: Optional[str] = None) -> str:
        traj = self.trajectory
        if traj is None:
            raise ValueError("report carries no trajectory")
        energies = orbit_invariant(traj.states[:, 0], traj.states[:, 1])
        rows = (
            (traj.times[i], traj.states[i, 0], traj.states[i, 1], energies[i])
            for i in range(traj.times.size)
        )
        text = to_csv_text(["r", "u", "p", "E"], rows)
        if path is not None:
            atomic_write_text(path, text)
        return text


def shoot_r3_branch(
    r_switch: float = 0.05,
    delta_floor: float = 1e-8,
    r_max: float = 12.0,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> ShootingReport:
    """Trace the E=0 branch and report the four proof milestones.

    Events: u=1 rising (r1), p=0 falling (r2), u=1 falling (r3) and the
    terminal floor u=delta_floor falling (r4).  Also reports the maximal
    u, the worst drift of the conserved E over all accepted steps, and
    the floor cross-check p ~ -(3/2) u^{1/3} implied by E=0.
    """
    if not 0.0 < delta_floor < 1.0:
        raise ValueError("delta_floor must lie in (0, 1)")
    start = series_start(r_switch)
    events = (
        EventSpec(lambda r, y: y[0] - 1.0, direction="rising", name="u_one_up"),
        EventSpec(lambda r, y: y[1], direction="falling", name="p_zero"),
        EventSpec(lambda r, y: y[0] - 1.0, direction="falling", name="u_one_down"),
        EventSpec(
            lambda r, y: y[0] - delta_floor,
            direction="falling",
            terminal=True,
            name="u_floor",
        ),
    )
    problem = OdeProblem(
        rhs=_rhs, t0=start.r, tmax=r_max, state0=np.array([start.u, start.p])
    )
    traj = integrate(problem, events=events, rtol=rtol, atol=atol)

    firsts: list = [None, None, None, None]
    u_top = None
    for t_ev, y_ev, idx in traj.events:
        if firsts[idx] is None:
            firsts[idx] = float(t_ev)
            if idx == 1:
                u_top = float(y_ev[0])

    energies = orbit_invariant(traj.states[:, 0], traj.states[:, 1])
    drift = float(np.max(np.abs(energies - energies[0])))
    u_max = float(np.max(traj.states[:, 0]) if u_top is None else u_top)

    terminated = (
        traj.termination == "event"
        and None not in firsts
        and all(a < b for a, b in zip(firsts, firsts[1:]))
    )
    floor_p = floor_pred = None
    if terminated:
        floor_p = float(traj.states[-1, 1])
        floor_pred = -1.5 * float(np.cbrt(traj.states[-1, 0]))

    return ShootingReport(
        r1=firsts[0],
        r2=firsts[1],
        r3=firsts[2],
        r4=firsts[3],
        u_max=u_max,
        invariant_drift=drift,
        terminated_at_zero=terminated,
        delta_floor=delta_floor,
        floor_p=floor_p,
        floor_p_predicted=floor_pred,
        termination=traj.termination,
        trajectory=traj,
    )
