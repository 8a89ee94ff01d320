"""Shrinking entropy along collapsing flows, with and without torsion.

The entropy W is evaluated with a conjugate-heat weight normalized to
unit mass.  Two derivative routes must agree: a central finite
difference of W, and the curvature formula evaluated on the state.  For
vanishing torsion the formula is a sum of squares, so W grows; with
torsion the general theory allows decay, yet on this homogeneous family
the formula stays positive for structural reasons, printed last.
"""
import math

import numpy as np

from grflab.cylinder import CylinderState, run_flow
from grflab.entropy import (
    conjugate_heat_homogeneous,
    entropy_derivative_check,
)

UNIT_MASS_U0 = 1.0 / (16.0 * math.pi ** 2)


def main():
    for h0sq in (0.0, 0.5):
        traj = run_flow(CylinderState(lam=1.0, h=math.sqrt(h0sq), beta=1.0))
        weights = conjugate_heat_homogeneous(traj, u0=UNIT_MASS_U0)
        times = np.linspace(0.05, traj.T_sing - 0.6, 8)
        trace = entropy_derivative_check(traj, weights, dt=1e-4, times=times)
        print(f"== h0^2 = {h0sq}: T_sing = {traj.T_sing:.6f} ==")
        print(f"  W(0.05) = {trace.W[0]:.9f}")
        print("  t        dW (finite diff)  dW (formula)   gap")
        for t, fd, fo, gap in zip(trace.times, trace.dW_fd, trace.dW_formula,
                                  trace.gap):
            print(f"  {t:.4f}   {fd:+.9f}     {fo:+.9f}  {gap:.1e}")
        drift = np.abs(trace.mass - trace.mass[0]).max()
        print(f"  mass drift {drift:.2e}, all dW >= 0: {bool(np.all(trace.dW_formula >= 0))}")
        print()

    # why no torsion run on this family can push dW below zero: per unit
    # mass the formula rearranges into three nonnegative pieces
    traj = run_flow(CylinderState(lam=1.0, h=math.sqrt(0.5), beta=1.0))
    weights = conjugate_heat_homogeneous(traj, u0=UNIT_MASS_U0)
    t = 1.2
    lam, h, _, _ = traj.state_at(t)
    tau = traj.T_sing - t
    A_s = 0.5 / lam - 0.5 * h * h - 0.5 / tau
    pieces = (4.0 * tau * A_s ** 2, tau * h ** 4 / 2.0, 0.5 / tau)
    print("structural split of dW/mass at t = 1.2 on the h0^2 = 1/2 run:")
    print(f"  4 tau A^2   = {pieces[0]:.9f}")
    print(f"  tau h^4 / 2 = {pieces[1]:.9f}")
    print(f"  1/(2 tau)   = {pieces[2]:.9f}")
    print(f"  total       = {sum(pieces):.9f}  (every piece nonnegative)")


if __name__ == "__main__":
    main()
