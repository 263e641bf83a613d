"""Locate the three thresholds of the three-state model.

Prints the limit-of-metastability temperature, the degeneracy
temperature, and the coupling strength that removes the barrier in the
registration profile, together with the residuals that define each one.
Then follows the first two thresholds across spins 1/2 to 3 on the
reflection-axis branch.
"""

import math

from curieweiss import (
    ModelParams,
    branch_thresholds,
    critical_coupling,
    critical_temperature,
    free_energy,
    meanfield_m2,
    spinodal_temperature,
)
from curieweiss import MomentVector, SpinQuantum

L = SpinQuantum(2)
J4 = 1.0


def show(point):
    m = point.order_param.values
    print(f"{point.kind}: value = {point.value:.10f}")
    print(f"  order parameter (m1, m2) = ({m[0]:+.7f}, {m[1]:.7f})")
    for name, r in sorted(point.residuals.items()):
        print(f"  residual {name:<12} = {r:.3e}")


def main():
    base = ModelParams(L, temperature=0.3, j4=J4)

    # --- spinodal: the ordered well appears by tangency ---
    ms = spinodal_temperature(base)
    show(ms)

    # --- critical temperature: ordered and uniform minima tie ---
    tc = critical_temperature(base)
    show(tc)
    t = tc.value
    pr = ModelParams(L, temperature=t, j4=J4)
    f_ferro = free_energy(pr, MomentVector(L, (0.0, meanfield_m2(pr)))).free_energy
    print(f"  ferro F at T_c    = {f_ferro:+.10f}")
    print(f"  uniform -T ln 3   = {-t * math.log(3.0):+.10f}")

    # --- coupling threshold: barrier in the registration profile goes flat ---
    gc = critical_coupling(ModelParams(L, temperature=0.4, j4=J4))
    show(gc)

    # g_c grows with temperature: a hotter magnet needs a stronger detector
    print("\ng_c versus temperature:")
    for t in (0.30, 0.35, 0.40, 0.45, 0.50):
        g = critical_coupling(ModelParams(L, temperature=t, j4=J4)).value
        print(f"  T = {t:.2f}: g_c = {g:.8f}")

    # and it falls with the quartic coupling roughly like 1/sqrt(J4)
    print("\ng_c versus quartic strength at T = 0.4:")
    for j4 in (1.0, 4.0, 16.0, 64.0):
        g = critical_coupling(ModelParams(L, temperature=0.4, j4=j4)).value
        print(f"  J4 = {j4:5.1f}: g_c = {g:.8f}   g_c * sqrt(J4) = {g * math.sqrt(j4):.8f}")

    # the same two temperatures for every spin, from the explicit branch
    # x = softmax(kappa c) on a reflection axis; at 2l = 2 it reproduces
    # the closed forms above
    print("\nT_ms and T_c versus spin at J4 = 1:")
    for twice_l in range(1, 7):
        ms, tc = branch_thresholds(ModelParams(SpinQuantum(twice_l), 0.3, j4=J4))
        print(f"  2l = {twice_l}: T_ms = {ms.value:.10f}   T_c = {tc.value:.10f}")


if __name__ == "__main__":
    main()
