"""Exact finite-N sums against the mean-field limit.

Enumerating occupation compositions with multinomial degeneracies gives
the exact per-spin free energy at any finite N. The leading gap to the
variational limit scales like 1/N; at J = g = 0 the fluctuation
variances of the moments are known in closed form.
"""

import math

import numpy as np
from fractions import Fraction

from curieweiss import (
    ModelParams,
    SpinQuantum,
    enumerate_ensemble,
    exact_free_energy,
    meanfield_m2,
    minimize,
    thermal_moments,
)

L = SpinQuantum(2)
TEMP = 0.2
SIZES = (10, 20, 50, 100, 200, 400)


def main():
    pr = ModelParams(L, temperature=TEMP, j4=1.0)
    limit = min(r.f_value for r in minimize(pr))
    print(f"variational limit at T = {TEMP}: F = {limit:+.9f}\n")

    # --- finite-size ladder: F_N sits below the limit, gap * N converges ---
    print(f"{'N':>5} {'F_N':>14} {'gap':>12} {'gap*N':>9}")
    for n in SIZES:
        f_n = exact_free_energy(enumerate_ensemble(L, n, params=pr))
        gap = f_n - limit
        print(f"{n:5d} {f_n:14.9f} {gap:12.3e} {gap * n:9.4f}")

    # --- thermal moments: symmetric sums keep <m2> = 2/3 exactly ---
    tm = thermal_moments(enumerate_ensemble(L, 400, params=pr))
    print(f"\n<m2>_400 at g = 0: {tm[1]:.12f}")
    print("  the three wells are averaged over their orbit, so the exact")
    print("  thermal value equals the uniform 2/3 at any N and any T")

    # a detector coupling breaks the tie and locks onto one well
    tied = ModelParams(L, temperature=TEMP, j4=1.0, g=0.2, sector=Fraction(0))
    tm_g = thermal_moments(enumerate_ensemble(L, 400, params=tied))
    print(f"\n<m2>_400 at g = 0.2, sector 0: {tm_g[1]:.6f}")
    print(f"  mean-field well location:    {meanfield_m2(tied):.6f}")

    # --- free ensemble: exact fluctuation identities ---
    n = 1000
    ens = enumerate_ensemble(L, n)
    w = np.exp(ens.log_degeneracy - ens.log_degeneracy.max())
    w /= w.sum()
    mean = w @ ens.moments
    var = w @ (ens.moments - mean) ** 2
    print(f"\nfree ensemble at N = {n} (J = g = 0):")
    print(f"  <m1> = {mean[0]:+.2e}   <m2> = {mean[1]:.12f}  (exactly 2/3)")
    print(f"  Var(m1) = {var[0]:.6e}   2/(3N) = {2 / (3 * n):.6e}")
    print(f"  Var(m2) = {var[1]:.6e}   2/(9N) = {2 / (9 * n):.6e}")


if __name__ == "__main__":
    main()
