"""Randomized verification of the cyclic-symmetry properties.

The checks quantify, over a seeded sample of interior weight vectors,
how well the implementation realizes the exact statements: the moment
map conjugates the weight shift, its order is 2l+1, the paramagnet is
its fixed point, the moment chart inverts, and shifting the sector
tracks shifting the state.  All deviations are exact zeros in real
arithmetic, so the reported numbers measure accumulated roundoff.

The chart stage takes each deviation as soon as its inputs exist and
drops each sample-sized array once read; only the chart images of the
sample and of its cycled image go on to the sector stage, which
compares F in sector s at the one with sector s+1 at the other.
"""

from __future__ import annotations

import numpy as np

from .order_params import (
    FEASIBILITY_TOL,
    moments_to_weights_array,
    paramagnet_moments,
    permutation_map_m,
    random_weights,
    weights_to_moments_array,
)
from .spectrum import SpinQuantum, spectrum
from .thermo import ModelParams, _entropy, _Kernel, _mean_phase

TOLERANCES = {
    "conjugacy": 1e-9,
    "map_order": 1e-9,
    "paramagnet_fixed": 1e-10,
    "roundtrip": 1e-9,
    "sector_shift": 1e-9,
}

# fixed interaction used for the sector-shift check: strong enough that
# every term of F contributes, weak enough to stay well conditioned
_SHIFT_PARAMS = {"temperature": 0.35, "j2": 0.3, "j4": 1.0, "g": 0.1}


def _deviation(a, b) -> float:
    """max |a - b|, its abs taken in the difference's own buffer."""
    d = a - b
    return float(np.max(np.abs(d, out=d)))


def _sector_shift(l: SpinQuantum, here: np.ndarray, there: np.ndarray) -> float:
    """max over s of |F_s(here) - F_s+1(there)| under _SHIFT_PARAMS at chart
    weights here and there (clipped in place); inf at an infeasible point.

    F = (phi(A) + x.b_s) - T*S and only b_s depends on the sector, so phi(A)
    and T*S are computed once per point set, each by free_energy_batch's
    operations in its order: F has that function's bits.
    """
    kernels = [_Kernel(ModelParams(l=l, sector=s, **_SHIFT_PARAMS)) for s in spectrum(l)]
    terms = []
    for x in (here, there):
        if not x.min() >= -FEASIBILITY_TOL:
            return float("inf")
        np.clip(x, 0.0, None, out=x)
        terms.append((kernels[0].phi(_mean_phase(kernels[0].table, x)[1]),
                      _SHIFT_PARAMS["temperature"] * _entropy(x)))
    (phi_here, ts_here), (phi_there, ts_there) = terms
    shift = 0.0
    for k_here, k_there in zip(kernels, kernels[1:] + kernels[:1]):
        shift = max(shift, _deviation((phi_here + here @ k_here.b) - ts_here,
                                      (phi_there + there @ k_there.b) - ts_there))
    return shift


def run_symmetry_suite(l: SpinQuantum, samples: int = 1000, seed: int = 0) -> dict[str, float]:
    """Max deviation per property over a seeded random sample, keyed as in
    TOLERANCES; the sector shift is taken under the fixed _SHIFT_PARAMS."""
    if samples < 1:
        raise ValueError("samples must be positive")
    x = random_weights(l, np.random.default_rng(seed), samples)
    m = weights_to_moments_array(l, x)
    cyc = permutation_map_m(l)
    m_iter = cyc.apply(m)  # the cycled image; 2l more cycles give m again
    conjugacy = _deviation(m_iter, weights_to_moments_array(l, np.roll(x, 1, axis=1)))
    here = moments_to_weights_array(l, m)
    roundtrip = _deviation(here, x)
    del x
    there = moments_to_weights_array(l, m_iter)
    for _ in range(l.twice_l):
        m_iter = cyc.apply(m_iter)
    map_order = _deviation(m_iter, m)
    del m, m_iter
    pm = paramagnet_moments(l)
    return {"conjugacy": conjugacy, "map_order": map_order,
            "paramagnet_fixed": _deviation(cyc.apply(pm).values, pm.values),
            "roundtrip": roundtrip, "sector_shift": _sector_shift(l, here, there)}
