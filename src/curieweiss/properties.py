"""Randomized verification of the cyclic-symmetry properties.

The checks quantify, over a seeded sample of interior weight vectors,
how well the implementation realizes the exact statements: the moment
map conjugates the weight shift, its order is 2l+1, the paramagnet is
its fixed point, the moment chart inverts, and shifting the sector
tracks shifting the state.  All deviations are exact zeros in real
arithmetic, so the reported numbers measure accumulated roundoff.

The sector-shift check needs F in all 2l+1 sectors at the sample and at
its cycled image.  Only the linear term b_s.x of F depends on the sector,
so per point set the chart is inverted (the sample's inversion also
serves the roundtrip check), and phi(A) and T*S are computed, once; each
sector adds its own b_s.x.  The values are bit-identical to one
free_energy_batch call per sector.
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


def _sector_free_energies(l: SpinQuantum, x: np.ndarray):
    """F under _SHIFT_PARAMS at chart weights x, one array per sector of
    spectrum(l); None when a point is infeasible.

    F = (phi(A) + x.b_s) - T*S and only b_s depends on the sector, so
    phi(A) and T*S are computed once, each by free_energy_batch's
    operations in its order: F has that function's bits.
    """
    kernels = [_Kernel(ModelParams(l=l, sector=s, **_SHIFT_PARAMS)) for s in spectrum(l)]
    if not x.min() >= -FEASIBILITY_TOL:
        return None
    x = np.clip(x, 0.0, None)
    phi_a = kernels[0].phi(_mean_phase(kernels[0].table, x)[1])
    ts = _SHIFT_PARAMS["temperature"] * _entropy(x)
    return [(phi_a + x @ kernel.b) - ts for kernel in kernels]


def run_symmetry_suite(
    l: SpinQuantum, samples: int = 1000, seed: int = 0
) -> dict[str, float]:
    """Max deviation per property over a seeded random sample.

    Keys match TOLERANCES.  The sector-shift check compares the coupled
    free energy in sector s at m against sector s+1 at the cycled image,
    for every sector, under a fixed interaction set.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    x = random_weights(l, rng, samples)
    m = weights_to_moments_array(l, x)
    cyc = permutation_map_m(l)
    d = l.n_states

    m_cycled = cyc.apply(m)
    m_rolled = weights_to_moments_array(l, np.roll(x, 1, axis=1))
    conjugacy = float(np.max(np.abs(m_cycled - m_rolled)))

    m_iter = m
    for _ in range(d):
        m_iter = cyc.apply(m_iter)
    map_order = float(np.max(np.abs(m_iter - m)))

    pm = paramagnet_moments(l)
    paramagnet_fixed = float(np.max(np.abs(cyc.apply(pm).values - pm.values)))

    x_chart = moments_to_weights_array(l, m)
    roundtrip = float(np.max(np.abs(x_chart - x)))

    here = _sector_free_energies(l, x_chart)
    there = _sector_free_energies(l, moments_to_weights_array(l, m_cycled))
    shift = float("inf")
    if here is not None and there is not None:
        shift = 0.0
        for f_here, f_there in zip(here, there[1:] + there[:1]):
            shift = max(shift, float(np.max(np.abs(f_here - f_there))))

    return {
        "conjugacy": conjugacy,
        "map_order": map_order,
        "paramagnet_fixed": paramagnet_fixed,
        "roundtrip": roundtrip,
        "sector_shift": shift,
    }
