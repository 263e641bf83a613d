"""Randomized invariant suite across all supported spins."""

import numpy as np
import pytest

from curieweiss import (
    TOLERANCES,
    ModelParams,
    SpinQuantum,
    free_energy_batch,
    run_symmetry_suite,
    spectrum,
)
from curieweiss import properties
from curieweiss.order_params import (
    FEASIBILITY_TOL,
    moments_to_weights_array,
    paramagnet_moments,
    permutation_map_m,
    random_weights,
    weights_to_moments_array,
)
from curieweiss.properties import _SHIFT_PARAMS

FIVE = (1, 2, 3, 4, 5)


@pytest.mark.parametrize("twice_l", FIVE)
def test_suite_within_tolerances(twice_l):
    dev = run_symmetry_suite(SpinQuantum(twice_l), samples=1000, seed=2024)
    assert set(dev) == set(TOLERANCES)
    for key, value in dev.items():
        assert value < TOLERANCES[key], key


def test_suite_deterministic():
    a = run_symmetry_suite(SpinQuantum(3), samples=200, seed=7)
    b = run_symmetry_suite(SpinQuantum(3), samples=200, seed=7)
    assert a == b
    c = run_symmetry_suite(SpinQuantum(3), samples=200, seed=8)
    assert c != a  # different draw, same bounds
    for key, value in c.items():
        assert value < TOLERANCES[key]


def test_suite_slightly_larger_spins_also_pass():
    # the construction is generic; strict bars still hold just past the
    # tabulated five
    for twice_l in (6, 7):
        dev = run_symmetry_suite(SpinQuantum(twice_l), samples=200, seed=1)
        for key, value in dev.items():
            assert value < TOLERANCES[key], (twice_l, key)


def test_suite_reports_conditioning_loss_at_high_spin():
    """Raw-moment charts are ill-conditioned for large 2l.

    The suite must keep running and report the growing deviations instead
    of masking them; the strict bars are only promised for the small spins.
    """
    worst = [
        run_symmetry_suite(SpinQuantum(tl), samples=100, seed=1)["map_order"]
        for tl in (5, 9, 13)
    ]
    assert worst[0] < worst[1] < worst[2]
    assert worst[0] < 1e-9  # tabulated range still sharp
    assert worst[2] > 1e-3  # and the loss is reported, not hidden


def test_suite_deviation_scale():
    # deviations should sit many orders below the acceptance bars
    dev = run_symmetry_suite(SpinQuantum(2), samples=1000, seed=0)
    assert max(dev.values()) < 1e-11


def _reference_suite(l, samples, seed):
    """The suite with the sector-shift check as one free_energy_batch call per
    sector and point set."""
    rng = np.random.default_rng(seed)
    x = random_weights(l, rng, samples)
    m = weights_to_moments_array(l, x)
    cyc = permutation_map_m(l)
    m_cycled = cyc.apply(m)
    m_iter = m
    for _ in range(l.n_states):
        m_iter = cyc.apply(m_iter)
    pm = paramagnet_moments(l)
    sectors = spectrum(l)
    shift = 0.0
    for i, s in enumerate(sectors):
        s_next = sectors[(i + 1) % l.n_states]
        f_here, ok_here = free_energy_batch(
            ModelParams(l=l, sector=s, **_SHIFT_PARAMS), m)
        f_there, ok_there = free_energy_batch(
            ModelParams(l=l, sector=s_next, **_SHIFT_PARAMS), m_cycled)
        if not (ok_here.all() and ok_there.all()):
            shift = float("inf")
            break
        shift = max(shift, float(np.max(np.abs(f_here - f_there))))
    rolled = weights_to_moments_array(l, np.roll(x, 1, axis=1))
    return {
        "conjugacy": float(np.max(np.abs(m_cycled - rolled))),
        "map_order": float(np.max(np.abs(m_iter - m))),
        "paramagnet_fixed": float(np.max(np.abs(cyc.apply(pm).values - pm.values))),
        "roundtrip": float(np.max(np.abs(moments_to_weights_array(l, m) - x))),
        "sector_shift": shift,
    }


@pytest.mark.parametrize("twice_l", range(1, 9))
@pytest.mark.parametrize("seed", (3, 2024))
def test_suite_matches_per_sector_reference(twice_l, seed):
    # the chart, phi(A) and T*S are computed once for all sectors: every
    # deviation keeps its bits
    l = SpinQuantum(twice_l)
    assert run_symmetry_suite(l, samples=300, seed=seed) == \
        _reference_suite(l, 300, seed)


@pytest.mark.parametrize("offset, infinite", [(-2 * FEASIBILITY_TOL, True),
                                              (-0.5 * FEASIBILITY_TOL, False)])
@pytest.mark.parametrize("in_sample", (True, False))
def test_sector_shift_infinite_at_an_infeasible_point(monkeypatch, offset, infinite,
                                                      in_sample):
    # a chart that puts one weight of one point at ``offset``, in the sample
    # (the array the suite inverts first, for the roundtrip) or in its cycled
    # image; only below -FEASIBILITY_TOL is the point infeasible
    seen = []

    def chart(l, m):
        seen.append(m)
        x = moments_to_weights_array(l, m)
        if (m is seen[0]) == in_sample:
            x[-1, 0] = offset
        return x

    monkeypatch.setattr(properties, "moments_to_weights_array", chart)
    shift = run_symmetry_suite(SpinQuantum(3), samples=50, seed=1)["sector_shift"]
    assert np.isfinite(shift) != infinite, shift
