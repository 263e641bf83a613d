"""Weight/moment charts and the cyclic sector-shift map.

The reference tables below are the printed inversion formulas and shift
matrices, written out row by row in ascending sigma order.
"""

from fractions import Fraction

import numpy as np
import pytest

from curieweiss import (
    InfeasibleMoments,
    MomentVector,
    SpinQuantum,
    WeightVector,
    feasibility,
    moment_orbit,
    moments_to_weights,
    moments_to_weights_array,
    paramagnet_moments,
    permutation_map_m,
    permutation_map_x,
    random_weights,
    spectrum_array,
    weights_to_moments,
    weights_to_moments_array,
)
from curieweiss.order_params import FEASIBILITY_TOL

ALL_FIVE = (1, 2, 3, 4, 5)
# The largest 2l whose chart round trip x -> m -> x stays within
# FEASIBILITY_TOL (README, "Numerical limits"); the vertices set the error.
CHART_ROUND_TRIP_TWICE_L = 11

# x_sigma = INV_OFFSET + INV_MATRIX @ m, rows in ascending sigma.
INV_MATRIX = {
    1: [[-1.0], [1.0]],
    2: [[-0.5, 0.5], [0.0, -1.0], [0.5, 0.5]],
    3: [
        [2 / 48, 12 / 48, -8 / 48],
        [-18 / 16, -4 / 16, 8 / 16],
        [18 / 16, -4 / 16, -8 / 16],
        [-2 / 48, 12 / 48, 8 / 48],
    ],
    4: [
        [2 / 24, -1 / 24, -2 / 24, 1 / 24],
        [-4 / 6, 4 / 6, 1 / 6, -1 / 6],
        [0.0, -5 / 4, 0.0, 1 / 4],
        [4 / 6, 4 / 6, -1 / 6, -1 / 6],
        [-2 / 24, -1 / 24, 2 / 24, 1 / 24],
    ],
    5: [
        [-3 / 640, -5 / 96, 1 / 48, 1 / 48, -1 / 120],
        [25 / 384, 13 / 32, -13 / 48, -1 / 16, 1 / 24],
        [-75 / 64, -17 / 48, 17 / 24, 1 / 24, -1 / 12],
        [75 / 64, -17 / 48, -17 / 24, 1 / 24, 1 / 12],
        [-25 / 384, 13 / 32, 13 / 48, -1 / 16, -1 / 24],
        [3 / 640, -5 / 96, -1 / 48, 1 / 48, 1 / 120],
    ],
}
INV_OFFSET = {
    1: [0.5, 0.5],
    2: [0.0, 1.0, 0.0],
    3: [-3 / 48, 9 / 16, 9 / 16, -3 / 48],
    4: [0.0, 0.0, 1.0, 0.0, 0.0],
    5: [3 / 256, -25 / 256, 75 / 128, 75 / 128, -25 / 256, 3 / 256],
}

# m' = MAP_OFFSET + MAP_MATRIX @ m under the sector shift s -> s+1.
MAP_MATRIX = {
    1: [[-1.0]],
    2: [[-0.5, -1.5], [0.5, -0.5]],
    3: [
        [7 / 6, -1.0, -2 / 3],
        [13 / 6, 0.0, -2 / 3],
        [91 / 24, -7 / 4, -13 / 6],
    ],
    4: [
        [17 / 12, 5 / 24, -5 / 12, -5 / 24],
        [29 / 12, 29 / 24, -5 / 12, -5 / 24],
        [71 / 12, 107 / 24, -23 / 12, -35 / 24],
        [113 / 12, 209 / 24, -17 / 12, -41 / 24],
    ],
    5: [
        [311 / 320, 5 / 16, 1 / 8, -1 / 8, -1 / 20],
        [631 / 320, 21 / 16, 1 / 8, -1 / 8, -1 / 20],
        [3489 / 1280, 387 / 64, 71 / 32, -39 / 32, -39 / 80],
        [2227 / 640, 377 / 32, 101 / 16, -21 / 16, -37 / 40],
        [10651 / 5120, 10865 / 256, 2941 / 128, -1021 / 128, -1341 / 320],
    ],
}
MAP_OFFSET = {
    1: [0.0],
    2: [1.0, 1.0],
    3: [5 / 4, 5 / 4, 35 / 16],
    4: [1.0, 1.0, 1.0, 1.0],
    5: [119 / 128, 119 / 128, 161 / 512, -77 / 256, -12901 / 2048],
}

PARAMAGNET = {
    1: [0.0],
    2: [0.0, 2 / 3],
    3: [0.0, 5 / 4, 0.0],
    4: [0.0, 2.0, 0.0, 34 / 5],
    5: [0.0, 35 / 12, 0.0, 707 / 48, 0.0],
}


# --- 1. printed tables ---


@pytest.mark.parametrize("twice_l", ALL_FIVE)
def test_weight_inversion_matches_printed_rows(twice_l):
    """b + M m reproduces the package chart inverse on random weights."""
    l = SpinQuantum(twice_l)
    mat = np.array(INV_MATRIX[twice_l])
    off = np.array(INV_OFFSET[twice_l])
    rng = np.random.default_rng(twice_l)
    x = random_weights(l, rng, n=50)
    m = weights_to_moments_array(l, x)
    np.testing.assert_allclose(off + m @ mat.T, x, atol=1e-10)


@pytest.mark.parametrize("twice_l", ALL_FIVE)
def test_shift_map_matches_printed_rows(twice_l):
    amap = permutation_map_m(SpinQuantum(twice_l))
    np.testing.assert_allclose(amap.matrix, MAP_MATRIX[twice_l], atol=1e-10)
    np.testing.assert_allclose(amap.offset, MAP_OFFSET[twice_l], atol=1e-10)


@pytest.mark.parametrize("twice_l", ALL_FIVE)
def test_paramagnet_moments(twice_l):
    l = SpinQuantum(twice_l)
    np.testing.assert_allclose(
        paramagnet_moments(l).values, PARAMAGNET[twice_l], atol=1e-12
    )
    # uniform weights give the same thing
    uni = WeightVector(l, np.full(l.n_states, 1.0 / l.n_states))
    np.testing.assert_allclose(
        weights_to_moments(uni).values, PARAMAGNET[twice_l], atol=1e-12
    )


# --- 2. three-state worked example ---


def test_three_state_worked_example():
    l = SpinQuantum(2)
    x = WeightVector(l, (0.25, 0.25, 0.5))
    m = weights_to_moments(x)
    np.testing.assert_allclose(m.values, [0.25, 0.75], atol=1e-14)

    m1 = permutation_map_m(l).apply(m)
    np.testing.assert_allclose(m1.values, [-0.25, 0.75], atol=1e-14)

    # weights cycle one slot up: the sigma=+1 population moves to sigma=-1
    x1 = permutation_map_x(x)
    np.testing.assert_allclose(x1.weights, [0.5, 0.25, 0.25], atol=1e-14)
    np.testing.assert_allclose(x1.weights, np.roll(x.weights, 1), atol=1e-14)


def test_three_state_double_shift_closed_form():
    l = SpinQuantum(2)
    amap = permutation_map_m(l)
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.dirichlet(np.ones(3))
        m1, m2 = weights_to_moments_array(l, x[None, :])[0]
        out = amap.apply(amap.apply(MomentVector(l, (m1, m2)))).values
        assert abs(out[0] - (-1.0 - 0.5 * m1 + 1.5 * m2)) < 1e-12
        assert abs(out[1] - (1.0 - 0.5 * m1 - 0.5 * m2)) < 1e-12


# --- 3. group structure on random points ---


@pytest.mark.parametrize("twice_l", ALL_FIVE)
def test_shift_conjugates_weight_roll(twice_l):
    l = SpinQuantum(twice_l)
    amap = permutation_map_m(l)
    rng = np.random.default_rng(20 + twice_l)
    x = random_weights(l, rng, n=200)
    m = weights_to_moments_array(l, x)
    mapped = m @ np.asarray(amap.matrix).T + np.asarray(amap.offset)
    rolled = weights_to_moments_array(l, np.roll(x, 1, axis=1))
    np.testing.assert_allclose(mapped, rolled, atol=1e-9)


@pytest.mark.parametrize("twice_l", ALL_FIVE)
def test_shift_map_order(twice_l):
    # 2l+1 applications come back to the start
    l = SpinQuantum(twice_l)
    amap = permutation_map_m(l)
    rng = np.random.default_rng(40 + twice_l)
    x = random_weights(l, rng, n=100)
    m = weights_to_moments_array(l, x)
    cur = m.copy()
    for _ in range(l.n_states):
        cur = cur @ np.asarray(amap.matrix).T + np.asarray(amap.offset)
    assert np.max(np.abs(cur - m)) < 1e-9


@pytest.mark.parametrize("twice_l", ALL_FIVE)
def test_paramagnet_is_fixed_point(twice_l):
    l = SpinQuantum(twice_l)
    pm = paramagnet_moments(l)
    out = permutation_map_m(l).apply(pm)
    assert np.max(np.abs(out.values - pm.values)) < 1e-10


@pytest.mark.parametrize("twice_l", ALL_FIVE)
def test_roundtrip(twice_l):
    l = SpinQuantum(twice_l)
    rng = np.random.default_rng(60 + twice_l)
    x = random_weights(l, rng, n=1000)
    m = weights_to_moments_array(l, x)
    back = moments_to_weights_array(l, m)
    assert np.max(np.abs(back - x)) < 1e-9
    again = weights_to_moments_array(l, back)
    assert np.max(np.abs(again - m)) < 1e-9


def _chart_round_trip_error(twice_l):
    """Largest |x - x'| over x -> m -> x' for 2000 random points and the vertices."""
    l = SpinQuantum(twice_l)
    x = np.vstack([random_weights(l, np.random.default_rng(80 + twice_l), 2000),
                   np.eye(l.n_states)])
    return np.max(np.abs(moments_to_weights_array(l, weights_to_moments_array(l, x)) - x))


@pytest.mark.parametrize("twice_l", range(1, CHART_ROUND_TRIP_TWICE_L + 1))
def test_chart_round_trip_within_feasibility_tol(twice_l):
    assert _chart_round_trip_error(twice_l) < FEASIBILITY_TOL


def test_chart_round_trip_limit_is_tight():
    # one step past the quoted limit the round trip misses the tolerance
    assert _chart_round_trip_error(CHART_ROUND_TRIP_TWICE_L + 1) > FEASIBILITY_TOL


def test_moment_orbit_vertices():
    """The orbit of a vertex runs through all 2l+1 vertices, cyclically."""
    l = SpinQuantum(4)
    sig = spectrum_array(l)
    start = MomentVector(l, [2.0**k for k in range(1, 5)])  # sigma = +2 vertex
    orb = moment_orbit(start)
    assert len(orb) == 5
    np.testing.assert_allclose(orb[0].values, start.values, atol=1e-12)
    # image i is the vertex at sigma shifted i times (+2 -> -2 -> -1 -> 0 -> 1)
    expect = [2.0, -2.0, -1.0, 0.0, 1.0]
    for i, mv in enumerate(orb):
        vertex = [expect[i] ** k for k in range(1, 5)]
        np.testing.assert_allclose(mv.values, vertex, atol=1e-8)


# --- 4. feasibility ---


def test_feasibility_violations_reported():
    l = SpinQuantum(2)
    ok, violations = feasibility(MomentVector(l, (0.5, 0.2)))
    assert not ok
    assert violations  # x_{-1} = (0.2 - 0.5)/2 < 0
    sigmas = [v[0] for v in violations]
    assert Fraction(-1) in sigmas

    ok, violations = feasibility(MomentVector(l, (0.25, 0.75)))
    assert ok and violations == []


@pytest.mark.parametrize("weights", [(np.nan, 0.5, 0.5), (np.inf, 0.5, 0.5),
                                     (0.5, -np.inf, 0.5)])
def test_weight_vector_rejects_non_finite(weights):
    with pytest.raises(ValueError, match="finite"):
        WeightVector(SpinQuantum(2), weights)


def test_moment_vector_copies_the_callers_array():
    a = np.array([0.1, 0.7])
    m = MomentVector(SpinQuantum(2), a)
    a[0] = 0.2  # the caller's array stays writable
    assert m.values.tolist() == [0.1, 0.7]
    assert not m.values.flags.writeable


def test_moments_to_weights_raises_outside_simplex():
    l = SpinQuantum(2)
    with pytest.raises(InfeasibleMoments):
        moments_to_weights(MomentVector(l, (0.5, 0.2)))
    x = moments_to_weights(MomentVector(l, (0.25, 0.75)))
    np.testing.assert_allclose(x.weights, [0.25, 0.25, 0.5], atol=1e-12)


def test_four_state_moment_bounds():
    """Printed feasibility corollaries for the four-state chain."""
    l = SpinQuantum(3)
    rng = np.random.default_rng(11)
    x = random_weights(l, rng, n=500)
    m = weights_to_moments_array(l, x)
    m1, m2, m3 = m[:, 0], m[:, 1], m[:, 2]
    assert np.all(m2 >= 0.25 - 1e-12) and np.all(m2 <= 2.25 + 1e-12)
    assert np.all(np.abs(m1) <= m2 / 2.0 + 3.0 / 8.0 + 1e-12)
    assert np.all(np.abs(m3) <= (13.0 / 8.0) * m2 - 9.0 / 32.0 + 1e-12)
    # and the lower m2 bound is sharp: m2 < 1/4 is rejected
    ok, _ = feasibility(MomentVector(l, (0.0, 0.2, 0.0)))
    assert not ok


def test_random_weights_determinism_and_shape():
    l = SpinQuantum(5)
    a = random_weights(l, np.random.default_rng(123), n=4)
    b = random_weights(l, np.random.default_rng(123), n=4)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4, 6)
    assert np.all(a >= 0.0)
    np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
