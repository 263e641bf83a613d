"""Exact finite-size enumeration against closed identities and brute force."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from curieweiss import (
    EnsembleTooLarge,
    MAX_COMPOSITIONS,
    ModelParams,
    MomentVector,
    SpinQuantum,
    enumerate_ensemble,
    exact_free_energy,
    free_energy,
    meanfield_m2,
    nearest_composition,
    paramagnet_gaussian_check,
    raw_config_free_energy,
    stirling_entropy_error,
    thermal_moments,
)

L1 = SpinQuantum(2)


def three_state_energy(params, m1, m2):
    """Hand-coded per-spin energy of the three-state model."""
    p = 1.0 - 1.5 * m2
    q = (math.sqrt(3.0) / 2.0) * m1
    a = p * p + q * q
    u = -(
        params.j2 / 2.0 * a
        + params.j4 / 4.0 * a**2
        + params.j6 / 6.0 * a**3
        + params.j8 / 8.0 * a**4
    )
    if params.g:
        s = float(params.sector)
        u -= params.g * ((1.0 - 1.5 * s * s) * (1.0 - 1.5 * m2) + 0.75 * s * m1)
    u += params.h0 * (1.0 - m2)
    return u


def config_sum_free_energy(params, n):
    """Brute force over all (2l+1)^n raw configurations, three-state only."""
    logs = []
    for cfg in itertools.product((-1, 0, 1), repeat=n):
        arr = np.array(cfg, dtype=float)
        m1 = arr.mean()
        m2 = (arr**2).mean()
        logs.append(-n * three_state_energy(params, m1, m2) / params.temperature)
    return -params.temperature * logsumexp(np.array(logs)) / n


# --- 1. enumeration structure ---


def test_composition_table_three_states():
    ens = enumerate_ensemble(L1, 4)
    assert ens.counts.shape == (15, 3)
    assert ens.moments.shape == (15, 2)
    np.testing.assert_array_equal(ens.counts.sum(axis=1), 4)
    row = np.flatnonzero((ens.counts == (1, 1, 2)).all(axis=1))
    assert row.size == 1
    # 4! / (1! 1! 2!)
    assert abs(math.exp(ens.log_degeneracy[row[0]]) - 12.0) < 1e-9


def _colex_compositions(n, d):
    """Compositions of n into d parts by recursion, the last part slowest."""
    if d == 1:
        yield (n,)
        return
    for last in range(n + 1):
        for head in _colex_compositions(n - last, d - 1):
            yield head + (last,)


@pytest.mark.parametrize(
    "twice_l,n", [(1, 1), (1, 17), (2, 9), (4, 6), (9, 1), (9, 5), (20, 3)]
)
def test_rows_in_colexicographic_order(twice_l, n):
    ens = enumerate_ensemble(SpinQuantum(twice_l), n)
    expected = np.array(list(_colex_compositions(n, twice_l + 1)))
    np.testing.assert_array_equal(ens.counts, expected)
    # bit for bit; at 2l = 9 numpy's row sum over d >= 8 columns unrolls
    ln_g = gammaln(n + 1) - gammaln(ens.counts + 1.0).sum(axis=1)
    assert np.array_equal(ens.log_degeneracy, ln_g)


def test_composition_counts():
    assert enumerate_ensemble(SpinQuantum(4), 3).counts.shape[0] == 35
    assert enumerate_ensemble(SpinQuantum(1), 10).counts.shape[0] == 11
    assert enumerate_ensemble(SpinQuantum(3), 5).counts.shape[0] == math.comb(8, 3)


@pytest.mark.parametrize(
    "twice_l,n", [(2, 9), (3, 6), (4, 5), (5, 4), (1, 40)]
)
def test_degeneracies_sum_to_state_count_power(twice_l, n):
    l = SpinQuantum(twice_l)
    ens = enumerate_ensemble(l, n)
    total = logsumexp(ens.log_degeneracy)
    assert abs(total - n * math.log(l.n_states)) < 1e-9 * n


def test_size_guard():
    with pytest.raises(EnsembleTooLarge):
        enumerate_ensemble(SpinQuantum(5), 100)
    assert math.comb(105, 5) > MAX_COMPOSITIONS
    # the documented cap is 2e6 rows: 9.4e6 compositions are refused
    assert MAX_COMPOSITIONS == 2_000_000
    with pytest.raises(EnsembleTooLarge):
        enumerate_ensemble(SpinQuantum(6), 40)


@pytest.mark.parametrize("n_spins", [0, -1])
def test_ensembles_refuse_nonpositive_sizes(n_spins):
    pr = ModelParams(L1, temperature=0.3, j4=1.0)
    with pytest.raises(ValueError, match="n_spins must be positive"):
        enumerate_ensemble(L1, n_spins)
    with pytest.raises(ValueError, match="n_spins must be positive"):
        raw_config_free_energy(pr, n_spins)


def test_needs_params_for_thermodynamics():
    ens = enumerate_ensemble(L1, 4)
    assert ens.params is None and ens.log_weight is None
    with pytest.raises(ValueError):
        exact_free_energy(ens)
    with pytest.raises(ValueError):
        thermal_moments(ens)


# --- 2. free-energy identities ---


def test_free_ensemble_value():
    # J = g = 0 collapses to pure counting: F = -T log(2l+1)
    for twice_l, n in ((2, 7), (3, 5), (5, 3)):
        l = SpinQuantum(twice_l)
        pr = ModelParams(l, temperature=0.37)
        got = exact_free_energy(enumerate_ensemble(l, n, params=pr))
        assert abs(got - (-0.37 * math.log(l.n_states))) < 1e-12


def test_composition_sum_equals_raw_configurations():
    pr = ModelParams(
        L1, temperature=0.35, j2=0.2, j4=1.0, j6=0.05, j8=0.02,
        g=0.15, sector=Fraction(1), h0=0.1,
    )
    for n in (2, 3, 5, 6):
        via_compositions = exact_free_energy(enumerate_ensemble(L1, n, params=pr))
        via_raw = raw_config_free_energy(pr, n)
        via_test = config_sum_free_energy(pr, n)
        assert abs(via_compositions - via_raw) < 1e-12 * abs(via_raw)
        assert abs(via_compositions - via_test) < 1e-12 * abs(via_test)


def test_raw_check_at_largest_allowed_size():
    pr = ModelParams(L1, temperature=0.25, j4=1.0)
    a = exact_free_energy(enumerate_ensemble(L1, 8, params=pr))
    b = raw_config_free_energy(pr, 8)
    assert abs(a - b) < 1e-12 * abs(b)


def test_finite_size_approaches_the_minimizer():
    pr = ModelParams(L1, temperature=0.2, j4=1.0)
    f_inf = free_energy(pr, MomentVector(L1, (0.0, meanfield_m2(pr)))).free_energy
    gaps = []
    for n in (50, 100, 200, 400):
        f_n = exact_free_energy(enumerate_ensemble(L1, n, params=pr))
        assert f_n < f_inf  # finite sum includes every basin
        gaps.append(f_inf - f_n)
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert gaps[3] < 0.25 * gaps[0]
    assert gaps[3] < 0.01
    # log N / N envelope with a modest constant
    for n, gap in zip((50, 100, 200, 400), gaps):
        assert gap < 1.0 * math.log(n) / n


# --- 3. thermal averages ---


def test_shift_symmetry_pins_second_moment():
    """With g = 0 every orbit of the cyclic shift averages m2 to exactly 2/3."""
    for n in (3, 10, 50):
        pr = ModelParams(L1, temperature=0.2, j2=0.1, j4=1.0)
        tm = thermal_moments(enumerate_ensemble(L1, n, params=pr))
        assert abs(tm[0]) < 1e-12
        assert abs(tm[1] - 2.0 / 3.0) < 1e-12


def test_coupled_thermal_average_tracks_sector_minimum():
    pr = ModelParams(L1, temperature=0.2, j4=1.0, g=0.2, sector=Fraction(0))
    tm = thermal_moments(enumerate_ensemble(L1, 400, params=pr))
    assert abs(tm[0]) < 0.02
    assert abs(tm[1] - meanfield_m2(pr)) < 0.02


def test_free_fluctuation_variances():
    # uniform ensemble: Var(m1) = 2/(3N), Var(m2) = 2/(9N), exactly
    n = 1000
    ens = enumerate_ensemble(L1, n)
    w = np.exp(ens.log_degeneracy - logsumexp(ens.log_degeneracy))
    mean = w @ ens.moments
    assert abs(mean[0]) < 1e-12
    assert abs(mean[1] - 2.0 / 3.0) < 1e-12
    var = w @ (ens.moments - mean) ** 2
    assert abs(var[0] - 2.0 / (3.0 * n)) < 0.02 * 2.0 / (3.0 * n)
    assert abs(var[1] - 2.0 / (9.0 * n)) < 0.02 * 2.0 / (9.0 * n)
    # the identities are exact, the 2% headroom is just the stated bar
    assert abs(var[0] - 2.0 / (3.0 * n)) < 1e-9 / n
    assert abs(var[1] - 2.0 / (9.0 * n)) < 1e-9 / n


# --- 4. composition helpers ---


def test_nearest_composition_rounding():
    got = nearest_composition(8, np.array([0.25, 0.25, 0.5]))
    np.testing.assert_array_equal(got, [2, 2, 4])
    for n in (3, 7, 11):
        c = nearest_composition(n, np.array([0.3, 0.41, 0.29]))
        assert c.sum() == n
        assert np.all(c >= 0)
    # weights off the simplex, and N = 0, have no composition to round to
    for n, w in ((10, [0.6, 0.6]), (10, [1.2, -0.2]), (10, [np.nan, 1.0]),
                 (10, [np.inf, 1.0]), (0, [0.5, 0.5])):
        with pytest.raises(ValueError):
            nearest_composition(n, np.array(w))


def test_stirling_error_decays():
    x = np.array([0.25, 0.25, 0.5])
    errs = [stirling_entropy_error(L1, n, x) for n in (30, 300, 3000)]
    assert errs[0] > errs[1] > errs[2]
    assert stirling_entropy_error(L1, 400, x) < 0.02
    assert stirling_entropy_error(L1, 100, np.array([0.0, 0.0, 1.0])) == 0.0


def test_paramagnet_gaussian_identity():
    # relative mismatch of the exact quadratic fluctuation identity
    assert paramagnet_gaussian_check(100) < 1e-9
    assert paramagnet_gaussian_check(1000) < 1e-9
    assert paramagnet_gaussian_check(1000) < paramagnet_gaussian_check(100) + 1e-12
    with pytest.raises(ValueError):
        paramagnet_gaussian_check(50)
