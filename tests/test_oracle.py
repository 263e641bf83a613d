"""Exact finite-size enumeration against closed identities and brute force."""

import itertools
import math
import tracemalloc
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
    canonical_sums,
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
from curieweiss.oracle import _compositions
from curieweiss.order_params import _charts
from curieweiss.thermo import _CHUNK, _Kernel

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


@pytest.mark.parametrize(
    "n,dtype", [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)]
)
def test_compositions_at_count_type_boundaries(n, dtype):
    # the narrowest signed type that holds N: 128 must not wrap to -128, and
    # differences of counts must not wrap either
    counts = _compositions(n, 2)
    assert counts.dtype == dtype
    np.testing.assert_array_equal(counts, np.array(list(_colex_compositions(n, 2))))
    assert (counts.astype(np.int64).sum(axis=1) == n).all()
    assert counts.min() >= 0


@pytest.mark.parametrize("n,d", [(128, 3), (6, 8), (5, 13), (1, 21)])
def test_compositions_row_for_row(n, d):
    expected = np.array(list(_colex_compositions(n, d)))
    np.testing.assert_array_equal(_compositions(n, d), expected)


def _table_by_rows(ens):
    """The table's float arrays by the row-wise formulas on int64 counts,
    in one unchunked pass."""
    n, params = ens.n_spins, ens.params
    counts = ens.counts.astype(np.int64)
    kernel = _Kernel(params)
    x = counts / n
    pq = x @ kernel.table
    energy = kernel.phi((pq * pq).sum(axis=-1)) + x @ kernel.b
    log_g = gammaln(n + 1.0) - gammaln(counts + 1.0).sum(axis=1)
    return {
        "log_degeneracy": log_g,
        "moments": x @ _charts(params.l.twice_l)[0][:, 1:],
        "energy": energy,
        "log_weight": log_g - n * energy / params.temperature,
    }


def _coupled_params(twice_l):
    l = SpinQuantum(twice_l)
    sector = Fraction(2 * (twice_l // 3) - twice_l, 2)
    kinds = [
        ModelParams(l, temperature=0.3, j2=0.4, j4=-0.7),
        ModelParams(l, temperature=0.21, j2=-0.3, j4=0.9, j6=-0.6, j8=0.8),
        ModelParams(l, temperature=0.37, j2=0.5, j4=0.3, j6=0.2, j8=-0.9,
                    g=0.13, sector=sector),
    ]
    if twice_l == 2:
        kinds.append(ModelParams(l, temperature=0.3, j4=1.0, h0=0.17))
        kinds.append(ModelParams(l, temperature=0.3, j2=0.2, j8=0.5, h0=-0.2,
                                 g=0.1, sector=Fraction(1)))
    return kinds


@pytest.mark.parametrize("twice_l", range(1, 13))
def test_tables_keep_their_bits(twice_l):
    # every array of a one-chunk table, bit for bit, against the formulas
    d = twice_l + 1
    n_one = max(n for n in range(1, 200) if math.comb(n + d - 1, d - 1) <= _CHUNK)
    for params in _coupled_params(twice_l):
        for n in (1, 5, n_one):
            ens = enumerate_ensemble(params.l, n, params)
            for name, want in _table_by_rows(ens).items():
                got = getattr(ens, name)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, name)


@pytest.mark.parametrize("twice_l,n", [(1, 40_000), (2, 300), (7, 13)])
def test_tables_over_many_chunks(twice_l, n):
    # log_degeneracy keeps its bits across chunks (at 2l = 7 numpy's row sum
    # of the d = 8 log-factorials is pairwise: summing them column by column
    # changes some); a BLAS product's last bit can depend on where its
    # threads split the rows, so the other arrays are held to roundoff
    params = _coupled_params(twice_l)[-1]
    ens = enumerate_ensemble(params.l, n, params)
    assert ens.size > _CHUNK
    want = _table_by_rows(ens)
    assert np.array_equal(ens.log_degeneracy.view(np.int64),
                          want.pop("log_degeneracy").view(np.int64))
    for name, values in want.items():
        np.testing.assert_allclose(getattr(ens, name), values, rtol=1e-12, atol=1e-12)


def test_enumeration_peak_memory_near_table_size():
    l = SpinQuantum(6)
    params = ModelParams(l, temperature=0.3, j4=1.0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        ens = enumerate_ensemble(l, 20, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = sum(a.nbytes for a in (ens.counts, ens.log_degeneracy, ens.moments,
                                   ens.energy, ens.log_weight))
    assert peak <= 1.3 * table, peak / table


def _traced_peak(fn):
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_composition_build_peak_memory():
    # int32 node arrays: the build holds the int8 table plus about two
    # int32 columns (it held four int64 ones, 4.3x the table)
    counts, peak = _traced_peak(lambda: _compositions(20, 7))
    assert counts.dtype == np.int8
    assert peak <= 3.0 * counts.nbytes, peak / counts.nbytes


def test_canonical_sums_peak_memory():
    # the streaming sums hold the counts and one float per row, plus
    # block-sized temporaries, far below the full table
    l = SpinQuantum(6)
    params = ModelParams(l, temperature=0.3, j4=1.0)
    _, peak = _traced_peak(lambda: canonical_sums(params, 20))
    ens = enumerate_ensemble(l, 20, params)
    stream = ens.counts.nbytes + 8 * ens.size
    table = sum(a.nbytes for a in (ens.counts, ens.log_degeneracy, ens.moments,
                                   ens.energy, ens.log_weight))
    assert peak <= 2.0 * stream, peak / stream
    assert peak <= table / 3, peak / table


def _raw_free_energy_dense(params, n_spins):
    """Every configuration materialised at once, as np.indices lays it out."""
    d = params.l.n_states
    cfg = np.indices((d,) * n_spins).reshape(n_spins, -1).T
    x = np.stack([(cfg == j).sum(axis=1) for j in range(d)], axis=1) / n_spins
    e = _Kernel(params).energy(x)
    t = params.temperature
    return float(-(t / n_spins) * logsumexp(-n_spins * e / t))


@pytest.mark.parametrize("twice_l, n_spins, extra", [
    (6, 6, {}),
    (1, 16, {}),
    (2, 10, {"h0": 0.1}),
    (4, 7, {"g": 0.1, "sector": Fraction(1)}),
    (3, 2, {"j6": 0.2}),
])
def test_raw_configuration_sum_keeps_its_bits(twice_l, n_spins, extra):
    # counts built one spin at a time and energies by blocks: the same rows,
    # in the same order, with the same sum as the dense build
    params = ModelParams(SpinQuantum(twice_l), temperature=0.3, j2=0.2, j4=1.0,
                         **extra)
    assert params.l.n_states**n_spins > 2 * _CHUNK or n_spins == 2
    assert raw_config_free_energy(params, n_spins) == \
        _raw_free_energy_dense(params, n_spins)


def test_raw_configuration_peak_memory():
    # 823 543 configurations: int8 counts and one float each (12.4 MB) plus
    # block temporaries; the dense build peaked at 138 MB
    params = ModelParams(SpinQuantum(6), temperature=0.3, j4=1.0)
    _, peak = _traced_peak(lambda: raw_config_free_energy(params, 7))
    assert peak < 30e6, peak


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


# (2l, N, T) of bare-magnet tables (j4 = 1): one block or many, with
# whole orbits tied at the maximum log-weight or a single maximum
_REDUCTION_CASES = {
    "one-block, 2 tied": (1, 41, 0.3, 2),
    "one-block, 4 tied": (3, 40, 0.2, 4),
    "one-block, 1 max": (2, 50, 0.2, 1),
    "blocks, 2 tied": (1, 40_000, 0.3, 2),
    "blocks, 5 tied": (6, 16, 0.3, 5),
    "blocks, 1 max": (2, 300, 0.2, 1),
}


@pytest.mark.parametrize("case", _REDUCTION_CASES)
def test_reductions_keep_their_bits(case):
    twice_l, n, t, n_max = _REDUCTION_CASES[case]
    l = SpinQuantum(twice_l)
    ens = enumerate_ensemble(l, n, ModelParams(l, temperature=t, j4=1.0))
    assert (ens.size > _CHUNK) == case.startswith("blocks")
    assert np.count_nonzero(ens.log_weight == ens.log_weight.max()) == n_max
    want = float(-(t / n) * logsumexp(ens.log_weight))
    assert exact_free_energy(ens) == want
    w = np.exp(ens.log_weight - ens.log_weight.max())
    got, old = thermal_moments(ens), (w @ ens.moments) / w.sum()
    if ens.size <= _CHUNK:
        assert np.array_equal(got, old)
    else:   # summed block by block: roundoff
        np.testing.assert_allclose(got, old, rtol=1e-12, atol=1e-12)
    f_n, moments = canonical_sums(ens.params, n)
    assert f_n == want
    assert np.array_equal(moments, got)


def test_free_energy_keeps_scipys_bits_on_small_tables():
    # on small tables ln Z is not dominated by its maximum term, so its last
    # bits show how the sum was formed: ln(sum exp(a - max)) + max differs
    # from scipy's log1p form in about one case of eight here
    rng = np.random.default_rng(5)
    for _ in range(200):
        twice_l, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        l = SpinQuantum(twice_l)
        params = ModelParams(l, temperature=float(rng.uniform(0.05, 1.0)),
                             j2=float(rng.uniform(-1, 1)), j4=float(rng.uniform(-1, 1)),
                             h0=float(rng.uniform(-1, 1)) if twice_l == 2 else 0.0)
        ens = enumerate_ensemble(l, n, params)
        want = float(-(params.temperature / n) * logsumexp(ens.log_weight))
        assert exact_free_energy(ens) == want, (params, n)
        assert canonical_sums(params, n)[0] == want, (params, n)


@pytest.mark.parametrize("twice_l", range(1, 13))
def test_canonical_sums_match_the_table(twice_l):
    d = twice_l + 1
    n_one = max(n for n in range(1, 200) if math.comb(n + d - 1, d - 1) <= _CHUNK)
    sizes = (1, 5, n_one, n_one + 1) if twice_l <= 6 else (1, 5, n_one)
    for params in _coupled_params(twice_l):
        for n in sizes:
            ens = enumerate_ensemble(params.l, n, params)
            f_n, moments = canonical_sums(params, n)
            assert f_n == exact_free_energy(ens), (params, n)
            np.testing.assert_allclose(moments, thermal_moments(ens),
                                       rtol=1e-12, atol=1e-12)


def test_canonical_sums_refuse_before_allocating():
    params = ModelParams(SpinQuantum(1), temperature=0.3, j4=1.0)
    assert math.comb(2_000_000 + 1, 1) > MAX_COMPOSITIONS

    def refused():
        with pytest.raises(EnsembleTooLarge):
            canonical_sums(params, 2_000_000)

    _, peak = _traced_peak(refused)
    assert peak < 1 << 20, peak
    with pytest.raises(ValueError, match="n_spins must be positive"):
        canonical_sums(params, 0)


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


def test_composition_helpers_need_an_integer_n():
    # a fractional N has no composition; numpy integers are integers
    w = np.array([0.2, 0.3, 0.5])
    for n in (2.5, 10.0, np.float64(10.0), "10"):
        with pytest.raises(ValueError):
            nearest_composition(n, w)
        with pytest.raises(ValueError):
            stirling_entropy_error(L1, n, w)
    np.testing.assert_array_equal(nearest_composition(np.int64(10), w), [2, 3, 5])
    assert stirling_entropy_error(L1, np.int32(10), w) == stirling_entropy_error(L1, 10, w)


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
