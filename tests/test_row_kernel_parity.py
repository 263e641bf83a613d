"""The finite-N row kernel against a reference copy of the one it replaced.

reference_block_rows, reference_phi and reference_energy are the row
kernel as it stood before ln G was summed by columns and zero terms were
left out: ln G through ln_fact.take(c).sum(axis=1), phi as the full
four-term polynomial, and the energy as phi(A) + x @ b.  Every result
must keep its bits, the sign of a zero included.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from curieweiss import (
    ModelParams,
    SpinQuantum,
    canonical_sums,
    enumerate_ensemble,
    free_energy_batch,
    raw_config_free_energy,
)
from curieweiss import oracle
from curieweiss._numerics import ln_factorial
from curieweiss.oracle import _compositions
from curieweiss.order_params import weights_to_moments_array
from curieweiss.spectrum import spectrum
from curieweiss.thermo import _column_sum, _Kernel, _mean_phase


def reference_block_rows(c, n_spins, ln_fact, kernel):
    log_g = ln_fact[n_spins] - ln_fact.take(c).sum(axis=1)
    x = c / n_spins
    if kernel is None:
        return x, log_g, None, None
    energy = kernel.energy(x)
    return x, log_g, energy, log_g - n_spins * energy / kernel.params.temperature


def reference_phi(kernel, a):
    pr = kernel.params
    return -(pr.j2 / 2) * a - (pr.j4 / 4) * a**2 \
        - (pr.j6 / 6) * a**3 - (pr.j8 / 8) * a**4


def reference_energy(kernel, x):
    return reference_phi(kernel, _mean_phase(kernel.table, x)[1]) + x @ kernel.b


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- ln G by columns ---


@pytest.mark.parametrize("d", range(2, 22))
def test_column_sum_keeps_numpys_row_sum_bits(d):
    # real composition tables, from 2 to 21 levels; n_spins as large as
    # keeps the table small, and past numpy's eight-term threshold
    n_spins = max(n for n in range(1, 200) if math.comb(n + d - 1, d - 1) <= 60_000)
    c = _compositions(n_spins, d)
    ln_fact = ln_factorial(np.arange(n_spins + 1))
    got = _column_sum(lambda k: ln_fact.take(c[:, k]), range(d))
    assert same_bits(got, ln_fact.take(c).sum(axis=1))


@pytest.mark.parametrize("d", [129, 200, 256, 300, 513])
def test_column_sum_past_numpys_block(d):
    # past 128 terms numpy splits the row in halves at a multiple of 8
    a = np.random.default_rng(d).standard_normal((500, d))
    assert same_bits(_column_sum(lambda k: a[:, k].copy(), range(d)), a.sum(axis=1))


# --- zero terms in phi and a zero b ---


def _points():
    rng = np.random.default_rng(7)
    return np.concatenate([[0.0, 5e-324], rng.uniform(size=50), [1.0]])


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("pattern", list(itertools.product((False, True), repeat=4)))
def test_phi_without_zero_terms_keeps_its_bits(pattern, zero):
    rng = np.random.default_rng(sum(2**i for i, on in enumerate(pattern)))
    couplings = {name: float(rng.uniform(-1.0, 1.0)) if on else zero
                 for name, on in zip(("j2", "j4", "j6", "j8"), pattern)}
    kernel = _Kernel(ModelParams(SpinQuantum(2), 0.3, **couplings))
    a = _points()
    assert same_bits(kernel.phi(a), reference_phi(kernel, a))
    for point in a:   # the scalar path of a single evaluation
        assert same_bits(kernel.phi(float(point)), reference_phi(kernel, float(point)))


@pytest.mark.parametrize("pattern", list(itertools.product((False, True), repeat=4)))
def test_energy_with_zero_b_keeps_its_bits(pattern):
    rng = np.random.default_rng(sum(2**i for i, on in enumerate(pattern)))
    couplings = {name: float(rng.uniform(-1.0, 1.0)) if on else 0.0
                 for name, on in zip(("j2", "j4", "j6", "j8"), pattern)}
    kernel = _Kernel(ModelParams(SpinQuantum(4), 0.3, **couplings))
    assert not kernel.b.any()
    x = np.vstack([np.eye(5), np.full((1, 5), 0.2), rng.dirichlet(np.ones(5), size=40)])
    got = kernel.energy(x)
    assert same_bits(got, reference_energy(kernel, x))
    if not any(pattern):
        # phi is -0.0 on every row, and the energy the +0.0 that x @ b gave
        assert same_bits(kernel.phi(_mean_phase(kernel.table, x)[1]), np.full(len(x), -0.0))
        assert same_bits(got, np.zeros(len(x)))


# --- whole results against the reference kernel ---


def sweep(seed, count):
    """count configurations: 2l cycling through 1..12, each of J2..J8 uniform in
    [-1, 1] kept with probability 0.5 (none kept is allowed), T uniform in
    [0.1, 1]; every third adds g in [0, 0.2] in a random sector, and at
    2l = 2 h0 in [-0.2, 0.2] is set with probability 0.5.  N is the largest
    with at most 4e4 compositions, capped at 60, and the raw N the largest
    with at most 2e4 configurations."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        twice_l = 1 + case % 12
        l = SpinQuantum(twice_l)
        kw = {key: float(rng.uniform(-1.0, 1.0)) for key in ("j2", "j4", "j6", "j8")
              if rng.uniform() < 0.5}
        if case % 3 == 0:
            kw["g"] = float(rng.uniform(0.0, 0.2))
            kw["sector"] = Fraction(rng.choice(spectrum(l)))
        if twice_l == 2 and rng.uniform() < 0.5:
            kw["h0"] = float(rng.uniform(-0.2, 0.2))
        params = ModelParams(l, float(rng.uniform(0.1, 1.0)), **kw)
        d = l.n_states
        n_spins = max(n for n in range(1, 61) if math.comb(n + d - 1, d - 1) <= 40_000)
        n_raw = max(n for n in range(1, 20) if d**n <= 20_000)
        yield params, n_spins, n_raw


def _results(params, n_spins, n_raw):
    f_n, moments = canonical_sums(params, n_spins)
    ens = enumerate_ensemble(params.l, n_spins, params)
    free = enumerate_ensemble(params.l, n_spins)
    # grid points at random weights, a tenth of them pushed off the simplex
    rng = np.random.default_rng(n_spins)
    m = weights_to_moments_array(params.l, rng.dirichlet(np.ones(params.l.n_states), 3000))
    m[::10] += rng.normal(scale=0.5, size=m[::10].shape)
    return [np.float64(f_n), moments, ens.counts, ens.log_degeneracy, ens.moments,
            ens.energy, ens.log_weight, free.log_degeneracy,
            np.float64(raw_config_free_energy(params, n_raw)), *free_energy_batch(params, m)]


@pytest.mark.parametrize("params, n_spins, n_raw", list(sweep(20, 60)))
def test_row_kernel_keeps_every_bit(params, n_spins, n_raw, monkeypatch):
    got = _results(params, n_spins, n_raw)
    monkeypatch.setattr(oracle, "_block_rows", reference_block_rows)
    monkeypatch.setattr(_Kernel, "phi", reference_phi)
    monkeypatch.setattr(_Kernel, "energy", reference_energy)
    want = _results(params, n_spins, n_raw)
    for g, w in zip(got, want):
        assert same_bits(g, w)
