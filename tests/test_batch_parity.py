"""The grid path's column passes against copies of the row forms they replaced.

reference_entropy is -(x ln x).sum(axis=-1), and reference_free_energy_batch
is the batch loop with its feasibility test as x.min(axis=-1) >= -tol and
its F as kernel.value with reference_entropy.  free_energy_batch,
run_symmetry_suite and _entropy must keep every bit of these, the sign of
a zero and NaN rows included, on both sides of _COLUMN_ROWS and at widths
2l + 1 = 2..13, past the eight terms where numpy's row sum stops adding
left to right.  free_energy_batch evaluates only the blocks that hold a
feasible point, each of them whole.
"""

from fractions import Fraction

import numpy as np
import pytest

from curieweiss import (
    ModelParams,
    MomentVector,
    SpinQuantum,
    entropy,
    free_energy,
    free_energy_batch,
    run_symmetry_suite,
)
from curieweiss import properties, thermo
from curieweiss.order_params import FEASIBILITY_TOL, weights_to_moments_array
from curieweiss.spectrum import spectrum
from curieweiss.thermo import _CHUNK, _COLUMN_ROWS, _EMPTY, _blocks, _entropy, _Kernel


def reference_entropy(x):
    return -(x * np.log(np.maximum(x, _EMPTY))).sum(axis=-1)


def reference_free_energy_batch(params, m):
    m = np.asarray(m, dtype=float)
    points = m.reshape(-1, m.shape[-1])
    kernel = _Kernel(params)
    f = np.empty(len(points))
    feasible = np.empty(len(points), bool)
    for rows in _blocks(len(points)):
        x = thermo.moments_to_weights_array(params.l, points[rows])
        feasible[rows] = x.min(axis=-1) >= -FEASIBILITY_TOL
        x = np.clip(x, 0.0, None)
        f[rows] = kernel.energy(x) - params.temperature * reference_entropy(x)
    f[~feasible] = np.nan
    return f.reshape(m.shape[:-1]), feasible.reshape(m.shape[:-1])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def params_for(twice_l):
    """Seeded couplings for one 2l; odd 2l adds a sector coupling."""
    rng = np.random.default_rng(100 + twice_l)
    l = SpinQuantum(twice_l)
    kw = {key: float(rng.uniform(-1.0, 1.0)) for key in ("j2", "j4", "j6", "j8")}
    if twice_l % 2:
        kw["g"] = float(rng.uniform(0.0, 0.2))
        kw["sector"] = Fraction(rng.choice(spectrum(l)))
    return ModelParams(l, float(rng.uniform(0.1, 1.0)), **kw)


def edge_weights(rng, w, n):
    """n weight rows, most on the simplex, with entries exactly at -tol, one
    ulp either side of it, -0.0 and +0.0, NaN entries and rows, and rows of
    only zeros (their x ln x terms are all -0.0)."""
    x = rng.dirichlet(np.ones(w), n)
    tol = FEASIBILITY_TOL
    specials = np.array([-tol, np.nextafter(-tol, 0.0), np.nextafter(-tol, -1.0),
                         -0.0, 0.0, np.nan, 1.0])
    rows = rng.integers(n, size=n // 3)
    x[rows, rng.integers(w, size=rows.size)] = specials[rng.integers(specials.size,
                                                                     size=rows.size)]
    x[1::97] = np.nan
    x[2::89] = 0.0
    x[3::83] = -0.0
    x[4::79, 0] = 1.0
    x[4::79, 1:] = 0.0
    return x


# --- free_energy_batch ---


@pytest.mark.parametrize("twice_l", range(1, 13))
def test_batch_keeps_its_bits_on_moment_grids(twice_l):
    # a full block and a short one: both sides of _COLUMN_ROWS in one call;
    # a tenth of the points pushed off the simplex, some NaN rows
    params = params_for(twice_l)
    rng = np.random.default_rng(twice_l)
    m = weights_to_moments_array(params.l, rng.dirichlet(np.ones(params.l.n_states),
                                                         _CHUNK + 100))
    m[::10] += rng.normal(scale=0.5, size=m[::10].shape)
    m[5::97] = np.nan
    m[6::101, 0] = np.nan
    got, want = free_energy_batch(params, m), reference_free_energy_batch(params, m)
    assert not got[1].all() and got[1].any()
    for g, w in zip(got, want):
        assert same_bits(g, w)


@pytest.mark.parametrize("twice_l", range(1, 13))
def test_batch_keeps_its_bits_at_edge_weights(twice_l, monkeypatch):
    # the chart replaced by the identity on weights, so that the batch sees
    # weights exactly at the feasibility edge, signed zeros and NaN entries
    monkeypatch.setattr(thermo, "moments_to_weights_array", lambda l, m: np.array(m))
    params = params_for(twice_l)
    x = edge_weights(np.random.default_rng(twice_l), params.l.n_states, _CHUNK + 300)
    got, want = free_energy_batch(params, x), reference_free_energy_batch(params, x)
    assert got[1][x.min(axis=1) == -FEASIBILITY_TOL].all()
    assert not got[1][x.min(axis=1) < -FEASIBILITY_TOL].any()
    for g, w in zip(got, want):
        assert same_bits(g, w)


def count_value_calls(monkeypatch):
    calls = []
    value = _Kernel.value
    monkeypatch.setattr(_Kernel, "value", lambda self, x: calls.append(len(x))
                        or value(self, x))
    return calls


@pytest.mark.parametrize("twice_l", [1, 2, 3, 6, 12])
def test_batch_skips_blocks_with_no_feasible_point(twice_l, monkeypatch):
    # four blocks: the first and third wholly infeasible (off the simplex, with
    # NaN rows), the second partly, the last, short one wholly feasible; the
    # blocks that are evaluated are evaluated whole
    params = params_for(twice_l)
    rng = np.random.default_rng(twice_l)
    m = weights_to_moments_array(params.l, rng.dirichlet(np.ones(params.l.n_states),
                                                         3 * _CHUNK + 100))
    dead = np.r_[0:_CHUNK, 2 * _CHUNK:3 * _CHUNK]
    m[dead] = 10.0 + rng.random(m[dead].shape)
    m[dead[::101]] = np.nan
    m[_CHUNK:2 * _CHUNK:7] = -10.0
    calls = count_value_calls(monkeypatch)
    got, want = free_energy_batch(params, m), reference_free_energy_batch(params, m)
    assert calls == [_CHUNK, 100]
    assert not got[1][dead].any() and got[1][_CHUNK:2 * _CHUNK].any()
    assert got[1][3 * _CHUNK:].all()
    for g, w in zip(got, want):
        assert same_bits(g, w)


@pytest.mark.parametrize("twice_l", [1, 4])
def test_batch_of_no_feasible_point_evaluates_nothing(twice_l, monkeypatch):
    params = params_for(twice_l)
    m = np.full((3, _CHUNK // 2 + 5, twice_l), 10.0)
    m[1, ::3] = np.nan
    calls = count_value_calls(monkeypatch)
    got, want = free_energy_batch(params, m), reference_free_energy_batch(params, m)
    assert calls == [] and got[0].shape == (3, _CHUNK // 2 + 5)
    assert np.isnan(got[0]).all() and not got[1].any()
    for g, w in zip(got, want):
        assert same_bits(g, w)


# --- _entropy on both sides of _COLUMN_ROWS ---


@pytest.mark.parametrize("w", range(2, 14))
@pytest.mark.parametrize("shape", [(_COLUMN_ROWS - 1,), (_COLUMN_ROWS,), (_CHUNK,),
                                   (_COLUMN_ROWS, 1), (45, 50), (30,)])
def test_entropy_keeps_its_bits(w, shape, monkeypatch):
    calls = []
    column_sum = thermo._column_sum
    monkeypatch.setattr(thermo, "_column_sum",
                        lambda *a: calls.append(1) or column_sum(*a))
    rows = int(np.prod(shape))
    x = edge_weights(np.random.default_rng(w), w, rows).reshape(*shape, w)
    assert same_bits(_entropy(x), reference_entropy(x))
    assert bool(calls) == (rows >= _COLUMN_ROWS)


@pytest.mark.parametrize("w", [3, 8, 9, 13])
def test_entropy_keeps_its_bits_on_other_layouts(w):
    # not C-ordered: numpy's row sum may then run in another order, which the
    # row form keeps
    x = edge_weights(np.random.default_rng(w), w, 3 * _COLUMN_ROWS)
    for view in (np.asfortranarray(x), x[::2], x.T.copy().T):
        assert same_bits(_entropy(view), reference_entropy(view))


@pytest.mark.parametrize("twice_l", range(7, 13))
def test_single_point_entropy_and_free_energy_keep_their_bits(twice_l):
    # 1-D inputs keep .sum(): nine to thirteen terms, past numpy's first block
    params = params_for(twice_l)
    kernel = _Kernel(params)
    rng = np.random.default_rng(twice_l)
    for x in rng.dirichlet(np.ones(params.l.n_states), 20):
        m = MomentVector(params.l, weights_to_moments_array(params.l, x))
        xc = thermo._feasible_weights(params.l, m)
        assert same_bits(_entropy(xc), reference_entropy(xc))
        assert same_bits(entropy(m), float(reference_entropy(xc)))
        f_ref = kernel.energy(xc) - params.temperature * reference_entropy(xc)
        assert same_bits(free_energy(params, m).free_energy, float(f_ref))


# --- run_symmetry_suite ---


@pytest.mark.parametrize("twice_l", range(1, 13))
@pytest.mark.parametrize("samples", [500, _COLUMN_ROWS + 500])
def test_symmetry_suite_keeps_its_bits(twice_l, samples, monkeypatch):
    l = SpinQuantum(twice_l)
    x = np.random.default_rng(twice_l).dirichlet(np.ones(l.n_states), samples)
    got_f = properties._sector_free_energies(l, x)
    got = run_symmetry_suite(l, samples=samples, seed=twice_l)
    monkeypatch.setattr(properties, "_entropy", reference_entropy)
    want_f = properties._sector_free_energies(l, x)
    assert all(same_bits(g, w) for g, w in zip(got_f, want_f))
    assert same_bits(list(got.values()),
                     list(run_symmetry_suite(l, samples=samples, seed=twice_l).values()))
