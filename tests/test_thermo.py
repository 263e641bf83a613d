"""Free-energy functional: closed-form values, analytic derivatives, bounds."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from curieweiss import (
    ModelParams,
    MomentVector,
    SpinQuantum,
    WeightVector,
    alignment,
    coupling,
    coupling_two_outcome,
    energy,
    entropy,
    free_energy,
    free_energy_batch,
    free_energy_weights,
    paramagnet_moments,
    random_weights,
    spectrum,
    weights_to_moments,
    weights_to_moments_array,
)
from curieweiss.order_params import FEASIBILITY_TOL, _charts, moments_to_weights_array
from curieweiss.thermo import _CHUNK, _Kernel, _mean_phase, _phases

ALL_FIVE = (1, 2, 3, 4, 5)


def interior_points(twice_l, n, seed):
    """Random weights kept away from the simplex boundary (min >= 1e-2)."""
    l = SpinQuantum(twice_l)
    rng = np.random.default_rng(seed)
    x = random_weights(l, rng, n=n)
    x = 0.85 * x + 0.15 / l.n_states
    return l, weights_to_moments_array(l, x)


def generic_params(twice_l, with_field=False):
    l = SpinQuantum(twice_l)
    sector = spectrum(l)[-1]
    h0 = 0.1 if (with_field and twice_l == 2) else 0.0
    return ModelParams(
        l, temperature=0.45, j2=0.3, j4=1.0, j6=0.1, j8=0.05, g=0.2,
        sector=sector, h0=h0,
    )


# --- 1. closed-form spot values ---


def test_entropy_three_state_example():
    l = SpinQuantum(2)
    m = weights_to_moments(WeightVector(l, (0.25, 0.25, 0.5)))
    assert abs(entropy(m) - 1.5 * math.log(2.0)) < 1e-12


def test_vertex_values():
    # a vertex has zero entropy, full alignment, and coupling -g to its own sector
    for twice_l, s in ((2, Fraction(0)), (3, Fraction(3, 2))):
        l = SpinQuantum(twice_l)
        m = MomentVector(l, [float(s) ** k for k in range(1, twice_l + 1)])
        assert abs(entropy(m)) < 1e-12
        assert abs(alignment(m) - 1.0) < 1e-12
        pr = ModelParams(l, temperature=0.3, g=0.4, sector=s)
        assert abs(coupling(pr, m) - (-0.4)) < 1e-12


def test_corner_free_energy():
    # F(0,0) = -J2/2 - J4/4 exactly (S = 0 there), any temperature
    l = SpinQuantum(2)
    m = MomentVector(l, (0.0, 0.0))
    for t in (0.1, 0.2, 0.7):
        ev = free_energy(ModelParams(l, temperature=t, j4=1.0), m)
        assert abs(ev.free_energy - (-0.25)) < 1e-12
        assert not ev.interior
    ev = free_energy(ModelParams(l, temperature=0.2, j2=0.6, j4=1.0), m)
    assert abs(ev.free_energy - (-0.55)) < 1e-12


def test_paramagnet_free_energy_is_pure_entropy():
    for twice_l in ALL_FIVE:
        l = SpinQuantum(twice_l)
        pr = ModelParams(l, temperature=0.35, j2=0.2, j4=1.0)
        ev = free_energy(pr, paramagnet_moments(l))
        assert abs(ev.alignment) < 1e-12
        assert abs(ev.energy) < 1e-12
        assert abs(ev.free_energy + 0.35 * math.log(l.n_states)) < 1e-12


def test_two_outcome_coupling():
    g = 0.37
    assert abs(coupling_two_outcome(g, 0, 0.31) - 0.5 * g) < 1e-15
    assert abs(coupling_two_outcome(g, 0, -0.5) - 0.5 * g) < 1e-15
    assert abs(coupling_two_outcome(g, 1, 0.5) - (-g)) < 1e-15
    assert abs(coupling_two_outcome(g, -1, -0.5) - (-g)) < 1e-15
    # formula: g/2 (1 - 3 s^2 / 2) - 3 g s m1 / 2
    for s in (-1, 0, 1):
        for m1 in (-0.4, 0.0, 0.25):
            want = 0.5 * g * (1.0 - 1.5 * s * s) - 1.5 * g * s * m1
            assert abs(coupling_two_outcome(g, s, m1) - want) < 1e-15
    with pytest.raises(ValueError):
        coupling_two_outcome(g, 2, 0.0)
    with pytest.raises(ValueError):
        coupling_two_outcome(g, 1, 0.7)


def test_half_spin_closed_form():
    """Two-state reduction: F = -2 J2 m1^2 - 4 J4 m1^4 - T S - 4 g s m1."""
    l = SpinQuantum(1)
    j2, j4, g, t = 0.3, 0.8, 0.25, 0.4
    pr = ModelParams(l, temperature=t, j2=j2, j4=j4, g=g, sector=Fraction(1, 2))
    for m1 in (-0.3, -0.05, 0.0, 0.2, 0.45):
        xm = 0.5 * (1.0 - 2.0 * m1)
        xp = 0.5 * (1.0 + 2.0 * m1)
        s_ent = -(xm * math.log(xm) + xp * math.log(xp))
        want = -2.0 * j2 * m1**2 - 4.0 * j4 * m1**4 - t * s_ent - 2.0 * g * m1
        ev = free_energy(pr, MomentVector(l, (m1,)))
        assert abs(ev.free_energy - want) < 1e-12


def test_longitudinal_field_shifts_by_central_weight():
    # the field term adds h0 * x_0 = h0 (1 - m2) to the energy
    l = SpinQuantum(2)
    base = ModelParams(l, temperature=0.3, j4=1.0)
    tilted = ModelParams(l, temperature=0.3, j4=1.0, h0=0.2)
    for m in ((0.1, 0.5), (0.0, 0.66), (-0.2, 0.4)):
        mv = MomentVector(l, m)
        de = energy(tilted, mv) - energy(base, mv)
        assert abs(de - 0.2 * (1.0 - m[1])) < 1e-12


# --- 2. analytic derivatives vs central differences ---


def fd_gradient(f, m, h):
    g = np.empty_like(m)
    for k in range(m.size):
        e = np.zeros_like(m)
        e[k] = h[k]
        g[k] = (f(m + e) - f(m - e)) / (2.0 * h[k])
    return g


def fd_hessian(f, m, h):
    n = m.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h[i]
            ej[j] = h[j]
            out[i, j] = (
                f(m + ei + ej) - f(m + ei - ej) - f(m - ei + ej) + f(m - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return out


@pytest.mark.parametrize("twice_l", ALL_FIVE)
def test_gradient_against_finite_differences(twice_l):
    l, points = interior_points(twice_l, 100, seed=100 + twice_l)
    pr = generic_params(twice_l, with_field=True)

    def f(mv):
        return free_energy(pr, MomentVector(l, mv)).free_energy

    for m in points:
        ev = free_energy(pr, MomentVector(l, m))
        assert ev.interior
        h = 1e-6 * np.maximum(1.0, np.abs(m))
        fd = fd_gradient(f, m, h)
        rel = np.linalg.norm(fd - ev.gradient) / max(np.linalg.norm(ev.gradient), 1.0)
        assert rel < 1e-5


@pytest.mark.parametrize("twice_l", ALL_FIVE)
def test_hessian_against_finite_differences(twice_l):
    # 20 points per l keep the O((2l)^2) stencil affordable; tolerance 1e-4
    l, points = interior_points(twice_l, 20, seed=200 + twice_l)
    pr = generic_params(twice_l)

    def f(mv):
        return free_energy(pr, MomentVector(l, mv)).free_energy

    for m in points:
        ev = free_energy(pr, MomentVector(l, m))
        h = 1e-4 * np.maximum(1.0, np.abs(m))
        fd = fd_hessian(f, m, h)
        rel = np.linalg.norm(fd - ev.hessian) / np.linalg.norm(ev.hessian)
        assert rel < 1e-4


def dense_energy_hessian(kernel, x):
    """d2E/dx2 = 2 phi'(A) C C^T + phi''(A) a a^T per row of x, a = dA/dx = 2 C p.

    The (2l+1)-square energy Hessian built in full, for the references that
    check the rank-2 mean-phase forms.
    """
    table = kernel.table
    pq = x @ table
    d1, d2 = kernel.dphi((pq * pq).sum(axis=-1))
    da = 2.0 * pq @ table.T
    return 2.0 * d1[..., None, None] * (table @ table.T) \
        + d2[..., None, None] * (da[..., :, None] * da[..., None, :])


@pytest.mark.parametrize("twice_l", range(1, 9))
def test_hessian_matches_dense_weight_hessian(twice_l):
    # J^T K J + W^T diag(T/x) W against W^T (H_E + diag(T/x)) W built in full
    l = SpinQuantum(twice_l)
    pr = generic_params(twice_l, with_field=True)
    w = _charts(twice_l)[1][:, 1:]
    x = random_weights(l, np.random.default_rng(400 + twice_l), n=20)
    for xi in 0.85 * x + 0.15 / l.n_states:
        ev = free_energy_weights(pr, xi)
        ref = w.T @ (dense_energy_hessian(_Kernel(pr), xi) + np.diag(pr.temperature / xi)) @ w
        ref = 0.5 * (ref + ref.T)
        assert np.abs(ev.hessian - ref).max() <= 1e-12 * np.abs(ref).max()


def test_three_state_stability_diagonals():
    """Hessian on the m1 = 0 line against the printed stability formulas."""
    l = SpinQuantum(2)
    t, j2, j4 = 0.4, 0.3, 1.0
    pr = ModelParams(l, temperature=t, j2=j2, j4=j4)
    for m2 in (0.05, 0.1, 0.3, 0.6, 2.0 / 3.0):
        p = 1.0 - 1.5 * m2
        ev = free_energy(pr, MomentVector(l, (0.0, m2)))
        d11 = t / m2 - 0.75 * j2 - 0.75 * j4 * p * p
        d22 = t / (m2 * (1.0 - m2)) - 2.25 * j2 - 6.75 * j4 * p * p
        assert abs(ev.hessian[0, 0] - d11) < 1e-8
        assert abs(ev.hessian[1, 1] - d22) < 1e-8
        assert abs(ev.hessian[0, 1]) < 1e-8


# --- 3. bounds and stability thresholds ---


@pytest.mark.parametrize("twice_l", ALL_FIVE)
def test_ranges(twice_l):
    l, points = interior_points(twice_l, 200, seed=300 + twice_l)
    pr = generic_params(twice_l)
    g = pr.g
    smax = math.log(l.n_states)
    for m in points:
        mv = MomentVector(l, m)
        a = alignment(mv)
        assert -1e-12 <= a <= 1.0 + 1e-12
        s = entropy(mv)
        assert -1e-12 <= s <= smax + 1e-12
        c = coupling(pr, mv)
        assert -g - 1e-12 <= c <= g + 1e-12


def test_paramagnet_stable_for_nonpositive_j2():
    for twice_l in ALL_FIVE:
        l = SpinQuantum(twice_l)
        pr = ModelParams(l, temperature=0.3, j2=-0.2, j4=0.8)
        ev = free_energy(pr, paramagnet_moments(l))
        assert np.linalg.eigvalsh(ev.hessian).min() > -1e-10


def test_three_state_paramagnet_threshold():
    # local stability of the uniform state flips at T = J2/2
    l = SpinQuantum(2)
    pm = paramagnet_moments(l)
    j2 = 0.4
    hot = free_energy(ModelParams(l, temperature=0.21, j2=j2), pm)
    cold = free_energy(ModelParams(l, temperature=0.19, j2=j2), pm)
    assert np.linalg.eigvalsh(hot.hessian).min() > 0.0
    assert np.linalg.eigvalsh(cold.hessian).min() < 0.0


# --- 4. evaluation from explicit weights ---


def test_weights_evaluation_agrees_in_the_interior():
    pr = generic_params(4)
    l = pr.l
    rng = np.random.default_rng(5)
    x = 0.85 * random_weights(l, rng, n=30) + 0.15 / l.n_states
    m = weights_to_moments_array(l, x)
    for xi, mi in zip(x, m):
        a = free_energy(pr, MomentVector(l, mi))
        b = free_energy_weights(pr, xi)
        assert abs(a.free_energy - b.free_energy) < 1e-12
        np.testing.assert_allclose(a.gradient, b.gradient, rtol=1e-9, atol=1e-9)


def test_weights_evaluation_survives_tiny_occupations():
    # occupations far below chart resolution still give finite output
    l = SpinQuantum(2)
    pr = ModelParams(l, temperature=0.05, j4=1.0)
    x = np.array([1e-20, 1.0 - 2e-20, 1e-20])
    ev = free_energy_weights(pr, x)
    assert ev.interior
    assert np.all(np.isfinite(ev.gradient))
    # F = E - T S with S = -sum x log x evaluated on the given weights
    s = -np.sum(x * np.log(x))
    assert abs(ev.free_energy - (ev.energy + ev.coupling - 0.05 * s)) < 1e-12


def test_weights_evaluation_validation():
    l = SpinQuantum(2)
    pr = ModelParams(l, temperature=0.3)
    with pytest.raises(ValueError):
        free_energy_weights(pr, np.array([0.5, 0.5]))
    from curieweiss import InfeasibleMoments

    with pytest.raises(InfeasibleMoments):
        free_energy_weights(pr, np.array([0.7, 0.6, -0.3]))
    # non-finite weights or raw moments are refused, not evaluated to NaN
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            free_energy_weights(pr, np.array([bad, 0.5, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            free_energy(pr, np.array([bad, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            energy(pr, [0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            coupling(ModelParams(l, temperature=0.3, g=0.1, sector=Fraction(0)),
                     [bad, 0.5])
    with pytest.raises(ValueError, match="expected 2 moments"):
        free_energy(pr, np.array([0.0, 0.5, 0.1]))
    # the grid path masks such rows as infeasible instead
    f, feasible = free_energy_batch(pr, np.array([[math.nan, 0.5], [0.0, 0.5]]))
    assert math.isnan(f[0]) and not feasible[0] and feasible[1]


# --- 5. parameter validation and batch path ---


def test_params_validation():
    l = SpinQuantum(2)
    with pytest.raises(ValueError):
        ModelParams(l, temperature=0.0)
    with pytest.raises(ValueError):
        ModelParams(l, temperature=0.3, g=-0.1)
    with pytest.raises(ValueError):
        ModelParams(l, temperature=0.3, g=0.2)  # missing sector
    with pytest.raises(ValueError):
        ModelParams(l, temperature=0.3, g=0.2, sector=Fraction(1, 2))
    with pytest.raises(ValueError):
        ModelParams(SpinQuantum(3), temperature=0.3, h0=0.5)
    for name in ("temperature", "j2", "j4", "j6", "j8", "g", "h0"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ModelParams(l, **{"temperature": 0.3, "sector": Fraction(1), name: bad})


def test_params_need_a_spin_quantum():
    # a bare int for l used to pass, then fail later as an AttributeError
    with pytest.raises(TypeError, match="SpinQuantum"):
        ModelParams(2, temperature=0.3)
    with pytest.raises(TypeError, match="SpinQuantum"):
        ModelParams(2, temperature=0.3, h0=0.1)


def test_batch_matches_scalar():
    pr = generic_params(3)
    l, points = interior_points(3, 50, seed=9)
    fvals, feas = free_energy_batch(pr, points)
    assert feas.all()
    for mi, fv in zip(points, fvals):
        assert abs(free_energy(pr, MomentVector(l, mi)).free_energy - fv) < 1e-12
    # an infeasible row comes back masked, not raised
    bad = points.copy()
    bad[0] = 100.0
    fvals, feas = free_energy_batch(pr, bad)
    assert not feas[0] and feas[1:].all()


@pytest.mark.parametrize("twice_l", [1, 2, 4, 7, 12])
def test_batch_blocks_keep_the_one_pass_bits(twice_l):
    # two whole blocks and a partial one, every third point pushed outside
    # the simplex: f and feasible as one pass over all points gives them
    pr = generic_params(twice_l, with_field=True)
    l, m = interior_points(twice_l, 2 * _CHUNK + 77, seed=twice_l)
    m[::3, 0] += 0.7
    f, feasible = free_energy_batch(pr, m)
    x = moments_to_weights_array(l, m)
    want_ok = x.min(axis=-1) >= -FEASIBILITY_TOL
    want = np.where(want_ok, _Kernel(pr).value(np.clip(x, 0.0, None)), np.nan)
    assert want_ok.any() and not want_ok.all()
    assert np.array_equal(feasible, want_ok)
    assert np.array_equal(f.view(np.int64), want.view(np.int64))


def test_batch_peak_memory_near_its_output():
    # 801**2 points of the three-state magnet: the block temporaries add
    # 1.7 MB to the 5.8 MB output (one pass over all points peaked at 67 MB)
    pr = generic_params(2)
    m = np.tile(paramagnet_moments(pr.l).values, (801 * 801, 1))
    tracemalloc.start()
    try:
        f, feasible = free_energy_batch(pr, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (f.nbytes + feasible.nbytes), peak


@pytest.mark.parametrize("twice_l", [1, 2, 7, 12])
def test_mean_phase_alignment_bits(twice_l):
    # A = P*P + Q*Q written out is the two-term row sum, bit for bit
    l = SpinQuantum(twice_l)
    x = random_weights(l, np.random.default_rng(twice_l), n=200)
    table = _phases(twice_l)
    for batch in (x, x[:, None, :]):
        pq, a = _mean_phase(table, batch)
        assert a.shape == batch.shape[:-1]
        assert np.array_equal(a.view(np.int64), (pq * pq).sum(axis=-1).view(np.int64))
