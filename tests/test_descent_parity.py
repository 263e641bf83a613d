"""The fused lambda descent against a reference copy of the unfused one.

reference_minimize is the minimizer as it stood before each iterate was
evaluated once: reference_phase_point evaluates x(lam), then F through
kernel.value, and every step rebuilds the mean phase and phi'(A) for K,
sums Sigma elementwise and calls np.linalg.solve; every orbit member is
one np.roll and one chart call.  Same starts, tolerances and rules.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from curieweiss import ModelParams, MomentVector, SpinQuantum, equilibrium
from curieweiss.equilibrium import (
    _DEDUP_TOL,
    _DEGENERACY_TOL,
    _SADDLE_TOL,
    GRAD_TOL,
    ITERATION_CAP,
    RANDOM_STARTS,
    Minimum,
    _softmax,
    minimize,
)
from curieweiss.order_params import weights_to_moments_array
from curieweiss.thermo import _Kernel, _mean_phase


def reference_phase_point(kernel, lam):
    t = kernel.params.temperature
    c = kernel.table
    x = _softmax((c[:, 0] * lam[:, :1] + c[:, 1] * lam[:, 1:] - kernel.b) / t)
    pq, a = (v[:, 0] for v in _mean_phase(c, x[:, None]))
    gap = lam + 2.0 * kernel.dphi(a)[0][:, None] * pq
    tangent = np.abs((c[:, 0] - pq[:, :1]) * gap[:, :1]
                     + (c[:, 1] - pq[:, 1:]) * gap[:, 1:]).max(axis=-1)
    return x, kernel.value(x[:, None])[:, 0], gap, tangent


def reference_curvature(kernel, t, x):
    pq, a = _mean_phase(kernel.table, x[:, None])
    d1, d2 = kernel.dphi(a)
    k = (2.0 * d1[..., None, None] * np.eye(2)
         + 4.0 * d2[..., None, None] * (pq[..., :, None] * pq[..., None, :]))[:, 0]
    dev = kernel.table.T - pq.swapaxes(1, 2)
    cov = (x[:, None, None] * dev[:, :, None] * dev[:, None]).sum(axis=-1)
    m = (k[..., None] * cov[:, None]).sum(axis=2)
    half_tr, half_gap = (m[:, 0, 0] + m[:, 1, 1]) / 2, (m[:, 0, 0] - m[:, 1, 1]) / 2
    if x.shape[-1] == 2:
        eig = t + 2.0 * half_tr
    else:
        low = half_tr - np.sqrt(np.maximum(0.0, half_gap**2 + m[:, 0, 1] * m[:, 1, 0]))
        eig = t + (low if x.shape[-1] == 3 else np.minimum(low, 0.0))
    return cov, m, eig


def reference_settle(kernel, lam):
    t = kernel.params.temperature
    lam = np.array(lam, dtype=float)
    x, f, gap, tangent = reference_phase_point(kernel, lam)
    steps, stuck = np.zeros(len(lam), dtype=int), np.zeros(len(lam), dtype=bool)
    for _ in range(ITERATION_CAP):
        live = np.flatnonzero((tangent >= 1e-13 * t) & ~stuck)
        if not live.size:
            break
        steps[live] += 1
        cov, k_cov, eig = reference_curvature(kernel, t, x[live])
        alpha = 1.0 + np.maximum(0.0, -2.0 * eig) / t
        d = np.linalg.solve(alpha[:, None, None] * np.eye(2) + k_cov / t,
                            -gap[live][..., None])[..., 0]
        slope = (gap[live][:, :, None] * cov * d[:, None]).sum(axis=(1, 2)) / t
        step = np.ones(live.size)
        halving = np.arange(live.size)
        while halving.size:
            rows = live[halving]
            lam_new = lam[rows] + step[halving, None] * d[halving]
            x_new, f_new, gap_new, tangent_new = reference_phase_point(kernel, lam_new)
            f_old = f[rows]
            ok = (f_new < f_old + 1e-4 * step[halving] * slope[halving]) | (
                (f_new <= f_old + 1e-14 * np.maximum(1.0, np.abs(f_old)))
                & (tangent_new <= 0.5 * tangent[rows]))
            done = rows[ok]
            lam[done], x[done], f[done] = lam_new[ok], x_new[ok], f_new[ok]
            gap[done], tangent[done] = gap_new[ok], tangent_new[ok]
            halving = halving[~ok]
            step[halving] *= 0.5
            stuck[live[halving[step[halving] <= 1e-14]]] = True
            halving = halving[step[halving] > 1e-14]
    return x, tangent, steps


def reference_minimize(params, seed=0):
    l = params.l
    kernel = _Kernel(params)
    reach = abs(params.j2) + abs(params.j4) + abs(params.j6) + abs(params.j8)
    radius, turn = np.random.default_rng(seed).uniform(size=(2, RANDOM_STARTS))
    disk = reach * np.sqrt(radius) * np.exp(2j * math.pi * turn)
    starts = np.vstack([np.zeros((1, 2)), reach * kernel.table,
                        np.column_stack([disk.real, disk.imag])])
    x, tangent_grad, _ = reference_settle(kernel, starts)
    f = kernel.value((x / x.sum(axis=-1, keepdims=True))[:, None])[:, 0]
    converged = np.flatnonzero(tangent_grad < GRAD_TOL)
    assert converged.size
    kept = []
    for i in converged[np.argsort(f[converged], kind="stable")]:
        if not kept or np.abs(x[i] - x[kept]).max(axis=-1).min() >= _DEDUP_TOL:
            kept.append(i)
    eigs = reference_curvature(kernel, params.temperature, x[kept])[2]
    true_minima = f[kept][eigs > _SADDLE_TOL]
    f_best = true_minima.min() if true_minima.size else f[kept[0]]
    out = []
    for i, eig_min in zip(kept, eigs):
        if eig_min < _SADDLE_TOL:
            label = "saddle-rejected"
        elif f[i] <= f_best + _DEGENERACY_TOL:
            label = "global"
        else:
            label = "local"
        orbit = [MomentVector(l, weights_to_moments_array(l, np.roll(x[i], k)))
                 for k in range(l.n_states)]
        out.append(Minimum(m_star=orbit[0], f_value=float(f[i]), classification=label,
                           hessian_eigen_min=float(eig_min), orbit=orbit))
    return out


def sweep(seed, count):
    """count configurations: 2l uniform in 1..8, each of J2..J8 uniform in
    [-1, 1] kept with probability 0.7 (J4 = 1 if none is kept), T
    log-uniform in [0.01, 0.5] sum|J|; every third adds g in [0, 0.2] in a
    random sector, and at 2l = 2 every third h0 in [-0.2, 0.2]."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        twice_l = int(rng.integers(1, 9))
        kw = {key: float(rng.uniform(-1.0, 1.0)) for key in ("j2", "j4", "j6", "j8")
              if rng.uniform() < 0.7} or {"j4": 1.0}
        reach = sum(abs(v) for v in kw.values())
        t = reach * math.exp(rng.uniform(math.log(0.01), math.log(0.5)))
        if case % 3 == 1:
            kw.update(g=float(rng.uniform(0.0, 0.2)),
                      sector=Fraction(int(rng.integers(twice_l + 1))) - Fraction(twice_l, 2))
        elif case % 3 == 2 and twice_l == 2:
            kw.update(h0=float(rng.uniform(-0.2, 0.2)))
        yield ModelParams(SpinQuantum(twice_l), temperature=t, **kw)


def same_minima(got, want, t):
    """Equal as sets, since degenerate members may come in another order.

    Minima match one to one: same classification, F within 1e-12 and m*
    within 1e-9 of the moment scale max(1, |m|).  Where a minimum is flat,
    that is tighter than the descent locates it: both codes stop at a
    tangent gradient below 1e-13 T, which pins a minimum of stability
    number eig only to about 1e-13 T / eig, so there m* is held to
    1e-11 T / eig.  A saddle is reported only when a start happens to stop
    on one, so the saddles must sit at the same levels, not in the same
    number.
    """
    def split(res):
        saddle = [r.f_value for r in res if r.classification == "saddle-rejected"]
        return [r for r in res if r.classification != "saddle-rejected"], saddle

    def within(levels, others):
        return all(any(abs(f - o) <= 1e-12 for o in others) for f in levels)

    (free, got_saddles), (minima, want_saddles) = split(got), split(want)
    if len(free) != len(minima) or not (within(got_saddles, want_saddles)
                                        and within(want_saddles, got_saddles)):
        return False
    for w in minima:
        tol = max(1e-9, 1e-11 * t / w.hessian_eigen_min)
        match = [g for g in free if g.classification == w.classification
                 and abs(g.f_value - w.f_value) <= 1e-12
                 and np.all(np.abs(g.m_star.values - w.m_star.values)
                            <= tol * np.maximum(1.0, np.abs(w.m_star.values)))]
        if not match:
            return False
        free.remove(match[0])
    return True


def test_minimize_matches_the_unfused_reference():
    # minimum levels, classifications and counts on 60 configurations
    misses = [pr for pr in sweep(19, 60) if not same_minima(
        minimize(pr), reference_minimize(pr), pr.temperature)]
    assert not misses


@pytest.mark.parametrize("twice_l", range(1, 13))
def test_phase_state_is_one_evaluation_of_the_kernel(twice_l):
    # F, the gap and the tangent gradient of the fused evaluator against
    # kernel.value, lam + 2 phi'(A) p and max|(c - p).g| computed apart, on
    # random rows, near-vertex rows (|lam| = 30 T) and lam = 0
    rng = np.random.default_rng(300 + twice_l)
    n = twice_l + 1
    for case in range(4):
        kw = dict(zip(("j2", "j4", "j6", "j8"), rng.uniform(-1.0, 1.0, 4)))
        if case >= 2:
            kw.update(g=rng.uniform(0.0, 0.2),
                      sector=Fraction(int(rng.integers(n))) - Fraction(twice_l, 2))
        if case == 3 and twice_l == 2:
            kw.update(h0=rng.uniform(-0.2, 0.2))
        pr = ModelParams(SpinQuantum(twice_l), temperature=rng.uniform(0.02, 0.5), **kw)
        kernel, t = _Kernel(pr), pr.temperature
        angle = rng.uniform(0.0, 2.0 * math.pi, 10)
        lam = np.vstack([rng.normal(size=(10, 2)),
                         30.0 * t * np.column_stack([np.cos(angle), np.sin(angle)]),
                         np.zeros((1, 2))])
        x, f, gap, tangent, pq, a, d1, d2 = equilibrium._phase_state(kernel, lam)
        assert np.array_equal(x, reference_phase_point(kernel, lam)[0])
        assert np.array_equal(f, kernel.value(x[:, None])[:, 0])
        pq_ref, a_ref = (v[:, 0] for v in _mean_phase(kernel.table, x[:, None]))
        assert np.array_equal(pq, pq_ref) and np.array_equal(a, a_ref)
        d1_ref, d2_ref = kernel.dphi(a_ref)
        assert np.array_equal(d1, d1_ref) and np.array_equal(d2, d2_ref)
        assert np.array_equal(gap, lam + 2.0 * d1_ref[:, None] * pq_ref)
        dev = kernel.table[None] - pq_ref[:, None]
        ref = np.abs((dev * gap[:, None]).sum(axis=-1)).max(axis=-1)
        assert np.all(np.abs(tangent - ref) <= 1e-15 * np.abs(gap).max(axis=1))


@pytest.mark.parametrize("twice_l", range(1, 13))
def test_newton_step_matches_a_linear_solve(twice_l):
    # the closed-form step against np.linalg.solve on the same shifted
    # matrix, on rows whose matrix has condition number below 1e3
    rng = np.random.default_rng(500 + twice_l)
    n = twice_l + 1
    kw = dict(zip(("j2", "j4", "j6", "j8"), rng.uniform(-1.0, 1.0, 4)))
    pr = ModelParams(SpinQuantum(twice_l), temperature=rng.uniform(0.02, 0.5), **kw)
    kernel, t = _Kernel(pr), pr.temperature
    u = np.vstack([rng.normal(size=(40, n)), 10.0 * rng.normal(size=(40, n))])
    x = np.exp(u - u.max(axis=1, keepdims=True))
    x /= x.sum(axis=1, keepdims=True)
    gap = rng.normal(size=(len(x), 2))
    _, m, eig = equilibrium._curvature(kernel, t, x)
    alpha = 1.0 + np.maximum(0.0, -2.0 * eig) / t
    mat = alpha[:, None, None] * np.eye(2) + m / t
    well = np.linalg.cond(mat) < 1e3
    assert well.sum() >= 40
    ref = np.linalg.solve(mat[well], -gap[well][..., None])[..., 0]
    d = equilibrium._newton_step(t, m[well], eig[well], gap[well])
    assert np.all(np.abs(d - ref).max(axis=1) <= 1e-13 * np.abs(ref).max(axis=1))
