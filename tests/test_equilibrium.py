"""Profile solvers and the multi-start minimizer.

Reference numbers checked against an independent high-precision root find;
structural tests (tangency, degeneracy, scaling collapse) recompute the
defining conditions in place rather than trusting stored constants.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from curieweiss import (
    ModelParams,
    MomentVector,
    NonConvergence,
    NoSolutionInBracket,
    SpinQuantum,
    branch_thresholds,
    critical_coupling,
    critical_temperature,
    free_energy,
    free_energy_batch,
    meanfield_m2,
    minimize,
    orbit,
    paramagnet_moments,
    permutation_map_m,
    spinodal_temperature,
)
from curieweiss import equilibrium
from curieweiss.equilibrium import _Profile
from curieweiss.order_params import moments_to_weights_array
from curieweiss.thermo import _Kernel
from test_thermo import dense_energy_hessian

L1 = SpinQuantum(2)


def profile_slope(m2, t, j2=0.0, j4=1.0, g=0.0):
    """dF/dm2 on the m1 = 0 line of the three-state model, sector 0."""
    p = 1.0 - 1.5 * m2
    return 1.5 * (j2 * p + j4 * p**3 + g) + t * math.log(m2 / (2.0 * (1.0 - m2)))


def profile_curvature(m2, t, j2=0.0, j4=1.0):
    p = 1.0 - 1.5 * m2
    return 1.5 * (-1.5 * j2 - 4.5 * j4 * p * p) + t / (m2 * (1.0 - m2))


def bisect_slope(t, **kw):
    """First root of the profile slope, by scan plus bisection."""
    grid = np.geomspace(1e-10, 0.66, 4000)
    vals = np.array([profile_slope(m2, t, **kw) for m2 in grid])
    idx = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    assert idx.size, "no sign change in the scan window"
    lo, hi = grid[idx[0]], grid[idx[0] + 1]
    flo = profile_slope(lo, t, **kw)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = profile_slope(mid, t, **kw)
        if f == 0.0:
            return mid
        if (f < 0.0) == (flo < 0.0):
            lo, flo = mid, f
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- 1. the scalar profile root ---


def test_meanfield_root_against_bisection():
    got = meanfield_m2(ModelParams(L1, temperature=0.2, j4=1.0))
    want = bisect_slope(0.2)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.001148490087594074) < 1e-12


def test_meanfield_root_with_coupling():
    pr = ModelParams(L1, temperature=0.4, j4=1.0, g=0.2, sector=Fraction(0))
    got = meanfield_m2(pr)
    want = bisect_slope(0.4, g=0.2)
    assert abs(got - want) < 1e-12


def test_meanfield_low_temperature_asymptote():
    # m2 ~ 2 exp(-3 (J2 + J4 + g) / 2T) deep in the ordered phase
    pr = ModelParams(L1, temperature=0.05, j4=1.0)
    got = meanfield_m2(pr)
    asym = 2.0 * math.exp(-1.5 / 0.05)
    assert abs(got - asym) / asym < 1e-8
    assert abs(profile_slope(got, 0.05)) < 1e-10


def test_meanfield_root_hundreds_of_decades_down(monkeypatch):
    # the last bracket is [1e-250, 2.7e-3]; brentq bisects in m2, not in
    # log m2, and takes 103 steps, past scipy's default cap of 100
    params = ModelParams(L1, temperature=0.05, j4=2.0, j6=0.2, j8=0.2)
    got = meanfield_m2(params)
    assert math.isclose(got, 1.0760372320042152e-31, rel_tol=1e-14)
    prof = _Profile(0.0, 2.0, 0.2, 0.2, 0.0)
    assert prof.slope(got * (1 - 1e-14), 0.05) < 0.0
    assert prof.slope(got * (1 + 1e-14), 0.05) > 0.0
    # under the old cap the same search stops as the library's NonConvergence
    scipy_brentq = equilibrium.brentq
    monkeypatch.setattr(equilibrium, "brentq",
                        lambda *a, **kw: scipy_brentq(*a, **{**kw, "maxiter": 100}))
    with pytest.raises(NonConvergence, match="brentq"):
        meanfield_m2(params)


def test_meanfield_no_root_above_spinodal():
    with pytest.raises(NoSolutionInBracket):
        meanfield_m2(ModelParams(L1, temperature=0.4, j4=1.0))


def test_meanfield_rejects_other_sectors():
    pr = ModelParams(L1, temperature=0.2, j4=1.0, g=0.1, sector=Fraction(1))
    with pytest.raises(ValueError):
        meanfield_m2(pr)


# --- 2. spinodal and critical temperatures ---


def test_spinodal_is_a_tangency():
    cp = spinodal_temperature(ModelParams(L1, temperature=0.3, j4=1.0))
    assert cp.kind == "spinodal"
    t, m2 = cp.value, cp.order_param.values[1]
    assert abs(t - 0.3282568647349293) < 1e-9
    assert abs(m2 - 0.0634132) < 5e-6
    # defining conditions: slope and curvature vanish together
    assert abs(profile_slope(m2, t)) < 1e-9
    assert abs(profile_curvature(m2, t)) < 1e-5
    assert all(v < 1e-8 for v in cp.residuals.values())


def test_critical_temperature_is_a_degeneracy():
    cp = critical_temperature(ModelParams(L1, temperature=0.3, j4=1.0))
    assert cp.kind == "critical_temperature"
    t, m2 = cp.value, cp.order_param.values[1]
    assert abs(t - 0.2281647504091484) < 1e-9
    assert abs(m2 - 0.003044423898167548) < 1e-9
    assert abs(profile_slope(m2, t)) < 1e-9
    # ferro branch crosses the paramagnet free energy -T log 3
    pr = ModelParams(L1, temperature=t, j4=1.0)
    f_ferro = free_energy(pr, MomentVector(L1, (0.0, m2))).free_energy
    assert abs(f_ferro - (-t * math.log(3.0))) < 1e-10
    assert all(v < 1e-8 for v in cp.residuals.values())


def test_temperature_solvers_j2_variants():
    cp = spinodal_temperature(ModelParams(L1, temperature=0.3, j2=0.1, j4=1.0))
    assert abs(cp.value - 0.3688098289706491) < 1e-9
    cp = critical_temperature(ModelParams(L1, temperature=0.3, j2=-0.05, j4=1.0))
    assert abs(cp.value - 0.20517513500679085) < 1e-9


def test_temperature_solvers_scale_with_j4():
    # pure quartic model: T and J4 enter only through their ratio
    a = spinodal_temperature(ModelParams(L1, temperature=0.3, j4=1.0))
    b = spinodal_temperature(ModelParams(L1, temperature=0.3, j4=2.0))
    assert abs(b.value - 2.0 * a.value) < 1e-9
    np.testing.assert_allclose(b.order_param.values, a.order_param.values, atol=1e-9)
    a = critical_temperature(ModelParams(L1, temperature=0.3, j4=1.0))
    b = critical_temperature(ModelParams(L1, temperature=0.3, j4=2.0))
    assert abs(b.value - 2.0 * a.value) < 1e-9


def test_temperature_solvers_validation():
    pr = ModelParams(L1, temperature=0.3, j4=1.0, g=0.1, sector=Fraction(0))
    with pytest.raises(ValueError):
        spinodal_temperature(pr)
    with pytest.raises(ValueError):
        critical_temperature(pr)
    with pytest.raises(ValueError, match="g = 0"):
        critical_coupling(pr)
    pr5 = ModelParams(SpinQuantum(4), temperature=0.3, j4=1.0)
    for solver in (spinodal_temperature, critical_temperature, critical_coupling):
        with pytest.raises(ValueError):
            solver(pr5)
    # the m1 = 0 closed forms leave out the h0 level shift
    shifted = ModelParams(L1, temperature=0.3, j4=1.0, h0=0.1)
    for solver in (meanfield_m2, spinodal_temperature, critical_temperature,
                   critical_coupling):
        with pytest.raises(ValueError, match="h0 = 0"):
            solver(shifted)


# --- 3. coupling threshold ---


def registration_slope(m2, t, g, j4=1.0):
    """Slope of the registration profile whose tangency defines g_c.

    Carries the doubled exchange term 3 J4 p^3; the per-spin chart profile
    (what free_energy plots) has 1.5 J4 p^3 and a different, larger
    threshold, so the two must not be mixed.
    """
    p = 1.0 - 1.5 * m2
    return 3.0 * j4 * p**3 + t * math.log(m2 / (2.0 * (1.0 - m2))) + 1.5 * g


def stationary_count(t, g):
    m2 = np.linspace(1e-6, 0.6666, 60000)
    s = np.sign([registration_slope(v, t, g) for v in m2])
    return int(np.sum(s[:-1] != s[1:]))


def test_coupling_threshold_removes_the_barrier():
    """g_c is the tangency where barrier and shoulder minimum merge."""
    cp = critical_coupling(ModelParams(L1, temperature=0.4, j4=1.0))
    assert cp.kind == "critical_coupling"
    g_c = cp.value
    assert abs(g_c - 0.17064175898980052) < 1e-9
    m2_b = cp.order_param.values[1]
    assert abs(m2_b - 0.43520476355833637) < 1e-9

    # tangency conditions at the reported barrier location
    assert abs(registration_slope(m2_b, 0.4, g_c)) < 1e-10
    p = 1.0 - 1.5 * m2_b
    curv = -13.5 * p * p + 0.4 / (m2_b * (1.0 - m2_b))
    assert abs(curv) < 1e-8

    # below threshold: well, barrier, shoulder (3 stationary points);
    # above: the well alone
    assert stationary_count(0.4, 0.99 * g_c) == 3
    assert stationary_count(0.4, 1.01 * g_c) == 1
    assert cp.residuals["barrier_absent"] == 0.0


def test_coupling_threshold_monotone_in_temperature():
    vals = [
        critical_coupling(ModelParams(L1, temperature=t, j4=1.0)).value
        for t in (0.3, 0.4, 0.5)
    ]
    assert vals[0] < vals[1] < vals[2]
    assert abs(vals[0] - 0.11133834) < 1e-6
    assert abs(vals[2] - 0.23834023) < 1e-6


def test_coupling_threshold_homogeneity():
    a = critical_coupling(ModelParams(L1, temperature=0.35, j4=1.0)).value
    b = critical_coupling(ModelParams(L1, temperature=0.70, j4=2.0)).value
    assert abs(b - 2.0 * a) < 1e-9 * max(1.0, abs(b))


def test_coupling_threshold_large_j4_scaling():
    # quartic-dominated regime: g_c ~ const * T^{3/2} / sqrt(J4)
    seq = [
        critical_coupling(ModelParams(L1, temperature=0.4, j4=j4)).value
        for j4 in (1.0, 4.0, 16.0, 64.0)
    ]
    assert seq[0] > seq[1] > seq[2] > seq[3]
    ratios = [seq[i + 1] / seq[i] for i in range(3)]
    for r in ratios:
        assert abs(r - 0.5) < 0.06
    # scaled values settle down (Cauchy behaviour of g_c sqrt(J4))
    scaled = [g * math.sqrt(j4) for g, j4 in zip(seq, (1.0, 4.0, 16.0, 64.0))]
    assert abs(scaled[3] - scaled[2]) < abs(scaled[1] - scaled[0])
    # temperature exponent 3/2 in the same regime
    hot = critical_coupling(ModelParams(L1, temperature=0.8, j4=256.0)).value
    cold = critical_coupling(ModelParams(L1, temperature=0.4, j4=256.0)).value
    assert abs(hot / cold - 2.0**1.5) < 0.05


def test_coupling_threshold_gone_at_high_temperature():
    cp = critical_coupling(ModelParams(L1, temperature=1.2, j4=1.0))
    assert cp.value == 0.0
    assert cp.residuals["barrier_absent"] == 1.0
    np.testing.assert_allclose(cp.order_param.values, [0.0, 2.0 / 3.0], atol=1e-9)


# --- 4. multi-start minimization ---


def split(minima):
    glo = [r for r in minima if r.classification == "global"]
    loc = [r for r in minima if r.classification == "local"]
    return glo, loc


def test_minimize_ordered_phase_landscape():
    """Three degenerate broken minima plus the metastable paramagnet."""
    pr = ModelParams(L1, temperature=0.2, j4=1.0)
    res = minimize(pr)
    glo, loc = split(res)
    assert len(glo) == 3
    assert len(loc) == 1

    root = meanfield_m2(pr)
    f_ref = free_energy(pr, MomentVector(L1, (0.0, root))).free_energy
    spread = max(r.f_value for r in glo) - min(r.f_value for r in glo)
    assert spread < 1e-9
    assert abs(glo[0].f_value - f_ref) < 1e-10

    center = min(glo, key=lambda r: abs(r.m_star.values[0]))
    assert abs(center.m_star.values[0]) < 1e-8
    assert abs(center.m_star.values[1] - root) < 1e-8

    pm = loc[0]
    assert abs(pm.f_value - (-0.2 * math.log(3.0))) < 1e-9
    np.testing.assert_allclose(pm.m_star.values, [0.0, 2.0 / 3.0], atol=1e-7)


def test_minimize_orbit_images():
    pr = ModelParams(L1, temperature=0.2, j4=1.0)
    res = minimize(pr)
    glo, _ = split(res)
    center = min(glo, key=lambda r: abs(r.m_star.values[0]))
    m2s = center.m_star.values[1]
    images = orbit(center)
    assert len(images) == 3
    for mv in images:
        f = free_energy(pr, mv).free_energy
        assert abs(f - center.f_value) < 1e-8
    got = sorted(mv.values[0] for mv in images)
    want = sorted([0.0, 1.0 - 1.5 * m2s, -(1.0 - 1.5 * m2s)])
    np.testing.assert_allclose(got, want, atol=1e-8)
    for mv in images:
        if abs(mv.values[0]) > 0.1:
            assert abs(mv.values[1] - (1.0 - 0.5 * m2s)) < 1e-8


def test_minimize_paramagnetic_phase():
    pr = ModelParams(L1, temperature=0.4, j4=1.0)
    res = minimize(pr)
    glo, _ = split(res)
    assert len(glo) == 1
    pm = glo[0]
    assert abs(pm.f_value - (-0.4 * math.log(3.0))) < 1e-10
    np.testing.assert_allclose(pm.m_star.values, [0.0, 2.0 / 3.0], atol=1e-8)

    # brute-force grid never dips below the reported minimum
    m1g, m2g = np.meshgrid(np.linspace(-1.6, 1.6, 161), np.linspace(0.0, 1.0, 161))
    grid = np.column_stack([m1g.ravel(), m2g.ravel()])
    f, feas = free_energy_batch(pr, grid)
    gmin = np.nanmin(f[feas])
    assert gmin >= pm.f_value - 1e-9
    assert gmin <= pm.f_value + 1e-3
    at = grid[feas][np.nanargmin(f[feas])]
    assert abs(at[0]) < 0.03 and abs(at[1] - 2.0 / 3.0) < 0.03


def test_minimize_with_coupling_selects_sector():
    pr = ModelParams(L1, temperature=0.2, j4=1.0, g=0.15, sector=Fraction(0))
    res = minimize(pr)
    glo, loc = split(res)
    assert len(glo) == 1
    assert abs(glo[0].m_star.values[0]) < 1e-8
    assert abs(glo[0].m_star.values[1] - meanfield_m2(pr)) < 1e-8
    assert len(loc) == 2
    assert abs(loc[0].f_value - loc[1].f_value) < 1e-9
    assert glo[0].f_value < loc[0].f_value - 0.1


def test_minimize_sector_equivariance():
    pr0 = ModelParams(L1, temperature=0.2, j4=1.0, g=0.15, sector=Fraction(0))
    pr1 = ModelParams(L1, temperature=0.2, j4=1.0, g=0.15, sector=Fraction(1))
    g0 = split(minimize(pr0))[0][0]
    g1 = split(minimize(pr1))[0][0]
    assert abs(g0.f_value - g1.f_value) < 1e-10
    mapped = permutation_map_m(L1).apply(g0.m_star)
    np.testing.assert_allclose(g1.m_star.values, mapped.values, atol=1e-7)


def test_minimize_five_state_deep_order():
    # all five sector minima survive at T = 0.02 even though their
    # off-sector occupations underflow the moment chart
    l = SpinQuantum(4)
    pr = ModelParams(l, temperature=0.02, j4=1.0)
    res = minimize(pr)
    glo, _ = split(res)
    assert len(glo) == 5
    spread = max(r.f_value for r in glo) - min(r.f_value for r in glo)
    assert spread < 1e-8
    for r in glo:
        assert len(r.orbit) == 5
        assert r.hessian_eigen_min > -1e-8


def test_minimize_eight_state_paramagnet():
    l = SpinQuantum(7)
    pr = ModelParams(l, temperature=0.5, j4=0.1)
    res = minimize(pr)
    glo, _ = split(res)
    assert len(glo) == 1
    assert abs(glo[0].f_value - (-0.5 * math.log(8.0))) < 1e-9
    assert len(glo[0].orbit) == 8
    np.testing.assert_allclose(
        glo[0].m_star.values, paramagnet_moments(l).values, atol=1e-7
    )


def test_minimize_reports_stationarity():
    pr = ModelParams(L1, temperature=0.25, j4=1.0)
    for r in minimize(pr):
        ev = free_energy(pr, r.m_star)
        if ev.interior:
            assert np.linalg.norm(ev.gradient) < 1e-6
        assert abs(ev.free_energy - r.f_value) < 1e-10


def test_minimize_orbit_members_share_stability():
    # the five broken minima at 2l = 4 form one orbit: same F and the same
    # stability number; the bare paramagnet reports exactly T
    l = SpinQuantum(4)
    pr = ModelParams(l, temperature=0.2, j4=1.0)
    res = minimize(pr)
    broken = [r for r in res if abs(r.f_value + 0.2672763343) < 1e-9]
    assert len(broken) == 5
    for r in broken:
        assert min(
            np.max(np.abs(r.m_star.values - mv.values)) for mv in broken[0].orbit
        ) < 1e-7
    fs = [r.f_value for r in broken]
    eigs = [r.hessian_eigen_min for r in broken]
    assert max(fs) - min(fs) < 1e-12
    assert max(eigs) - min(eigs) < 1e-9
    assert abs(eigs[0] - 0.0452094542) < 1e-9
    para = [r for r in res if np.allclose(
        r.m_star.values, paramagnet_moments(l).values, atol=1e-7)]
    assert len(para) == 1
    assert abs(para[0].hessian_eigen_min - 0.2) < 1e-12


def test_minimize_dedups_in_weights_past_chart_resolution():
    # at 2l = 12 the monomial chart's roundoff spreads one point's moments
    # over more than the dedup tolerance; its weights do not
    l = SpinQuantum(12)
    pr = ModelParams(l, temperature=0.265, j4=1.124, g=0.076, sector=Fraction(-3))
    glo, _ = split(minimize(pr))
    assert len(glo) == 1


def test_minimize_lists_paramagnet_once():
    l = SpinQuantum(8)
    pr = ModelParams(l, temperature=0.02, j4=0.217)
    res = minimize(pr)
    # the uniform weights are the only point at F = -T ln 9
    para = [r for r in res if abs(r.f_value - (-0.02 * math.log(9.0))) < 1e-9]
    assert len(para) == 1
    assert para[0].classification == "local"
    assert len(split(res)[0]) == 9


def test_minimize_finds_shallow_local_orbit():
    l = SpinQuantum(4)
    pr = ModelParams(l, temperature=0.1968, j2=-0.257, j4=1.137, j8=0.291)
    res = minimize(pr)
    glo, loc = split(res)
    assert len(glo) == 1 and len(loc) == 5
    for r in loc:
        assert abs(r.f_value - (-0.2007477402)) < 1e-9
        assert abs(r.hessian_eigen_min - 0.0623715694) < 1e-9
        assert min(
            np.max(np.abs(r.m_star.values - mv.values)) for mv in loc[0].orbit
        ) < 1e-7


def test_minimize_finds_metastable_orbit_just_below_the_spinodal():
    # 0.999 T_ms, where roundoff decides whether a start leaves the plateau
    t = 0.999 * 3.2484242903515505e-4
    pr = ModelParams(SpinQuantum(3), temperature=t, j4=0.04296714758825315,
                     j6=-0.6843885197641604, j8=-0.6208721049933246)
    glo, loc = split(minimize(pr))
    assert len(glo) == 1 and math.isclose(glo[0].f_value, -t * math.log(4.0), rel_tol=1e-9)
    assert len(loc) == 4
    for r in loc:
        assert math.isclose(r.f_value, -4.466173046e-4, rel_tol=1e-9)
        assert r.hessian_eigen_min > 0.0


# Known losses at low T, where Sigma underflows and the descent stalls on the
# plateau: each input is listed correctly by the earlier log-weight descent,
# and its F is quoted to that code's printed digits.  A fix flips these.


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="only the paramagnet is kept, as saddle-rejected")
def test_minimize_finds_three_global_minima_at_low_temperature():
    pr = ModelParams(L1, temperature=2.4725542459624005e-4, j2=0.4673648323465873,
                     j4=-0.42154287970544124, j8=-0.6395052747825778)
    glo, _ = split(minimize(pr))
    assert len(glo) == 3
    for r in glo:
        assert math.isclose(r.f_value, -0.0932754, abs_tol=1e-7)


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="no start leaves the plateau where Sigma underflows")
@pytest.mark.parametrize("twice_l, kw, f_global", [
    (1, {"temperature": 1.7641662912347203e-4, "j2": -0.2840169537838537,
         "j6": -0.7120389176041297, "g": 0.11986306352598029,
         "sector": Fraction(1, 2)}, -0.0248472),
    (2, {"temperature": 1.3437871048640965e-3, "j2": -0.3961156102644938,
         "j4": -0.5289941738724364, "j6": -0.5478436609821837,
         "j8": -0.16992174541988847, "g": 0.04139470143441187,
         "sector": Fraction(1)}, -0.00361),
])
def test_minimize_converges_at_low_temperature_with_coupling(twice_l, kw, f_global):
    glo, _ = split(minimize(ModelParams(SpinQuantum(twice_l), **kw)))
    assert glo
    digits = 1e-7 if twice_l == 1 else 5e-6
    assert math.isclose(glo[0].f_value, f_global, abs_tol=digits)


def test_minimize_finds_coupled_local_pair():
    pr = ModelParams(L1, temperature=0.0254, j2=-0.218, j4=0.52, g=0.075,
                     sector=Fraction(1))
    glo, loc = split(minimize(pr))
    assert len(glo) == 1 and len(loc) == 2
    for r in loc:
        assert abs(r.f_value - 0.0164999613) < 1e-9
        assert r.hessian_eigen_min > 0.0


def test_minimize_keeps_ordered_minima_deep_in_order():
    # two occupations of each ordered minimum underflow to 0 at T = 0.002,
    # where the moment gradient is undefined and the weight residual is not
    pr = ModelParams(L1, temperature=0.002, j4=1.0)
    glo, loc = split(minimize(pr))
    assert len(glo) == 3 and len(loc) == 1
    for r in glo:
        assert abs(r.f_value - (-0.25)) < 1e-9
    assert abs(loc[0].f_value - (-0.0021972246)) < 1e-10


@pytest.mark.parametrize(
    "twice_l, couplings, n_global, f_global, eig_global",
    [
        # rings 0 < A < 1 along which the iterates read a stability number
        # of about -3e-7 while the minimum itself is convex
        (9, dict(temperature=0.01549, j2=0.219, j4=-0.42, j8=0.29),
         10, -0.057286017394, 3.659086e-7),
        (12, dict(temperature=0.07306, j2=0.866, j4=-0.379, j6=-0.427),
         13, -0.352900396755, 1.2483425e-6),
        # just below the continuous edge T = 0.5, and just above it
        (4, dict(temperature=0.4995, j2=1.0, j4=-0.4), 5, -0.803914515442, 3.868359e-6),
        (4, dict(temperature=0.5005, j2=1.0, j4=-0.4), 1, -0.5005 * math.log(5.0), 5e-4),
    ],
    ids=["ring-2l9", "ring-2l12", "below-edge-2l4", "above-edge-2l4"],
)
def test_minimize_settles_near_flat_valleys(monkeypatch, twice_l, couplings, n_global,
                                            f_global, eig_global):
    # _settle returns the number of steps each start took
    steps, settle = [], equilibrium._settle

    def recorded_settle(kernel, u):
        out = settle(kernel, u)
        steps.extend(out[2])
        return out

    monkeypatch.setattr(equilibrium, "_settle", recorded_settle)
    res = minimize(ModelParams(SpinQuantum(twice_l), **couplings))
    assert len(steps) == twice_l + 22 and max(steps) <= 200
    glo, loc = split(res)
    assert len(glo) == n_global and not loc
    for r in glo:
        assert abs(r.f_value - f_global) < 1e-11
        assert abs(r.hessian_eigen_min - eig_global) < 1e-12
    if n_global == 1:
        assert len(res) == 1  # the paramagnet alone


@pytest.mark.parametrize("twice_l", range(1, 13))
def test_settle_rows_independent_of_the_batch(monkeypatch, twice_l):
    # each start of minimize descends as it would alone: the stacked
    # descent and stability numbers equal 1-row calls bit for bit
    pr = ModelParams(SpinQuantum(twice_l), temperature=0.15, j2=0.2, j4=0.8,
                     j6=0.15, j8=-0.1, g=0.05, sector=Fraction(twice_l, 2),
                     h0=0.05 if twice_l == 2 else 0.0)
    calls, settle = [], equilibrium._settle
    monkeypatch.setattr(equilibrium, "_settle",
                        lambda kernel, u: calls.append((kernel, u)) or settle(kernel, u))
    minimize(pr)
    kernel, u = calls[0]
    assert u.shape == (twice_l + 22, 2)
    x, tangent_grad, steps = settle(kernel, u)
    t = pr.temperature
    eig = equilibrium._curvature(kernel, t, x)[2]
    for i in range(len(u)):
        xi, grad_i, steps_i = settle(kernel, u[i:i + 1])
        assert np.array_equal(xi[0], x[i])
        assert grad_i[0] == tangent_grad[i] and steps_i[0] == steps[i]
        assert equilibrium._curvature(kernel, t, x[i:i + 1])[2][0] == eig[i]


def dense_stability_eig(kernel, t, x):
    """The stability number by the full tangent-space eigensolve.

    r (H_E + T diag(1/x)) r on a complete QR basis of the complement of
    r = sqrt(x), then the smallest of its 2l eigenvalues, per row.
    """
    hess = dense_energy_hessian(kernel, x)
    r = np.sqrt(x)
    basis = np.linalg.qr(r[:, :, None], mode="complete")[0][..., 1:]
    scaled = r[:, :, None] * hess * r[:, None]
    return np.linalg.eigvalsh(basis.swapaxes(1, 2) @ scaled @ basis).min(axis=-1) + t


@pytest.mark.parametrize("twice_l", range(1, 21))
def test_stability_eig_matches_dense_reference(twice_l):
    # the 2x2 K Sigma form against the full eigensolve on random rows,
    # near-vertex rows (log weights scaled by 30) and the paramagnet; the
    # bare magnet's number is also the same at every cyclic relabeling
    rng = np.random.default_rng(twice_l)
    n = twice_l + 1
    for case in range(6):
        kw = dict(zip(("j2", "j4", "j6", "j8"), rng.uniform(-1.0, 1.0, 4)))
        if case >= 3:
            kw.update(g=rng.uniform(0.0, 0.2),
                      sector=Fraction(int(rng.integers(n))) - Fraction(twice_l, 2))
        if case == 5 and twice_l == 2:
            kw.update(h0=rng.uniform(-0.2, 0.2))
        pr = ModelParams(SpinQuantum(twice_l), temperature=rng.uniform(0.02, 0.5), **kw)
        kernel, t = _Kernel(pr), pr.temperature
        u = np.vstack([rng.normal(size=(10, n)), 30.0 * rng.normal(size=(10, n)),
                       np.zeros((1, n))])
        x = np.exp(u - u.max(axis=1, keepdims=True))
        x /= x.sum(axis=1, keepdims=True)
        eig = equilibrium._curvature(kernel, t, x)[2]
        ref = dense_stability_eig(kernel, t, x)
        bound = 1e-13 * np.maximum(np.abs(ref), t)
        assert np.all(np.abs(eig - ref) <= bound)
        if case < 3:
            for k in range(1, n):
                rolled = equilibrium._curvature(kernel, t, np.roll(x, k, axis=1))[2]
                assert np.all(np.abs(rolled - eig) <= bound)


@pytest.mark.parametrize("twice_l", range(1, 21))
def test_phase_derivatives_match_finite_differences(twice_l):
    # _settle's Newton step solves (alpha I + K Sigma / T) dlam = -g: central
    # differences of _phase_state (h = 1e-6 T) on random rows, near-vertex
    # rows (|lam| = 30 T) and lam = 0 give g's Jacobian I + K Sigma / T and
    # F's gradient Sigma g / T; the tangent output is T max|residual| of
    # the weight-space gradient at x(lam)
    rng = np.random.default_rng(100 + twice_l)
    n = twice_l + 1
    for case in range(6):
        kw = dict(zip(("j2", "j4", "j6", "j8"), rng.uniform(-1.0, 1.0, 4)))
        if case >= 3:
            kw.update(g=rng.uniform(0.0, 0.2),
                      sector=Fraction(int(rng.integers(n))) - Fraction(twice_l, 2))
        if case == 5 and twice_l == 2:
            kw.update(h0=rng.uniform(-0.2, 0.2))
        pr = ModelParams(SpinQuantum(twice_l), temperature=rng.uniform(0.02, 0.5), **kw)
        kernel, t = _Kernel(pr), pr.temperature
        angle = rng.uniform(0.0, 2.0 * math.pi, 10)
        lam = np.vstack([rng.normal(size=(10, 2)),
                         30.0 * t * np.column_stack([np.cos(angle), np.sin(angle)]),
                         np.zeros((1, 2))])
        x, f, gap, tangent = equilibrium._phase_state(kernel, lam)[:4]
        cov, k_cov, _ = equilibrium._curvature(kernel, t, x)
        jac = np.eye(2) + k_cov / t
        grad = (cov * gap[:, None]).sum(axis=-1) / t

        h = 1e-6 * t
        fd_jac, fd_grad = np.empty_like(jac), np.empty_like(lam)
        for j, step in enumerate(h * np.eye(2)):
            _, f_up, gap_up, _ = equilibrium._phase_state(kernel, lam + step)[:4]
            _, f_down, gap_down, _ = equilibrium._phase_state(kernel, lam - step)[:4]
            fd_jac[:, :, j] = (gap_up - gap_down) / (2.0 * h)
            fd_grad[:, j] = (f_up - f_down) / (2.0 * h)
        scale = np.abs(jac).max(axis=(1, 2))
        assert np.all(np.abs(fd_jac - jac).max(axis=(1, 2)) <= 1e-6 * scale)
        # the differenced gradient is no better than F's roundoff over 2h
        floor = 1e-16 * np.maximum(1.0, np.abs(f)) / h
        size = np.abs(grad).max(axis=1)
        assert np.all(np.abs(fd_grad - grad).max(axis=1) <= 1e-6 * size + 10.0 * floor)

        full = kernel.gradient(x[:, None])[:, 0]
        ref = np.abs(full - (x * full).sum(axis=1, keepdims=True)).max(axis=1)
        assert np.all(np.abs(tangent - ref) <= 1e-13 * np.maximum(1.0, np.abs(lam).max(axis=1)))


def test_settle_steps_are_newton_steps(monkeypatch):
    # a sector-1 coupling with h0 leaves no reflection axis, so K Sigma is
    # not symmetric at the minima; one step from 1e-4 off each squares the
    # tangent gradient (at most 0.26 t0**2 measured), as Newton's step on g
    # does and a step solved with (K Sigma)^T (8.6 t0**2 or more) does not
    pr = ModelParams(L1, temperature=0.2, j4=1.0, g=0.1, sector=Fraction(1), h0=0.1)
    kernel = _Kernel(pr)
    x = np.array([moments_to_weights_array(L1, r.m_star.values) for r in minimize(pr)
                  if r.classification != "saddle-rejected"])
    pq = x @ kernel.table
    lam = -2.0 * kernel.dphi((pq * pq).sum(axis=1))[0][:, None] * pq
    kick = 1e-4 * np.random.default_rng(0).normal(size=(4 * len(x), 2))
    start = np.repeat(lam, 4, axis=0) + kick
    before = equilibrium._phase_state(kernel, start)[3]
    monkeypatch.setattr(equilibrium, "ITERATION_CAP", 1)
    after = equilibrium._settle(kernel, start)[1]
    assert len(x) == 3 and np.all(after <= before**2)


def test_minimize_orbit_exact_past_chart_resolution():
    # the paramagnet is its own image; iterating the affine map on its
    # moments at 2l = 12 drifts by about 1e-2 relative
    pr = ModelParams(SpinQuantum(12), temperature=0.5, j4=1.0)
    for r in minimize(pr):
        scale = np.max(np.abs(r.m_star.values))
        assert len(r.orbit) == 13
        for mv in r.orbit:
            assert np.max(np.abs(mv.values - r.m_star.values)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "couplings",
    [
        {"j2": 0.6},
        {"j4": 1.0},
        {"j6": 1.4},
        {"j8": 1.8},
        {"j2": 0.2, "j4": 1.0, "j6": 0.3, "j8": 0.1, "g": 0.15},
    ],
)
def test_profile_closed_forms_match_free_energy(couplings):
    """The m1 = 0 closed forms against the shared kernel.

    m = (0, m2) is the weight vector x = (m2/2, 1 - m2, m2/2); the profile
    value, slope and curvature are F, dF/dm2 and d2F/dm2^2 there.
    """
    t = 0.3
    j = [couplings.get(k, 0.0) for k in ("j2", "j4", "j6", "j8")]
    g = couplings.get("g", 0.0)
    pr = ModelParams(L1, temperature=t, sector=Fraction(0) if g else None,
                     **couplings)
    profile = _Profile(*j, g)
    for m2 in (1e-6, 0.01, 0.2, 0.5, 2.0 / 3.0, 0.9):
        ev = free_energy(pr, MomentVector(L1, (0.0, m2)))
        slope = profile.slope(m2, t)
        curvature = profile.curvature(m2, t)
        assert abs(profile.value(m2, t) - ev.free_energy) < 1e-12
        assert abs(slope - ev.gradient[1]) < 1e-10 * max(1.0, abs(slope))
        assert abs(curvature - ev.hessian[1, 1]) < 1e-10 * max(1.0, abs(curvature))


def test_minimize_nonconvergence_carries_best_endpoint(monkeypatch):
    # no start passes the gradient test: the error carries the lowest
    # endpoint as (moments, ThermoEval)
    settle = equilibrium._settle

    def unconverged_settle(kernel, u):
        x, tangent_grad, steps = settle(kernel, u)
        return x, np.ones_like(tangent_grad), steps

    monkeypatch.setattr(equilibrium, "_settle", unconverged_settle)
    pr = ModelParams(L1, temperature=0.2, j4=1.0)
    with pytest.raises(NonConvergence) as info:
        minimize(pr)
    moments, ev = info.value.best
    assert abs(ev.free_energy - (-0.2502253885159645)) < 1e-9
    assert abs(free_energy(pr, moments).free_energy - ev.free_energy) < 1e-9


# --- 6. spinodal and critical temperature on the reflection-axis branch ---


def broken_minimum(params, want_global):
    """minimize finds a broken global minimum (or any broken minimum)."""
    pm = paramagnet_moments(params.l).values
    return any(
        np.max(np.abs(r.m_star.values - pm)) > 1e-3
        for r in minimize(params)
        if r.classification == "global"
        or (r.classification == "local" and not want_global)
    )


def test_branch_two_state_spinodal_closed_form():
    # 2l = 1: the branch is q = tanh(kappa) at T = J4 q**3 / atanh(q)
    peak = minimize_scalar(lambda q: -q**3 / math.atanh(q), bounds=(0.1, 0.99),
                           method="bounded", options={"xatol": 1e-12})
    ms, tc = branch_thresholds(ModelParams(SpinQuantum(1), temperature=0.3, j4=1.0))
    assert abs(ms.value - (-peak.fun)) < 1e-9
    assert abs(ms.value - 0.4957863024) < 1e-9
    assert ms.residuals["fold_eigenvalue"] < 1e-12
    assert ms.residuals["continuous"] == tc.residuals["continuous"] == 0.0
    assert 0.0 < tc.value < ms.value


@pytest.mark.parametrize(
    "couplings",
    [{"j4": 1.0}, {"j2": 0.3, "j4": 1.0}, {"j2": -0.2, "j4": 0.8, "j6": 0.3},
     {"j4": 1.0, "j8": 0.5}],
)
def test_branch_matches_three_state_closed_forms(couplings):
    pr = ModelParams(L1, temperature=0.3, **couplings)
    ms, tc = branch_thresholds(pr)
    closed_forms = (spinodal_temperature(pr), critical_temperature(pr))
    for point, closed in zip((ms, tc), closed_forms):
        assert point.kind == closed.kind
        assert abs(point.value - closed.value) < 1e-12
        np.testing.assert_allclose(point.order_param.values, closed.order_param.values,
                                   atol=1e-12)
        assert point.residuals["stationarity"] < 1e-12


@pytest.mark.parametrize("twice_l, edge", [(1, 1.0), (3, 0.5)])
def test_branch_continuous_transition(twice_l, edge):
    # J2 alone orders continuously where the paramagnet turns unstable
    l = SpinQuantum(twice_l)
    ms, tc = branch_thresholds(ModelParams(l, temperature=0.3, j2=1.0))
    for point in (ms, tc):
        assert abs(point.value - edge) < 1e-14
        assert point.residuals["continuous"] == 1.0
        np.testing.assert_allclose(point.order_param.values,
                                   paramagnet_moments(l).values, atol=1e-12)
    assert ms.residuals["fold_eigenvalue"] < 1e-14


@pytest.mark.parametrize(
    "twice_l, couplings",
    [(3, {"j4": 1.0}), (4, {"j4": 1.0}), (5, {"j4": 1.0}), (6, {"j4": 1.0}),
     (6, {"j2": -0.1, "j4": 0.25})],  # T_c below 0.02 (|J2| + J4)
)
def test_branch_thresholds_bracketed_by_minimize(twice_l, couplings):
    pr = ModelParams(SpinQuantum(twice_l), temperature=0.3, **couplings)
    ms, tc = branch_thresholds(pr)
    assert ms.value > tc.value > 0.0
    for point, want_global in ((ms, False), (tc, True)):
        for factor, expected in ((1 - 1e-3, True), (1 + 1e-3, False)):
            at = dataclasses.replace(pr, temperature=point.value * factor)
            assert broken_minimum(at, want_global) == expected


def test_branch_metastable_without_crossing():
    # the ordered state is metastable below T_ms but never the global one
    pr = ModelParams(SpinQuantum(3), temperature=0.3, j2=-0.15, j4=0.25)
    ms, tc = branch_thresholds(pr)
    assert tc is None
    assert abs(ms.value - 0.0198459) < 1e-6
    below = dataclasses.replace(pr, temperature=ms.value * (1 - 1e-3))
    assert broken_minimum(below, False) and not broken_minimum(below, True)


def test_branch_thresholds_validation():
    with pytest.raises(ValueError):
        branch_thresholds(ModelParams(SpinQuantum(3), temperature=0.3, j4=1.0, g=0.1,
                                      sector=Fraction(1, 2)))
    with pytest.raises(NoSolutionInBracket):
        branch_thresholds(ModelParams(SpinQuantum(3), temperature=0.3))
    with pytest.raises(NoSolutionInBracket):
        branch_thresholds(ModelParams(SpinQuantum(5), temperature=0.3, j2=-0.3, j4=0.2))
