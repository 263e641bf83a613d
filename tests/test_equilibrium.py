"""Profile solvers and the multi-start minimizer.

Reference numbers checked against an independent high-precision root find;
structural tests (tangency, degeneracy, scaling collapse) recompute the
defining conditions in place rather than trusting stored constants.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from curieweiss import (
    ModelParams,
    MomentVector,
    NoSolutionInBracket,
    SpinQuantum,
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
from curieweiss.equilibrium import _profile_curvature, _profile_slope, _profile_value

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
    pr5 = ModelParams(SpinQuantum(4), temperature=0.3, j4=1.0)
    for solver in (spinodal_temperature, critical_temperature, critical_coupling):
        with pytest.raises(ValueError):
            solver(pr5)


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
    for m2 in (1e-6, 0.01, 0.2, 0.5, 2.0 / 3.0, 0.9):
        ev = free_energy(pr, MomentVector(L1, (0.0, m2)))
        slope = _profile_slope(m2, t, *j, g)
        curvature = _profile_curvature(m2, t, *j)
        assert abs(_profile_value(m2, t, *j, g) - ev.free_energy) < 1e-12
        assert abs(slope - ev.gradient[1]) < 1e-10 * max(1.0, abs(slope))
        assert abs(curvature - ev.hessian[1, 1]) < 1e-10 * max(1.0, abs(curvature))
