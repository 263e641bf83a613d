"""Equilibrium states: minimization, mean-field profile, critical points.

Minimization runs over the occupation simplex (projected gradient with a
backtracking line search, then Newton polish in moment coordinates) from
a deterministic set of starts.  The three-state magnet additionally gets
closed-form machinery along its symmetric m1 = 0 profile: the mean-field
root, the spinodal and critical temperatures, and the coupling threshold
above which nothing blocks registration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NoSolutionInBracket, NonConvergence
from .order_params import (
    MomentVector,
    moment_orbit,
    moments_to_weights_array,
    paramagnet_moments,
    random_weights,
    weights_to_moments_array,
)
from .thermo import ModelParams, _Kernel, free_energy, free_energy_weights

GRAD_TOL = 1e-8
_DEDUP_TOL = 1e-6
_DEGENERACY_TOL = 1e-8
_SADDLE_TOL = -1e-8
ITERATION_CAP = 10_000
# occupations below this are distorted by cancellation in the moment chart,
# so such points are polished by self-consistency in x instead of Newton in m
_CHART_RESOLUTION = 1e-8


@dataclass(frozen=True, eq=False)
class Minimum:
    """A converged stationary point of the free energy.

    ``hessian_eigen_min`` is the smallest eigenvalue of the weight-space
    Hessian rescaled by sqrt(x) on both sides and restricted to the simplex
    (see _stability_eig): T at the paramagnet when J2 = 0, the same for
    every member of one symmetry orbit, and negative exactly at saddles, so
    its sign decides the classification.
    """

    m_star: MomentVector
    f_value: float
    classification: str  # "global" | "local" | "saddle-rejected"
    hessian_eigen_min: float
    orbit: list


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """A located transition; value is the temperature or coupling found."""

    kind: str  # "spinodal" | "critical_temperature" | "critical_coupling"
    value: float
    order_param: MomentVector
    residuals: dict


# ---------------------------------------------------------------------------
# free minimization over the simplex


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    cum = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > cum)[0][-1]
    theta = cum[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _descend(kernel: _Kernel, x0: np.ndarray, cap: int):
    """Projected gradient until progress stalls; returns (x, iterations used)."""
    x = x0.copy()
    f = kernel.value(x)
    step = 0.1
    used = 0
    for _ in range(cap):
        used += 1
        g = kernel.gradient(x)
        target = _project_simplex(x - step * g)
        d = target - x
        slope = float(g @ d)
        if np.max(np.abs(d)) < 1e-13 or slope > -1e-16:
            break
        t = 1.0
        f_new = kernel.value(x + d)
        while f_new > f + 1e-4 * t * slope and t > 1e-14:
            t *= 0.5
            f_new = kernel.value(x + t * d)
        if t <= 1e-14:
            break
        x = x + t * d
        f = f_new
        step = min(step * 1.3, 1e3) if t == 1.0 else step * max(t, 0.1)
    return x, used


def _stability_eig(kernel: _Kernel, x: np.ndarray) -> float:
    """Smallest eigenvalue of r (H_E + T diag(1/x)) r on the complement of r.

    Here r = sqrt(x) and H_E is the energy Hessian in x.  The simplex
    tangent directions are r*w with w orthogonal to r, so this is a
    congruence of the tangent-space Hessian (and of the moment Hessian):
    eigenvalue signs, and with them the minimum / saddle call, are kept.
    The matrix is r H_E r + T*I, bounded even where occupations underflow
    the moment chart, and a cyclic relabeling only permutes x, so every
    member of one orbit gets the same number.
    """
    r = np.sqrt(x)
    basis = np.linalg.qr(r[:, None], mode="complete")[0][:, 1:]
    scaled = r[:, None] * kernel.energy_hessian(x) * r
    return float(np.linalg.eigvalsh(basis.T @ scaled @ basis).min()) \
        + kernel.params.temperature


def _softmax_polish(params: ModelParams, kernel: _Kernel, x: np.ndarray, cap: int):
    """Mean-field self-consistency x <- softmax(-h(x)/T) from a descent endpoint.

    h is the energetic part of the x-gradient; the fixed points are exactly
    the interior stationary points of F.  Unlike the Newton polish this
    never leaves x-space, so it resolves the boundary-hugging minima whose
    occupations (~exp(-gap/T)) are far below what the moment chart can
    represent.  Returns (m, x, ThermoEval) at the final iterate.
    """
    t = params.temperature
    x = np.maximum(x, 1e-300)
    x = x / x.sum()
    logx = np.log(x)
    for _ in range(min(cap, 500)):
        z = -kernel.field(x) / t
        z -= z.max()
        x_new = np.exp(z)
        x_new /= x_new.sum()
        logx_new = np.log(np.maximum(x_new, 1e-300))
        done = np.max(np.abs(logx_new - logx)) < 1e-13
        x, logx = x_new, logx_new
        if done:
            break
    return weights_to_moments_array(params.l, x), x, free_energy_weights(params, x)


def _polish(params: ModelParams, x: np.ndarray, cap: int):
    """Newton in moment coordinates from a descent endpoint.

    Returns (m, x, ThermoEval) at the final iterate, x being the weights
    the evaluation used, or None when the point is stuck on the boundary.
    """
    m = weights_to_moments_array(params.l, x)
    x = moments_to_weights_array(params.l, m)
    ev = free_energy(params, m)
    if not ev.interior:
        return None
    for _ in range(min(cap, 80)):
        if np.max(np.abs(ev.gradient)) < 1e-11:
            break
        try:
            delta = np.linalg.solve(ev.hessian, -ev.gradient)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(ev.hessian, -ev.gradient, rcond=None)[0]
        ref = np.max(np.abs(ev.gradient))
        t = 1.0
        accepted = None
        while t > 1e-12:
            m_new = m + t * delta
            w = moments_to_weights_array(params.l, m_new)
            if w.min() > 0.0:
                ev_new = free_energy(params, m_new)
                if ev_new.interior and np.max(np.abs(ev_new.gradient)) < ref:
                    accepted = (m_new, w, ev_new)
                    break
            t *= 0.5
        if accepted is None:
            break
        m, x, ev = accepted
    return m, x, ev


def minimize(params: ModelParams, n_random: int = 20, seed: int = 0) -> list[Minimum]:
    """Multi-start minimization of F over the occupation simplex.

    Starts: the paramagnet, every vertex pulled 1e-3 into the interior,
    and ``n_random`` uniform simplex samples.  Converged points (interior
    gradient below GRAD_TOL) are deduplicated within 1e-6 in max norm and
    returned sorted by free energy; points degenerate with the lowest are
    labeled "global", the rest "local", and stationary points with a
    negative Hessian direction "saddle-rejected".  Raises NonConvergence
    with the best iterate when no start converges.
    """
    l = params.l
    n = l.n_states
    rng = np.random.default_rng(seed)
    uniform = np.full(n, 1.0 / n)
    starts = [uniform]
    for j in range(n):
        vertex = np.zeros(n)
        vertex[j] = 1.0
        starts.append(0.999 * vertex + 0.001 * uniform)
    starts.extend(random_weights(l, rng, n_random))

    kernel = _Kernel(params)
    pg_cap = ITERATION_CAP // 2
    candidates = []
    best = None
    for x0 in starts:
        x, used = _descend(kernel, np.asarray(x0, dtype=float), pg_cap)
        cap_left = ITERATION_CAP - used
        if x.min() >= _CHART_RESOLUTION:
            polished = _polish(params, x, cap_left)
            if polished is not None and polished[1].min() < _CHART_RESOLUTION:
                # Newton walked into chart-resolution territory
                polished = _softmax_polish(params, kernel, polished[1], cap_left)
        else:
            polished = _softmax_polish(params, kernel, x, cap_left)
        if polished is None:
            continue
        m, x, ev = polished
        gnorm = np.max(np.abs(ev.gradient)) if ev.gradient is not None else np.inf
        if best is None or ev.free_energy < best[1].free_energy:
            best = (m, ev)
        if gnorm < GRAD_TOL:
            candidates.append((m, x, ev))

    if not candidates:
        raise NonConvergence(
            f"no start converged below gradient tolerance {GRAD_TOL}",
            best=best,
        )

    candidates.sort(key=lambda c: c[2].free_energy)
    kept = []
    for m, x, ev in candidates:
        if any(np.max(np.abs(m - m_prev)) < _DEDUP_TOL for m_prev, _, _ in kept):
            continue
        kept.append((m, ev, _stability_eig(kernel, x)))

    true_minima = [ev.free_energy for _, ev, e in kept if e > _SADDLE_TOL]
    f_best = min(true_minima) if true_minima else kept[0][1].free_energy
    out = []
    for m, ev, eig_min in kept:
        if eig_min < _SADDLE_TOL:
            label = "saddle-rejected"
        elif ev.free_energy <= f_best + _DEGENERACY_TOL:
            label = "global"
        else:
            label = "local"
        mv = MomentVector(l, m)
        out.append(
            Minimum(
                m_star=mv,
                f_value=float(ev.free_energy),
                classification=label,
                hessian_eigen_min=eig_min,
                orbit=moment_orbit(mv),
            )
        )
    return out


def orbit(minimum: Minimum) -> list[MomentVector]:
    """The symmetry images of a minimum (the lowest-F basin repeats 2l+1 times)."""
    return list(minimum.orbit)


# ---------------------------------------------------------------------------
# the symmetric m1 = 0 profile of the three-state magnet

_M2_TOP = 2.0 / 3.0


def _require_three_state(params: ModelParams, op: str):
    if params.l.twice_l != 2:
        raise ValueError(f"{op} is defined for twice_l = 2 only")


def _profile_value(m2, t, j2, j4, j6, j8, g):
    p = 1.0 - 1.5 * m2
    e = -(j2 / 2) * p**2 - (j4 / 4) * p**4 - (j6 / 6) * p**6 - (j8 / 8) * p**8 \
        - g * p
    ent = 0.0
    if m2 < 1.0:
        ent -= (1.0 - m2) * math.log(1.0 - m2)
    if m2 > 0.0:
        ent -= m2 * math.log(m2 / 2.0)
    return e - t * ent


def _profile_slope(m2, t, j2, j4, j6, j8, g):
    p = 1.0 - 1.5 * m2
    field = 1.5 * (j2 * p + j4 * p**3 + j6 * p**5 + j8 * p**7 + g)
    return field + t * np.log(m2 / (2.0 * (1.0 - m2)))


def _profile_curvature(m2, t, j2, j4, j6, j8):
    p = 1.0 - 1.5 * m2
    return (
        -2.25 * j2 - 6.75 * j4 * p**2 - 11.25 * j6 * p**4 - 15.75 * j8 * p**6
        + t / (m2 * (1.0 - m2))
    )


def _profile_coeffs(params: ModelParams, with_g: bool):
    g = params.g if with_g else 0.0
    if g > 0 and params.sector is not None and params.sector != 0:
        raise ValueError("the coupled m1 = 0 profile is the sector-0 one")
    return params.j2, params.j4, params.j6, params.j8, g


def _sign_change_roots(f, grid):
    """Roots of f bracketed by consecutive grid points, refined by brentq.

    f must accept the grid as an array.
    """
    vals = np.asarray(f(grid), dtype=float)
    out = [float(v) for v, fv in zip(grid, vals) if fv == 0.0]
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        out.append(
            float(brentq(f, grid[i], grid[i + 1], xtol=1e-300, rtol=1e-14))
        )
    out.sort()
    return out


def meanfield_m2(params: ModelParams) -> float:
    """Smallest root of the m1 = 0 self-consistency condition.

    Solves dF/dm2 = 0 on (0, 2/3) by bracketed bisection segmented at the
    roots of the curvature: between consecutive curvature roots the slope
    is monotone, so the smallest root cannot be skipped even arbitrarily
    close to the spinodal tangency where two roots merge.  The coupling g
    (sector 0) shifts the equation.  With g = 0 and T above the spinodal
    only the paramagnet root m2 = 2/3 survives and NoSolutionInBracket is
    raised.  When the slope is already positive at the smallest
    representable m2 the branch sits below double-precision range and
    the boundary value 0.0 is returned.
    """
    _require_three_state(params, "meanfield_m2")
    j2, j4, j6, j8, g = _profile_coeffs(params, with_g=True)
    t = params.temperature

    def slope(m2):
        return _profile_slope(m2, t, j2, j4, j6, j8, g)

    def curvature(m2):
        return _profile_curvature(m2, t, j2, j4, j6, j8)

    floor = 1e-250
    top = _M2_TOP * (1.0 - 1e-12)
    if slope(floor) > 0.0:
        return 0.0
    breaks = _sign_change_roots(curvature, np.geomspace(1e-12, top, 3000))
    edges = [floor] + [b for b in breaks if floor < b < top] + [top]
    for a, b in zip(edges, edges[1:]):
        fa, fb = slope(a), slope(b)
        if fa == 0.0:
            return float(a)
        if fa * fb < 0.0:
            return float(brentq(slope, a, b, xtol=1e-300, rtol=1e-14))
    raise NoSolutionInBracket(
        "no ferromagnetic branch: the profile slope never turns positive "
        f"below m2 = 2/3 at T = {t}"
    )


def spinodal_temperature(params: ModelParams) -> CriticalPoint:
    """Endpoint of the metastable ferromagnetic branch on the m1 = 0 profile.

    Finds (T_ms, m2_ms) where slope and curvature of the profile vanish
    together, eliminating T through the curvature condition and
    bracketing the remaining 1-D equation.  Defined for twice_l = 2 with
    g = 0; nonzero j2/j6/j8 are solved too but flagged as extrapolation.
    """
    _require_three_state(params, "spinodal_temperature")
    if params.g != 0.0:
        raise ValueError("spinodal_temperature expects g = 0")
    j2, j4, j6, j8, _ = _profile_coeffs(params, with_g=False)

    def t_of(m2):
        p = 1.0 - 1.5 * m2
        psi = 2.25 * j2 + 6.75 * j4 * p**2 + 11.25 * j6 * p**4 + 15.75 * j8 * p**6
        return m2 * (1.0 - m2) * psi

    def reduced(m2):
        return _profile_slope(m2, t_of(m2), j2, j4, j6, j8, 0.0)

    grid = np.geomspace(1e-8, _M2_TOP * (1.0 - 1e-9), 4000)
    roots = [r for r in _sign_change_roots(reduced, grid) if t_of(r) > 0.0]
    if not roots:
        raise NoSolutionInBracket("no spinodal point on the m1 = 0 profile")
    m2_ms = roots[0]
    t_ms = float(t_of(m2_ms))
    extrapolation = float(j2 != 0.0 or j6 != 0.0 or j8 != 0.0)
    return CriticalPoint(
        kind="spinodal",
        value=t_ms,
        order_param=MomentVector(params.l, np.array([0.0, m2_ms])),
        residuals={
            "stationarity": abs(_profile_slope(m2_ms, t_ms, j2, j4, j6, j8, 0.0)),
            "curvature": abs(_profile_curvature(m2_ms, t_ms, j2, j4, j6, j8)),
            "extrapolation": extrapolation,
        },
    )


def critical_temperature(params: ModelParams) -> CriticalPoint:
    """Temperature where ferromagnet and paramagnet free energies cross.

    Bisects T below the spinodal for F(ferro branch) = -T ln 3, the
    paramagnet value.  Defined for twice_l = 2 with g = 0; nonzero
    j2/j6/j8 flagged as extrapolation.
    """
    _require_three_state(params, "critical_temperature")
    if params.g != 0.0:
        raise ValueError("critical_temperature expects g = 0")
    j2, j4, j6, j8, _ = _profile_coeffs(params, with_g=False)
    t_ms = spinodal_temperature(params).value

    def ferro_gap(t):
        trial = ModelParams(l=params.l, temperature=t, j2=j2, j4=j4, j6=j6, j8=j8)
        m2 = meanfield_m2(trial)
        return _profile_value(m2, t, j2, j4, j6, j8, 0.0) + t * math.log(3.0)

    lo = t_ms * 1e-4
    hi = t_ms * (1.0 - 1e-9)
    if ferro_gap(lo) >= 0.0 or ferro_gap(hi) <= 0.0:
        raise NoSolutionInBracket(
            "free-energy crossing not bracketed below the spinodal"
        )
    t_c = float(brentq(ferro_gap, lo, hi, xtol=1e-13, rtol=1e-15))
    m2_c = meanfield_m2(
        ModelParams(l=params.l, temperature=t_c, j2=j2, j4=j4, j6=j6, j8=j8)
    )
    extrapolation = float(j2 != 0.0 or j6 != 0.0 or j8 != 0.0)
    return CriticalPoint(
        kind="critical_temperature",
        value=t_c,
        order_param=MomentVector(params.l, np.array([0.0, m2_c])),
        residuals={
            "stationarity": abs(_profile_slope(m2_c, t_c, j2, j4, j6, j8, 0.0)),
            "degeneracy": abs(
                _profile_value(m2_c, t_c, j2, j4, j6, j8, 0.0) + t_c * math.log(3.0)
            ),
            "extrapolation": extrapolation,
        },
    )


def critical_coupling(params: ModelParams) -> CriticalPoint:
    """Smallest sector-0 coupling that unblocks registration at temperature T.

    The threshold convention weighs the exchange field at twice its
    thermodynamic rate (equivalently: the m1 = 0 barrier condition taken
    at (T/2, g/2)); the barrier between the paramagnet and the registered
    state disappears at the tangency of that condition.  Returns g_c with
    the barrier location as order parameter.  When no barrier exists at
    any coupling the threshold is 0 and ``barrier_absent`` is flagged in
    the residuals.
    """
    _require_three_state(params, "critical_coupling")
    j2, j4, j6, j8, _ = _profile_coeffs(params, with_g=False)
    t = params.temperature

    def base(m2):
        # threshold slope at g = 0: doubled exchange weight
        p = 1.0 - 1.5 * m2
        field = 3.0 * (j2 * p + j4 * p**3 + j6 * p**5 + j8 * p**7)
        return field + t * math.log(m2 / (2.0 * (1.0 - m2)))

    def base_slope(m2):
        p = 1.0 - 1.5 * m2
        return (
            -4.5 * j2 - 13.5 * j4 * p**2 - 22.5 * j6 * p**4 - 31.5 * j8 * p**6
            + t / (m2 * (1.0 - m2))
        )

    # the tangency sits at the upper zero of base_slope (local maximum of
    # the required coupling); 1e4-point scan, then refinement
    grid = np.linspace(1e-6, _M2_TOP * (1.0 - 1e-9), 10_000)
    zeros = _sign_change_roots(base_slope, grid)
    extrapolation = float(j2 != 0.0 or j6 != 0.0 or j8 != 0.0)
    if not zeros:
        return CriticalPoint(
            kind="critical_coupling",
            value=0.0,
            order_param=paramagnet_moments(params.l),
            residuals={"barrier_absent": 1.0, "extrapolation": extrapolation},
        )
    m2_b = zeros[-1]
    g_c = -2.0 / 3.0 * base(m2_b)
    if g_c <= 0.0:
        return CriticalPoint(
            kind="critical_coupling",
            value=0.0,
            order_param=paramagnet_moments(params.l),
            residuals={"barrier_absent": 1.0, "extrapolation": extrapolation},
        )
    return CriticalPoint(
        kind="critical_coupling",
        value=float(g_c),
        order_param=MomentVector(params.l, np.array([0.0, m2_b])),
        residuals={
            "tangency": abs(base(m2_b) + 1.5 * g_c),
            "tangency_slope": abs(base_slope(m2_b)),
            "barrier_absent": 0.0,
            "extrapolation": extrapolation,
        },
    )
