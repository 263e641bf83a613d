"""Equilibrium states: minimization, mean-field profile, critical points.

F depends on the weights only through the mean phase p and a linear term,
so every stationary point is x(lam) = softmax((C lam - b)/T) for a
two-vector lam.  Minimization descends in lam from a seeded set of
starts, by Newton steps on the self-consistency map lam + 2 phi'(A) p = 0
shifted by twice any negative stability number.  Stationary points are
deduplicated by their weights, and saddles are reported only when a
start lands on one.  The three-state magnet additionally gets closed
forms along its symmetric m1 = 0 profile, all read from one F(m2, T)
object with h0 = 0: the mean-field root (g in sector 0 allowed) and, for
the bare magnet, the spinodal and critical temperatures and the coupling
threshold above which nothing blocks registration.  For every l,
branch_thresholds finds the spinodal and critical temperatures on the
explicit reflection-axis branches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._numerics import brentq
from .errors import NoSolutionInBracket, NonConvergence
from .order_params import MomentVector, weights_to_moments_array
from .spectrum import SpinQuantum
from .thermo import ModelParams, _entropy, _Kernel, _mean_phase, free_energy_weights

GRAD_TOL = 1e-8
_DEDUP_TOL = 1e-6
_DEGENERACY_TOL = 1e-8
_SADDLE_TOL = -1e-8
ITERATION_CAP = 10_000
RANDOM_STARTS = 20


@dataclass(frozen=True, eq=False)
class Minimum:
    """A converged stationary point of the free energy.

    ``hessian_eigen_min`` is the stability number T + eig(K Sigma) that
    _curvature reads off the 2x2 mean-phase curvature: the smallest
    eigenvalue of the sqrt(x)-rescaled weight-space Hessian on the simplex.
    It is T at the paramagnet when J2 = 0, the same for every orbit member,
    and negative exactly at saddles: its sign decides the classification.
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


def _curvature(kernel: _Kernel, t: float, x: np.ndarray, phase=None):
    """Sigma and K Sigma (S, 2, 2) and the stability number (S,), per row of
    x, shape (S, 2l+1); phase is (p, A, phi'(A), phi''(A)) at x as
    _phase_state returns it, or None to read it off x.

    H_E = C K C^T has rank 2, so on the simplex it acts through K Sigma,
    Sigma = sum x (c - p)(c - p)^T summed centred (C^T X C - p p^T cancels).
    The stability number, the smallest eigenvalue of r (H_E + T diag(1/x)) r
    on the complement of r = sqrt(x) (a congruence of the tangent Hessian, so
    the minimum / saddle call keeps its sign), is T + eig(K Sigma), T on the
    other 2l - 2 directions, and T + tr(K Sigma) at 2l = 1, whose one
    direction is Q.  Orbit members share it; no row reads another row.
    """
    pq, _, d1, d2 = _row_phase(kernel, x) if phase is None else phase
    dev = kernel.table.T - pq[:, :, None]
    cov = (x[:, None] * dev) @ dev.swapaxes(1, 2)  # Sigma
    m = kernel.curvature(pq, d1, d2) @ cov
    half_tr, half_gap = (m[:, 0, 0] + m[:, 1, 1]) / 2, (m[:, 0, 0] - m[:, 1, 1]) / 2
    if x.shape[-1] == 2:
        eig = t + 2.0 * half_tr
    else:
        low = half_tr - np.sqrt(np.maximum(0.0, half_gap**2 + m[:, 0, 1] * m[:, 1, 0]))
        eig = t + (low if x.shape[-1] == 3 else np.minimum(low, 0.0))
    return cov, m, eig


def _softmax(v: np.ndarray) -> np.ndarray:
    v = v - v.max(axis=-1, keepdims=True)  # same x, per row; keeps exp bounded
    z = np.exp(v)
    return z / z.sum(axis=-1, keepdims=True)


def _row_phase(kernel: _Kernel, x: np.ndarray):
    """p (S, 2), A, phi'(A) and phi''(A) (S,) per row of x; stacked per row."""
    pq, a = (v[:, 0] for v in _mean_phase(kernel.table, x[:, None]))
    return (pq, a, *kernel.dphi(a))


def _phase_state(kernel: _Kernel, lam: np.ndarray):
    """The weights x = softmax((C lam - b)/T), F there, the gap g = lam +
    2 phi'(A) p, the tangent gradient max_sigma |(c_sigma - p).g| and the
    phase (p, A, phi'(A), phi''(A)) that _curvature reads, per row of lam.

    Every stationary point of F on the simplex is such an x with g = 0.  The
    tangent gradient is T times the mean-field residual h/T + ln x less its
    x-weighted mean, read from g, so it stays exact where occupations
    underflow.  F's gradient in lam is Sigma g / T and g's Jacobian is
    I + K Sigma / T (_curvature).  Every product is stacked per row.
    """
    t = kernel.params.temperature
    c = kernel.table
    x = _softmax((c[:, 0] * lam[:, :1] + c[:, 1] * lam[:, 1:] - kernel.b) / t)
    phase = _row_phase(kernel, x)
    pq, a, d1 = phase[:3]
    gap = lam + 2.0 * d1[:, None] * pq
    tangent = np.abs(gap[:, None] @ (c.T - pq[:, :, None])).max(axis=-1)[:, 0]
    f = kernel.phi(a) + (x[:, None] @ kernel.b)[:, 0] - t * _entropy(x)  # kernel.value, bitwise
    return (x, f, gap, tangent, *phase)


def _newton_step(t: float, m: np.ndarray, eig: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """d of ((1 + mu/T) I + m/T) d = -gap, mu = max(0, -2 eig), m = K Sigma and
    eig as _curvature gives them, per row, by Cramer's rule."""
    alpha = 1.0 + np.maximum(0.0, -2.0 * eig) / t
    (a, b), (c, d) = (alpha[:, None, None] * np.eye(2) + m / t).transpose(1, 2, 0)
    return np.column_stack([b * gap[:, 1] - d * gap[:, 0],
                            c * gap[:, 0] - a * gap[:, 1]]) / (a * d - b * c)[:, None]


def _settle(kernel: _Kernel, lam: np.ndarray):
    """Descend F from every row of lam, shape (S, 2), at once; return per row
    the final x(lam), its tangent gradient (_phase_state) and the steps.

    Each step is Newton's on the self-consistency map g(lam) = 0, shifted:
    ((1 + mu/T) I + K Sigma / T) dlam = -g with mu = max(0, -2 lambda),
    lambda the stability number.  In sqrt(x)-scaled tangent coordinates mu
    adds to the stability matrix, so the factor 2 mirrors lambda < 0 to
    |lambda|: mu = 0 where F is locally convex, and for large mu dlam tends
    to the mean-field step -g T/(T + mu).  The step descends F, whose
    gradient is Sigma g / T.  Steps backtrack on F (Armijo), or, with F
    within its roundoff, are taken if they halve the tangent gradient.

    A row retires once its tangent gradient is below 1e-13 T or its step
    falls to 1e-14.  Each round evaluates every row once (_phase_state, whose
    phase the next step's curvature reads), with a zero step where a row is
    retired or has taken its step: x(lam) depends on lam alone, so that row
    keeps its state bit for bit, and stacked products keep each row's path
    the one it would take alone.
    """
    t = kernel.params.temperature
    lam = np.array(lam, dtype=float)
    state = (lam, *_phase_state(kernel, lam))  # lam, x, F, gap, tangent, p, A, phi', phi''
    steps, stuck = np.zeros(len(lam), dtype=int), np.zeros(len(lam), dtype=bool)
    for _ in range(ITERATION_CAP):
        todo = (state[4] >= 1e-13 * t) & ~stuck
        if not todo.any():
            break
        steps += todo
        f, gap = state[2], state[3]
        cov, m, eig = _curvature(kernel, t, state[1], state[5:])
        d = np.where(todo[:, None], _newton_step(t, m, eig, gap), 0.0)
        slope = (gap[:, :, None] * cov * d[:, None]).sum(axis=(1, 2)) / t
        flat, half = f + 1e-14 * np.maximum(1.0, np.abs(f)), 0.5 * state[4]
        step = 1.0
        while True:
            lam_new = state[0] + step * d
            new = (lam_new, *_phase_state(kernel, lam_new))
            ok = ~todo | (new[2] < f + 1e-4 * step * slope) | (
                (new[2] <= flat) & (new[4] <= half))
            if ok.all():
                state = new
                break
            for v, v_new in zip(state, new):
                np.copyto(v, v_new, where=ok[:, None] if v.ndim == 2 else ok)
            todo, step = ~ok, 0.5 * step
            d = np.where(todo[:, None], d, 0.0)
            if step <= 1e-14:
                stuck |= todo
                break
    return state[1], state[4], steps


def minimize(params: ModelParams, seed: int = 0) -> list[Minimum]:
    """Multi-start minimization of F over the occupation simplex.

    Every stationary point has weights x(lam) = softmax((C lam - b)/T) for a
    mean-phase vector lam with |lam| <= R = |J2| + |J4| + |J6| + |J8|, so the
    descent runs in lam (_settle).  Starts: lam = 0, R c_sigma toward each
    vertex, and RANDOM_STARTS points uniform in the disk |lam| <= R drawn
    from seed.  All starts descend as one batch by shifted Newton steps
    (Newton's step where F is locally convex, shifted toward the mean-field
    direction elsewhere).  Endpoints whose tangent gradient (T times the
    final mean-field residual, exact even where occupations underflow) is
    below GRAD_TOL are deduplicated within 1e-6 in the max norm of their
    weights and returned sorted by free energy; points degenerate with the
    lowest are labeled "global", the rest "local".  The descent leaves
    saddles, so a stationary point with a negative Hessian direction is
    reported ("saddle-rejected") only when a start lands on one, e.g. the
    symmetric paramagnet start.  Raises NonConvergence with the best
    iterate when no start converges.  Each orbit member is computed from
    the cyclically shifted weights, not by iterating the affine map on
    moments, so it carries no compounded roundoff.
    """
    l = params.l
    kernel = _Kernel(params)
    reach = abs(params.j2) + abs(params.j4) + abs(params.j6) + abs(params.j8)
    radius, turn = np.random.default_rng(seed).uniform(size=(2, RANDOM_STARTS))
    disk = reach * np.sqrt(radius) * np.exp(2j * math.pi * turn)
    starts = np.vstack([np.zeros((1, 2)), reach * kernel.table,
                        np.column_stack([disk.real, disk.imag])])

    x, tangent_grad, _ = _settle(kernel, starts)
    # renormalized as free_energy_weights does; a**k on rows can differ from
    # its scalar pow in the last bit, so F agrees with it to about 1e-16
    f = kernel.value((x / x.sum(axis=-1, keepdims=True))[:, None])[:, 0]
    converged = np.flatnonzero(tangent_grad < GRAD_TOL)
    if not converged.size:
        best = x[np.argmin(f)]
        raise NonConvergence(
            f"no start converged below gradient tolerance {GRAD_TOL}",
            best=(weights_to_moments_array(l, best), free_energy_weights(params, best)),
        )

    order = converged[np.argsort(f[converged], kind="stable")]
    # kept unless within _DEDUP_TOL (max norm of the weights) of a lower point kept
    near = (np.abs(x[order, None] - x[order]).max(axis=-1) < _DEDUP_TOL).tolist()
    kept = []
    for i, row in enumerate(near):
        if not any(row[j] for j in kept):
            kept.append(i)
    kept = order[kept]
    eigs = _curvature(kernel, params.temperature, x[kept])[2]

    true_minima = f[kept][eigs > _SADDLE_TOL]
    f_best = true_minima.min() if true_minima.size else f[kept[0]]
    # orbits from one gather of the cyclic shifts (row k: np.roll by k) and one
    # chart product, stacked per member
    shifts = (np.arange(l.n_states) - np.arange(l.n_states)[:, None]) % l.n_states
    orbits = weights_to_moments_array(l, x[kept][:, shifts][:, :, None])[:, :, 0]
    out = []
    for f_min, eig_min, members in zip(f[kept].tolist(), eigs.tolist(), orbits):
        if eig_min < _SADDLE_TOL:
            label = "saddle-rejected"
        elif f_min <= f_best + _DEGENERACY_TOL:
            label = "global"
        else:
            label = "local"
        orbit = [MomentVector(l, m) for m in members]
        out.append(Minimum(m_star=orbit[0], f_value=f_min, classification=label,
                           hessian_eigen_min=eig_min, orbit=orbit))
    return out


def orbit(minimum: Minimum) -> list[MomentVector]:
    """The symmetry images of a minimum (the lowest-F basin repeats 2l+1 times)."""
    return list(minimum.orbit)


# ---------------------------------------------------------------------------
# the symmetric m1 = 0 profile of the three-state magnet

_M2_TOP = 2.0 / 3.0
# the grid on which _Profile.root brackets the curvature roots
_ROOT_GRID = np.geomspace(1e-12, _M2_TOP * (1.0 - 1e-12), 3000)
_ROOT_GRID.setflags(write=False)


def _sign_change_roots(f, grid, *args):
    """Roots of f(., *args) bracketed by consecutive grid points, refined by brentq.

    f must accept the grid as an array.
    """
    vals = np.asarray(f(grid, *args), dtype=float)
    out = grid[vals == 0.0].tolist()
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        out.append(brentq(f, grid[i], grid[i + 1], args))
    out.sort()
    return out


@dataclass(frozen=True)
class _Profile:
    """F(m2, T) of the three-state magnet along m1 = 0, weights (m2/2, 1 - m2, m2/2).

    p = 1 - 1.5 m2 is the mean phase there; g is the sector-0 coupling.
    """

    j2: float
    j4: float
    j6: float
    j8: float
    g: float

    def value(self, m2, t):
        p = 1.0 - 1.5 * m2
        e = -(self.j2 / 2) * p**2 - (self.j4 / 4) * p**4 - (self.j6 / 6) * p**6 \
            - (self.j8 / 8) * p**8 - self.g * p
        ent = 0.0
        if m2 < 1.0:
            ent -= (1.0 - m2) * math.log(1.0 - m2)
        if m2 > 0.0:
            ent -= m2 * math.log(m2 / 2.0)
        return e - t * ent

    def slope(self, m2, t):
        p = 1.0 - 1.5 * m2
        field = 1.5 * (self.j2 * p + self.j4 * p**3 + self.j6 * p**5 + self.j8 * p**7
                       + self.g)
        return field + t * np.log(m2 / (2.0 * (1.0 - m2)))

    def curvature(self, m2, t):
        p = 1.0 - 1.5 * m2
        return (
            -2.25 * self.j2 - 6.75 * self.j4 * p**2 - 11.25 * self.j6 * p**4
            - 15.75 * self.j8 * p**6 + t / (m2 * (1.0 - m2))
        )

    def root(self, t):
        """Smallest root of slope(., t) on (0, 2/3); see meanfield_m2."""
        floor = 1e-250
        top = _M2_TOP * (1.0 - 1e-12)
        if self.slope(floor, t) > 0.0:
            return 0.0
        breaks = _sign_change_roots(self.curvature, _ROOT_GRID, t)
        edges = [floor] + [b for b in breaks if floor < b < top] + [top]
        for a, b in zip(edges, edges[1:]):
            fa, fb = self.slope(a, t), self.slope(b, t)
            if fa == 0.0:
                return float(a)
            if fa * fb < 0.0:
                return brentq(self.slope, a, b, (t,))
        raise NoSolutionInBracket(
            "no ferromagnetic branch: the profile slope never turns positive "
            f"below m2 = 2/3 at T = {t}"
        )

    def point(self, kind, value, m2, residuals):
        """CriticalPoint at moments (0, m2); nonzero j2/j6/j8 flag extrapolation."""
        flag = float(self.j2 != 0.0 or self.j6 != 0.0 or self.j8 != 0.0)
        m = MomentVector(SpinQuantum(2), np.array([0.0, m2]))
        return CriticalPoint(kind, value, m, {**residuals, "extrapolation": flag})


def _profile(params: ModelParams, op: str, with_g=False) -> _Profile:
    """The m1 = 0 profile of params; g is read only with_g and must be 0 otherwise."""
    if params.l.twice_l != 2:
        raise ValueError(f"{op} is defined for twice_l = 2 only")
    if params.h0 != 0.0:  # the profile's closed forms leave out the level shift
        raise ValueError(f"{op} expects h0 = 0")
    if not with_g and params.g != 0.0:
        raise ValueError(f"{op} expects g = 0")
    if params.g > 0 and params.sector != 0:
        raise ValueError("the coupled m1 = 0 profile is the sector-0 one")
    return _Profile(params.j2, params.j4, params.j6, params.j8,
                    params.g if with_g else 0.0)


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
    return _profile(params, "meanfield_m2", with_g=True).root(params.temperature)


def spinodal_temperature(params: ModelParams) -> CriticalPoint:
    """Endpoint of the metastable ferromagnetic branch on the m1 = 0 profile.

    Finds (T_ms, m2_ms) where slope and curvature of the profile vanish
    together, eliminating T through the curvature condition and
    bracketing the remaining 1-D equation.  Defined for twice_l = 2 with
    g = 0; nonzero j2/j6/j8 are solved too but flagged as extrapolation.
    """
    pr = _profile(params, "spinodal_temperature")

    def t_of(m2):
        # the temperature at which the profile curvature vanishes at m2
        return -m2 * (1.0 - m2) * pr.curvature(m2, 0.0)

    grid = np.geomspace(1e-8, _M2_TOP * (1.0 - 1e-9), 4000)
    roots = [r for r in _sign_change_roots(lambda m2: pr.slope(m2, t_of(m2)), grid)
             if t_of(r) > 0.0]
    if not roots:
        raise NoSolutionInBracket("no spinodal point on the m1 = 0 profile")
    m2_ms = roots[0]
    t_ms = float(t_of(m2_ms))
    return pr.point("spinodal", t_ms, m2_ms, {
        "stationarity": abs(pr.slope(m2_ms, t_ms)),
        "curvature": abs(pr.curvature(m2_ms, t_ms))})


def critical_temperature(params: ModelParams, spinodal=None) -> CriticalPoint:
    """Temperature where ferromagnet and paramagnet free energies cross.

    Bisects T below the spinodal for F(ferro branch) = -T ln 3, the
    paramagnet value.  Defined for twice_l = 2 with g = 0; nonzero
    j2/j6/j8 flagged as extrapolation.  spinodal, when given, is
    spinodal_temperature(params), passed in so that it is not found twice.
    """
    pr = _profile(params, "critical_temperature")
    t_ms = (spinodal or spinodal_temperature(params)).value

    def ferro_gap(t):
        return pr.value(pr.root(t), t) + t * math.log(3.0)

    lo = t_ms * 1e-4
    hi = t_ms * (1.0 - 1e-9)
    if ferro_gap(lo) >= 0.0 or ferro_gap(hi) <= 0.0:
        raise NoSolutionInBracket(
            "free-energy crossing not bracketed below the spinodal"
        )
    t_c = brentq(ferro_gap, lo, hi, xtol=1e-13, rtol=1e-15, maxiter=100)
    m2_c = pr.root(t_c)
    return pr.point("critical_temperature", t_c, m2_c, {
        "stationarity": abs(pr.slope(m2_c, t_c)),
        "degeneracy": abs(pr.value(m2_c, t_c) + t_c * math.log(3.0))})


def critical_coupling(params: ModelParams) -> CriticalPoint:
    """Smallest sector-0 coupling that unblocks registration at temperature T.

    The threshold convention weighs the exchange field at twice its
    thermodynamic rate (equivalently: the m1 = 0 barrier condition taken
    at (T/2, g/2)); the barrier between the paramagnet and the registered
    state disappears at the tangency of that condition.  Defined for
    twice_l = 2 with g = 0 and h0 = 0: params describe the bare magnet,
    and the coupling is the answer.  Returns g_c with the barrier location
    as order parameter.  When no barrier exists at any coupling the
    threshold is 0, the order parameter is the paramagnet and
    ``barrier_absent`` is flagged in the residuals.
    """
    pr = _profile(params, "critical_coupling")
    t = params.temperature

    def base(m2):
        # threshold slope at g = 0: the profile slope at (T/2, 0), doubled
        return 2.0 * pr.slope(m2, t / 2)

    def base_slope(m2):
        return 2.0 * pr.curvature(m2, t / 2)

    # the tangency sits at the upper zero of base_slope (local maximum of
    # the required coupling); 1e4-point scan, then refinement
    grid = np.linspace(1e-6, _M2_TOP * (1.0 - 1e-9), 10_000)
    zeros = _sign_change_roots(base_slope, grid)
    g_c = -2.0 / 3.0 * base(zeros[-1]) if zeros else 0.0
    if g_c <= 0.0:
        return pr.point("critical_coupling", 0.0, _M2_TOP, {"barrier_absent": 1.0})
    m2_b = zeros[-1]
    return pr.point("critical_coupling", float(g_c), m2_b, {
        "tangency": abs(base(m2_b) + 1.5 * g_c),
        "tangency_slope": abs(base_slope(m2_b)),
        "barrier_absent": 0.0})


# ---------------------------------------------------------------------------
# thresholds of the bare magnet for any l, along the reflection axes


def _axis_branch(kernel: _Kernel, c: np.ndarray, kappa):
    """x = softmax(kappa c), its T, dT/dkappa and F + T ln n; kappa 0-D or 1-D."""
    x = _softmax(np.multiply.outer(kappa, c))
    r = x @ c
    a = r * r
    d1, d2 = kernel.dphi(a)
    t = -2.0 * d1 * r / kappa
    return (x, t, (-2.0 * (d1 + 2.0 * a * d2) * (x @ (c * c) - a) - t) / kappa,
            kernel.energy(x) + t * (math.log(c.size) - _entropy(x)))


def branch_thresholds(params: ModelParams) -> tuple[CriticalPoint, CriticalPoint | None]:
    """Spinodal and critical temperature of the bare magnet, for any l.

    With g = h0 = 0, a stationary point whose mean phase lies on a reflection
    axis alpha in {0, pi/n} has weights x = softmax(kappa c), c = cos(theta -
    alpha), at T(kappa) = G R / kappa with R = x.c and G = -2 phi'(R**2).
    T_ms is the highest fold of T(kappa), kappa in [1e-3, 50], with a stable
    ordered side; T_c the highest root of F + T ln n beyond it (None if the
    branch stays above the paramagnet).  With no fold above the paramagnet's
    stability edge T(0+) = J2 c.c/n the transition is continuous and
    T_ms = T_c = T(0+).  Assumes the thresholds lie on a reflection axis.
    """
    if params.g != 0.0 or params.h0 != 0.0:
        raise ValueError("branch_thresholds expects g = 0 and h0 = 0")
    kernel = _Kernel(params)
    n = params.l.n_states
    kappa = np.geomspace(1e-3, 50.0, 2000)

    edge, folds, crossings = 0.0, {}, {}  # temperature -> lam / T = kappa e
    for alpha in (0.0, math.pi / n):
        e = np.array([math.cos(alpha), math.sin(alpha)])
        c = kernel.table @ e
        if c @ c < 0.5:
            continue  # at 2l = 1, cos(theta_sigma) = 0: no alpha = 0 axis
        edge = params.j2 * (c @ c) / n
        branch = functools.partial(_axis_branch, kernel, c)
        for k in _sign_change_roots(lambda k: branch(k)[2], kappa):
            x, t, _, _ = branch(k * (1.0 + 1e-3))
            if t <= 0.0 or _curvature(kernel, t, x[None])[2][0] <= 0.0:
                continue
            folds[branch(k)[1]] = k * e
            gaps = _sign_change_roots(lambda k: branch(k)[3],
                                      np.append(k, kappa[kappa > k]))
            if gaps:
                crossings[branch(gaps[0])[1]] = gaps[0] * e
    continuous = float(edge > 0.0 and all(t <= edge for t in folds))
    if continuous:
        folds = crossings = {edge: np.zeros(2)}
    if not folds:
        raise NoSolutionInBracket("no symmetry-broken branch at a positive temperature")

    def point(kind, found, name, check):
        t = max(found)
        at = _Kernel(replace(params, temperature=t))
        x, _, _, tangent = _phase_state(at, t * found[t][None])[:4]
        x = x[0]
        m = MomentVector(params.l, weights_to_moments_array(params.l, x))
        return CriticalPoint(kind, float(t), m, {
            "stationarity": float(tangent[0]),
            name: abs(float(check(at, x))), "continuous": continuous})

    return (point("spinodal", folds, "fold_eigenvalue",
                  lambda at, x: _curvature(at, at.params.temperature, x[None])[2][0]),
            point("critical_temperature", crossings, "degeneracy",
                  lambda at, x: at.value(x) + at.params.temperature * math.log(n))
            if crossings else None)
