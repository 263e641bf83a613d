"""Equilibrium states: minimization, mean-field profile, critical points.

Minimization runs over the occupation simplex from a deterministic set
of starts, each along one descent path in the log weights u (x =
softmax(u)) toward the mean-field condition x ~ exp(-h(x)/T), by Newton
steps whose Hessian is shifted by twice any negative stability number.
Stationary points are deduplicated by their weights, not their moments,
and saddles are reported only when a start lands on one.  The
three-state magnet additionally gets closed forms along its symmetric
m1 = 0 profile, all read from one F(m2, T) object with h0 = 0: the
mean-field root (g in sector 0 allowed) and, for the bare magnet, the
spinodal and critical temperatures and the coupling threshold above which
nothing blocks registration.  For every l, branch_thresholds finds the
spinodal and critical temperatures on the explicit reflection-axis branches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .errors import NoSolutionInBracket, NonConvergence
from .order_params import (
    MomentVector,
    random_weights,
    weights_to_moments_array,
)
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

    ``hessian_eigen_min`` is the stability number T + eig(K Sigma) of
    _stability_eig, read off the 2x2 mean-phase curvature: the smallest
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


def _stability_eig(kernel: _Kernel, t: float, x: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of r (H_E + T diag(1/x)) r on the complement of r.

    One value per row of x, shape (S, 2l+1), with r = sqrt(x): a congruence
    of the tangent-space Hessian, so the minimum / saddle call keeps its sign.
    H_E = C K C^T has rank 2 (K = 2 phi'(A) I + 4 phi''(A) p p^T at the mean
    phase p), so the eigenvalues are T + eig(K Sigma), Sigma = sum x (c - p)
    (c - p)^T summed centred (C^T X C - p p^T cancels), and T on the other
    2l - 2 directions; at 2l = 1 the one direction, Q, gives T + tr(K Sigma).
    Orbit members permute x, so share the number; no row reads another row.
    """
    pq, a = _mean_phase(kernel.table, x[:, None])
    d1, d2 = kernel.dphi(a[..., None])
    dev = kernel.table.T - pq.swapaxes(1, 2)  # c - p, shape (S, 2, 2l+1)
    cov = (x[:, None, None] * dev[:, :, None] * dev[:, None]).sum(axis=-1)  # Sigma
    m = 2.0 * d1 * cov + 4.0 * d2 * pq.swapaxes(1, 2) * (cov * pq).sum(axis=-1)[:, None]
    half_tr, half_gap = (m[:, 0, 0] + m[:, 1, 1]) / 2, (m[:, 0, 0] - m[:, 1, 1]) / 2
    if x.shape[-1] == 2:
        return t + 2.0 * half_tr
    low = half_tr - np.sqrt(np.maximum(0.0, half_gap**2 + m[:, 0, 1] * m[:, 1, 0]))
    return t + (low if x.shape[-1] == 3 else np.minimum(low, 0.0))


def _softmax(u: np.ndarray):
    u = u - u.max(axis=-1, keepdims=True)  # same x, per row; keeps u bounded
    z = np.exp(u)
    return u, z / z.sum(axis=-1, keepdims=True)


def _residual(kernel: _Kernel, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """h(x)/T + u less its x-weighted mean, per row; zero where x is stationary."""
    r = kernel.field(x[:, None]) / kernel.params.temperature + u[:, None]
    return (r - x[:, None] @ r.swapaxes(1, 2))[:, 0]


def _settle(kernel: _Kernel, u: np.ndarray):
    """Descend F from every row of log weights u, shape (S, 2l+1), at once.

    Returns per row the final x = softmax(u), T max|res| there (the largest
    component of the tangent gradient of F in the weights) and the steps.

    Each step is Newton's with the Hessian shifted by mu = max(0, -2 lambda),
    lambda the 2x2 stability number of _stability_eig, and the full energy
    Hessian H_E in its KKT system ((1 + mu/T) I + H_E diag(x)/T) du = -res +
    c 1, x.du = 0.  In sqrt(x)-scaled tangent coordinates mu adds to the
    stability matrix, so the factor 2 mirrors lambda < 0 to |lambda|: mu = 0
    where F is locally convex, and for large mu du tends to the mean-field
    step -res times T/(T + mu).  Steps backtrack on F (Armijo), or, with F
    within its roundoff, are taken if they halve max|res|.  Carrying u rather
    than x keeps occupations far below the moment chart's resolution exact.

    Each step solves the stacked systems of the rows still live, and each
    backtracking round re-evaluates only the rows still halving.  A row
    retires once max|res| < 1e-13 or its step falls to 1e-14; every product
    is stacked per row, so its path is the one it would take alone.
    """
    t = kernel.params.temperature
    n = u.shape[1]
    u, x = _softmax(u)
    f = kernel.value(x[:, None])[:, 0]
    res = _residual(kernel, u, x)
    size = np.abs(res).max(axis=-1)
    steps, stuck = np.zeros(len(u), dtype=int), np.zeros(len(u), dtype=bool)
    for _ in range(ITERATION_CAP):
        live = np.flatnonzero((size >= 1e-13) & ~stuck)
        if not live.size:
            break
        steps[live] += 1
        xl = x[live]
        h_e = kernel.energy_hessian(xl[:, None])[:, 0]
        mu = np.maximum(0.0, -2.0 * _stability_eig(kernel, t, xl))
        hess = (1.0 + mu / t)[:, None, None] * np.eye(n) + h_e * (xl[:, None] / t)
        kkt = np.block([[hess, -np.ones((live.size, n, 1))],
                        [xl[:, None], np.zeros((live.size, 1, 1))]])
        rhs = np.append(-res[live], np.zeros((live.size, 1)), axis=1)
        du = np.linalg.solve(kkt, rhs[..., None])[:, :n, 0]
        slope = t * (xl[:, None] @ (res[live] * du)[:, :, None])[:, 0, 0]
        step = np.ones(live.size)
        halving = np.arange(live.size)
        while halving.size:
            rows = live[halving]
            u_new, x_new = _softmax(u[rows] + step[halving, None] * du[halving])
            f_new = kernel.value(x_new[:, None])[:, 0]
            res_new = _residual(kernel, u_new, x_new)
            size_new = np.abs(res_new).max(axis=-1)
            f_old = f[rows]
            ok = (f_new < f_old + 1e-4 * step[halving] * slope[halving]) | (
                (f_new <= f_old + 1e-14 * np.maximum(1.0, np.abs(f_old)))
                & (size_new <= 0.5 * size[rows]))
            done = rows[ok]
            u[done], x[done], f[done] = u_new[ok], x_new[ok], f_new[ok]
            res[done], size[done] = res_new[ok], size_new[ok]
            halving = halving[~ok]
            step[halving] *= 0.5
            stuck[live[halving[step[halving] <= 1e-14]]] = True
            halving = halving[step[halving] > 1e-14]
    return x, t * size, steps


def minimize(params: ModelParams, seed: int = 0) -> list[Minimum]:
    """Multi-start minimization of F over the occupation simplex.

    Starts: the paramagnet, every vertex pulled 1e-3 into the interior,
    and RANDOM_STARTS uniform simplex samples.  All starts descend as one
    batch by shifted Newton steps (_settle: Newton's step where F is
    locally convex, shifted toward the mean-field direction elsewhere).
    Endpoints whose tangent gradient in the weights (T times the final
    mean-field residual, exact in the log weights even where occupations
    underflow) is below GRAD_TOL are deduplicated within 1e-6 in the max
    norm of their weights and returned sorted by free energy; points
    degenerate with the lowest are labeled "global", the rest "local".
    The descent leaves saddles, so a stationary point with a negative
    Hessian direction is reported ("saddle-rejected") only when a start
    lands on one, e.g. the symmetric paramagnet start.  Raises
    NonConvergence with the best iterate when no start converges.  Each
    orbit member is computed from the cyclically shifted weights, not by
    iterating the affine map on moments, so it carries no compounded
    roundoff.
    """
    l = params.l
    n = l.n_states
    rng = np.random.default_rng(seed)
    uniform = np.full(n, 1.0 / n)
    starts = np.vstack([uniform, 0.999 * np.eye(n) + 0.001 * uniform,
                        random_weights(l, rng, RANDOM_STARTS)])

    kernel = _Kernel(params)
    x, tangent_grad, _ = _settle(kernel, np.log(starts))
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

    kept = []
    for i in converged[np.argsort(f[converged], kind="stable")]:
        if not kept or np.abs(x[i] - x[kept]).max(axis=-1).min() >= _DEDUP_TOL:
            kept.append(i)
    eigs = _stability_eig(kernel, params.temperature, x[kept])

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
                 for k in range(n)]
        out.append(Minimum(m_star=orbit[0], f_value=float(f[i]), classification=label,
                           hessian_eigen_min=float(eig_min), orbit=orbit))
    return out


def orbit(minimum: Minimum) -> list[MomentVector]:
    """The symmetry images of a minimum (the lowest-F basin repeats 2l+1 times)."""
    return list(minimum.orbit)


# ---------------------------------------------------------------------------
# the symmetric m1 = 0 profile of the three-state magnet

_M2_TOP = 2.0 / 3.0


def _sign_change_roots(f, grid, *args):
    """Roots of f(., *args) bracketed by consecutive grid points, refined by brentq.

    f must accept the grid as an array.
    """
    vals = np.asarray(f(grid, *args), dtype=float)
    out = grid[vals == 0.0].tolist()
    for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
        out.append(_brentq(f, grid[i], grid[i + 1], args))
    out.sort()
    return out


def _brentq(f, a, b, args):
    """Root of f(., *args) in [a, b] to full precision; NonConvergence past
    1000 steps (brackets down to m2 = 1e-250 take brentq over 100)."""
    root, info = brentq(f, a, b, args, xtol=1e-300, rtol=1e-14, maxiter=1000,
                        full_output=True, disp=False)
    if not info.converged:
        raise NonConvergence(f"brentq did not converge on [{a!r}, {b!r}]", best=root)
    return float(root)


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
        breaks = _sign_change_roots(self.curvature, np.geomspace(1e-12, top, 3000), t)
        edges = [floor] + [b for b in breaks if floor < b < top] + [top]
        for a, b in zip(edges, edges[1:]):
            fa, fb = self.slope(a, t), self.slope(b, t)
            if fa == 0.0:
                return float(a)
            if fa * fb < 0.0:
                return _brentq(self.slope, a, b, (t,))
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


def critical_temperature(params: ModelParams) -> CriticalPoint:
    """Temperature where ferromagnet and paramagnet free energies cross.

    Bisects T below the spinodal for F(ferro branch) = -T ln 3, the
    paramagnet value.  Defined for twice_l = 2 with g = 0; nonzero
    j2/j6/j8 flagged as extrapolation.
    """
    pr = _profile(params, "critical_temperature")
    t_ms = spinodal_temperature(params).value

    def ferro_gap(t):
        return pr.value(pr.root(t), t) + t * math.log(3.0)

    lo = t_ms * 1e-4
    hi = t_ms * (1.0 - 1e-9)
    if ferro_gap(lo) >= 0.0 or ferro_gap(hi) <= 0.0:
        raise NoSolutionInBracket(
            "free-energy crossing not bracketed below the spinodal"
        )
    t_c = float(brentq(ferro_gap, lo, hi, xtol=1e-13, rtol=1e-15))
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
    x = _softmax(np.multiply.outer(kappa, c))[1]
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

    edge, folds, crossings = 0.0, {}, {}  # temperature -> log weights kappa c
    for alpha in (0.0, math.pi / n):
        c = kernel.table @ np.array([math.cos(alpha), math.sin(alpha)])
        if c @ c < 0.5:
            continue  # at 2l = 1, cos(theta_sigma) = 0: no alpha = 0 axis
        edge = params.j2 * (c @ c) / n
        branch = functools.partial(_axis_branch, kernel, c)
        for k in _sign_change_roots(lambda k: branch(k)[2], kappa):
            x, t, _, _ = branch(k * (1.0 + 1e-3))
            if t <= 0.0 or _stability_eig(kernel, t, x[None])[0] <= 0.0:
                continue
            folds[branch(k)[1]] = k * c
            gaps = _sign_change_roots(lambda k: branch(k)[3],
                                      np.append(k, kappa[kappa > k]))
            if gaps:
                crossings[branch(gaps[0])[1]] = gaps[0] * c
    continuous = float(edge > 0.0 and all(t <= edge for t in folds))
    if continuous:
        folds = crossings = {edge: np.zeros(n)}
    if not folds:
        raise NoSolutionInBracket("no symmetry-broken branch at a positive temperature")

    def point(kind, found, name, check):
        t = max(found)
        at, u = _Kernel(replace(params, temperature=t)), found[t]
        x = _softmax(u)[1]
        m = MomentVector(params.l, weights_to_moments_array(params.l, x))
        return CriticalPoint(kind, float(t), m, {
            "stationarity": float(t * np.abs(_residual(at, u[None], x[None])).max()),
            name: abs(float(check(at, x))), "continuous": continuous})

    return (point("spinodal", folds, "fold_eigenvalue",
                  lambda at, x: _stability_eig(at, at.params.temperature, x[None])[0]),
            point("critical_temperature", crossings, "degeneracy",
                  lambda at, x: at.value(x) + at.params.temperature * math.log(n))
            if crossings else None)
