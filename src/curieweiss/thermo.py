"""Free-energy functionals of the mean-field magnet, per spin.

Every term is a function of the occupation weights x_sigma of the 2l+1
levels.  With the phases theta_sigma = 2*pi*sigma/(2l+1) the mean phase
vector is

    (P, Q) = sum_sigma x_sigma * (cos theta_sigma, sin theta_sigma),

and pair and quartet (optionally sextet and octet) exchange act through
the alignment A = P**2 + Q**2 via

    phi(A) = -(J2/2) A - (J4/4) A**2 - (J6/6) A**3 - (J8/8) A**4.

The apparatus sector s adds I_s = -g * sum_sigma x_sigma cos(theta_sigma
- theta_s), minimal (equal to -g) exactly on the vertex of s, and h0
shifts the sigma = 0 level.  Both are linear in x and enter as one vector
b, so the free energy per spin is F = phi(A) + b.x - T*S with the entropy
S = -sum x ln x.

One private kernel (_Kernel) evaluates F, its x-gradient and the 2x2
mean-phase curvature K, for one point or for points along leading batch
axes; the minimizer and the finite-N oracle call it directly.  In its
energy, couplings of +0.0 and a zero b cost nothing: their terms are left
out, and every bit of the full expression is kept.  The energy Hessian in
the weights is C K C^T (C the phases) and is never built.  The public
functions take moments: they invert the affine chart x(m) and pull
derivatives back by the chain rule in one place (_evaluate), W^T g and
J^T K J + W^T diag(T/x) W with W = dx/dm and J = C^T W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InfeasibleMoments
from .order_params import (
    FEASIBILITY_TOL,
    MomentVector,
    _charts,
    _clamp_feasible,
    moments_to_weights_array,
)
from .spectrum import SpinQuantum, spectrum, spectrum_array

# Occupations below this count as exactly empty: their entropy share is the
# 0*ln(0) = 0 limit and they put the point on the simplex boundary.
_EMPTY = 1e-300

# Rows per block of the batch loops here and in the oracle: cache-sized
# temporaries.
_CHUNK = 1 << 14

# From this many rows on, _entropy sums by columns (_column_sum): numpy's
# row sum calls one inner loop per row, which dominates on many short rows
# (a 2^14-row block), while on the few rows of a descent the per-column
# calls cost more.
_COLUMN_ROWS = 2048


@dataclass(frozen=True)
class ModelParams:
    """Couplings and bath parameters of one model instance.

    ``sector`` is the apparatus eigenvalue s targeted by the measurement
    coupling; None runs the bare magnet.  ``h0`` is a level shift on the
    sigma = 0 state and is only meaningful for twice_l = 2.
    """

    l: SpinQuantum
    temperature: float
    j2: float = 0.0
    j4: float = 0.0
    j6: float = 0.0
    j8: float = 0.0
    g: float = 0.0
    sector: Fraction | None = None
    h0: float = 0.0

    def __post_init__(self):
        if not isinstance(self.l, SpinQuantum):
            raise TypeError(f"l must be a SpinQuantum, got {type(self.l).__name__}")
        for name in ("temperature", "j2", "j4", "j6", "j8", "g", "h0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if self.g > 0 and self.sector is None:
            raise ValueError("a nonzero coupling g needs a sector")
        if self.sector is not None:
            s = Fraction(self.sector).limit_denominator(2)
            if abs(float(s) - float(self.sector)) > 1e-9 or s not in spectrum(self.l):
                raise ValueError(
                    f"sector {self.sector} is not in the spectrum of l = {self.l.spin}"
                )
            object.__setattr__(self, "sector", s)
        if self.h0 != 0.0 and self.l.twice_l != 2:
            raise ValueError("h0 is only supported for twice_l = 2")


@dataclass(frozen=True, eq=False)
class ThermoEval:
    """One free-energy evaluation; gradient/hessian are None on the boundary."""

    alignment: float
    energy: float
    entropy: float
    coupling: float
    free_energy: float
    gradient: np.ndarray | None
    hessian: np.ndarray | None
    interior: bool


# ---------------------------------------------------------------------------
# the weight-space kernel


@lru_cache(maxsize=None)
def _phases(twice_l: int) -> np.ndarray:
    """Columns cos(theta_sigma) and sin(theta_sigma) over the spectrum."""
    l = SpinQuantum(twice_l)
    ang = 2.0 * math.pi * spectrum_array(l) / l.n_states
    table = np.column_stack([np.cos(ang), np.sin(ang)])
    table.setflags(write=False)
    return table


def _blocks(n_rows: int):
    """Slices of _CHUNK rows covering n_rows."""
    return (slice(a, a + _CHUNK) for a in range(0, n_rows, _CHUNK))


def _mean_phase(table: np.ndarray, x: np.ndarray):
    """(P, Q) on the last axis and A = P**2 + Q**2, per row of x."""
    pq = x @ table
    sq = pq * pq
    # the two-term sum written out: the bits of sq.sum(axis=-1), at a fraction
    # of its cost on many rows
    return pq, sq[..., 0] + sq[..., 1]


def _column_sum(col, ks: range) -> np.ndarray:
    """Sum of col(k) over ks in numpy's pairwise order (left to right below 8
    terms, eight accumulators to 128, halves at a multiple of 8 above), added
    to numpy's starting +0.0, which turns a sum of -0.0 terms into +0.0: the
    bits of the stacked columns' .sum(axis=-1), but for the sign of a NaN
    made by inf - inf.  col(k) must be fresh."""
    n = len(ks)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _column_sum(col, ks[:half]) + _column_sum(col, ks[half:])
    if n < 8:
        out, rest = col(ks[0]), ks[1:]
    else:
        acc = [col(k) for k in ks[:8]]
        for i, k in enumerate(ks[8:n - n % 8]):
            acc[i % 8] += col(k)
        out = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        rest = ks[n - n % 8:]
    for k in rest:
        out += col(k)
    out += 0.0
    return out


def _entropy(x: np.ndarray):
    """-sum x ln x per row; empty occupations give the 0 ln 0 = 0 limit.

    From _COLUMN_ROWS rows of a C-ordered x on, the row sum runs by columns
    in numpy's order, so with the bits of .sum(axis=-1).
    """
    if x.ndim < 2 or x.size < _COLUMN_ROWS * x.shape[-1] or not x.flags.c_contiguous:
        return -(x * np.log(np.maximum(x, _EMPTY))).sum(axis=-1)

    def term(k):
        xk = x[..., k]
        return xk * np.log(np.maximum(xk, _EMPTY))
    return -_column_sum(term, range(x.shape[-1]))


class _Kernel:
    """F = phi(A) + b.x - T*S at weights x of shape (..., 2l+1)."""

    def __init__(self, params: ModelParams):
        l = params.l
        self.params = params
        self.mid = l.twice_l // 2
        self.table = _phases(l.twice_l)
        self.b = np.zeros(l.n_states)
        if params.sector is not None:
            # cos(theta_sigma - theta_s), with theta_s read off the table
            home = self.table[int(float(params.sector) + l.twice_l / 2)]
            self.b -= params.g * (self.table @ home)
        self.b[self.mid] += params.h0
        self.b_zero = not self.b.any()
        # (J_2p / 2p, p) of the exchange terms phi keeps: all but those of a
        # +0.0 coupling (a -0.0 one is kept, as t - (-0.0) turns -0.0 into +0.0)
        self.exchange = [(j / (2 * p), p) for p, j in enumerate(
            (params.j2, params.j4, params.j6, params.j8), 1)
            if j != 0.0 or math.copysign(1.0, j) < 0.0]

    def phi(self, a):
        """phi(A) without the terms of +0.0 couplings: at finite A >= 0 they are
        +0.0, and t - 0.0 = t, -0.0 - t = -t keep the full polynomial's bits."""
        out = None
        for c, p in self.exchange:
            t = a if p == 1 else a**p
            out = -c * t if out is None else out - c * t
        return -0.0 * a if out is None else out

    def energy(self, x):
        """phi(A) + b.x: exchange, sector coupling and level shift, per row.
        A zero b adds 0.0, which is x @ b on weights that sum to 1."""
        return self.phi(_mean_phase(self.table, x)[1]) + (0.0 if self.b_zero else x @ self.b)

    def value(self, x):
        return self.energy(x) - self.params.temperature * _entropy(x)

    def dphi(self, a):
        """phi'(A) and phi''(A)."""
        pr = self.params
        return (-0.5 * (pr.j2 + pr.j4 * a + pr.j6 * a**2 + pr.j8 * a**3),
                -0.5 * (pr.j4 + 2 * pr.j6 * a + 3 * pr.j8 * a**2))

    def field(self, x):
        """h = dE/dx = 2 phi'(A) C p + b per point, C the phase table."""
        pq, a = _mean_phase(self.table, x)
        return 2.0 * self.dphi(a)[0][..., None] * (self.table @ pq[..., None])[..., 0] \
            + self.b

    def gradient(self, x):
        """dF/dx per point; empty occupations are read at _EMPTY."""
        return self.field(x) \
            + self.params.temperature * (np.log(np.maximum(x, _EMPTY)) + 1.0)

    def curvature(self, pq, d1, d2):
        """K = 2 phi'(A) I + 4 phi''(A) p p^T per point, shape (..., 2, 2), from
        the mean phase p and phi'(A), phi''(A) there."""
        return 2.0 * d1[..., None, None] * np.eye(2) \
            + 4.0 * d2[..., None, None] * (pq[..., :, None] * pq[..., None, :])


def _evaluate(params: ModelParams, x: np.ndarray) -> ThermoEval:
    """ThermoEval at weights x, derivatives pulled back to the moments."""
    kernel = _Kernel(params)
    pq, a_pt = _mean_phase(kernel.table, x)
    a = float(a_pt)
    phi = kernel.phi(a)
    linear = float(x @ kernel.b)
    shift = params.h0 * float(x[kernel.mid])
    s_mix = float(_entropy(x))
    t = params.temperature

    interior = bool(x.min() > _EMPTY)
    grad = hess = None
    if interior:
        w = _charts(params.l.twice_l)[1][:, 1:]          # d x_sigma / d m_k
        grad = kernel.gradient(x) @ w
        j = kernel.table.T @ w                             # d p / d m_k
        hess = j.T @ kernel.curvature(pq, *kernel.dphi(a_pt)) @ j + (w.T * (t / x)) @ w
        hess = 0.5 * (hess + hess.T)

    return ThermoEval(
        alignment=a,
        energy=phi + shift,
        entropy=s_mix,
        coupling=linear - shift,
        free_energy=phi + linear - t * s_mix,
        gradient=grad,
        hessian=hess,
        interior=interior,
    )


# ---------------------------------------------------------------------------
# the public moment view


def _feasible_weights(l: SpinQuantum, m) -> np.ndarray:
    """Weights of moments m, clamped at 0; raises outside the simplex.

    Raw arrays are checked as a MomentVector (shape and finiteness).
    """
    if not isinstance(m, MomentVector):
        m = MomentVector(l, m)
    elif m.l != l:
        raise ValueError(f"moment vector is for l = {m.l.spin}, params for {l.spin}")
    return _clamp_feasible(l, moments_to_weights_array(l, m.values))


def alignment(m: MomentVector) -> float:
    """The squared mean phase vector A = P**2 + Q**2, in [0, 1]."""
    return float(_mean_phase(_phases(m.l.twice_l), _feasible_weights(m.l, m))[1])


def energy(params: ModelParams, m) -> float:
    """Exchange energy per spin, plus the h0 level shift when set."""
    return free_energy(params, m).energy


def entropy(m: MomentVector) -> float:
    """Mixing entropy -sum x ln x of the occupation weights."""
    return float(_entropy(_feasible_weights(m.l, m)))


def coupling(params: ModelParams, m) -> float:
    """Measurement coupling I_s; requires params.sector to be set."""
    if params.sector is None:
        raise ValueError("coupling requires a sector")
    return free_energy(params, m).coupling


def coupling_two_outcome(g: float, s: int, m1: float) -> float:
    """Coupling of a three-state magnet read out by a two-outcome probe.

    The probe only resolves the sign of the magnetization, so its back
    action enters through m1 alone: (g/2)(1 - (3/2)s**2) - (3/2) g s m1.
    Valid for s in {-1, 0, 1} and |m1| <= 1/2.
    """
    if s not in (-1, 0, 1):
        raise ValueError(f"s must be one of -1, 0, 1, got {s}")
    if abs(m1) > 0.5 + 1e-12:
        raise ValueError(f"|m1| must be <= 1/2, got {m1}")
    return (g / 2) * (1 - 1.5 * s * s) - 1.5 * g * s * m1


def free_energy(params: ModelParams, m) -> ThermoEval:
    """Evaluate F = E - T*S + I_s with analytic first and second derivatives.

    On the simplex boundary (some weight exactly zero) the value is still
    returned but gradient and hessian are None.
    """
    return _evaluate(params, _feasible_weights(params.l, m))


def free_energy_weights(params: ModelParams, weights) -> ThermoEval:
    """free_energy evaluated at explicit occupation weights.

    Recovering weights from moments cancels catastrophically once an
    occupation drops below about 1e-15; passing the weights directly keeps
    the entropy and its derivatives accurate down to 1e-300.  The weights
    must be finite, nonnegative and sum to 1 within 1e-9 (they are
    renormalized).
    """
    l = params.l
    x = np.asarray(weights, dtype=float)
    if x.shape != (l.n_states,):
        raise ValueError(f"expected {l.n_states} weights, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("weights must be finite")
    if np.any(x < -FEASIBILITY_TOL) or abs(x.sum() - 1.0) > 1e-9:
        raise InfeasibleMoments(
            "weights must be nonnegative and sum to 1", []
        )
    x = np.where(x < 0.0, 0.0, x)
    return _evaluate(params, x / x.sum())


def free_energy_batch(params: ModelParams, m: np.ndarray):
    """Grid fast path: F for many moment vectors at once, no derivatives.

    m has shape (npts, 2l) (or more leading axes).  Returns (f, feasible);
    f is NaN where the point is infeasible.  The points are evaluated a
    block at a time, so the weight-sized temporaries stay small whatever
    npts is.  A block with no feasible point is not evaluated; any other is
    evaluated whole, as a row's bits from the BLAS products depend on where
    it sits in the call.
    """
    m = np.asarray(m, dtype=float)
    points = m.reshape(-1, m.shape[-1])
    kernel = _Kernel(params)
    f = np.empty(len(points))
    feasible = np.empty(len(points), bool)
    for rows in _blocks(len(points)):
        x = moments_to_weights_array(params.l, points[rows])
        # column by column: the bits of x.min(axis=-1) >= -FEASIBILITY_TOL, a
        # NaN row included, without one inner loop per row
        ok = x[:, 0] >= -FEASIBILITY_TOL
        for k in range(1, x.shape[1]):
            ok &= x[:, k] >= -FEASIBILITY_TOL
        feasible[rows] = ok
        f[rows] = kernel.value(np.clip(x, 0.0, None)) if ok.any() else np.nan
    f[~feasible] = np.nan
    return f.reshape(m.shape[:-1]), feasible.reshape(m.shape[:-1])
