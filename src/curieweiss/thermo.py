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

One private kernel (_Kernel) evaluates F, its x-gradient and the energy
Hessian for one point or for points along leading batch axes; the
minimizer and the finite-N oracle call it directly.  The public functions
take moments: they invert the affine chart x(m) and pull derivatives back
by the chain rule, W^T g and W^T H W with W = dx/dm, in one place
(_evaluate).
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


def _mean_phase(table: np.ndarray, x: np.ndarray):
    """(P, Q) on the last axis and A = P**2 + Q**2, per row of x."""
    pq = x @ table
    return pq, (pq * pq).sum(axis=-1)


def _entropy(x: np.ndarray):
    """-sum x ln x per row; empty occupations give the 0 ln 0 = 0 limit."""
    return -(x * np.log(np.maximum(x, _EMPTY))).sum(axis=-1)


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

    def phi(self, a):
        pr = self.params
        return -(pr.j2 / 2) * a - (pr.j4 / 4) * a**2 \
            - (pr.j6 / 6) * a**3 - (pr.j8 / 8) * a**4

    def energy(self, x):
        """phi(A) + b.x: exchange, sector coupling and level shift, per row."""
        return self.phi(_mean_phase(self.table, x)[1]) + x @ self.b

    def value(self, x):
        return self.energy(x) - self.params.temperature * _entropy(x)

    def dphi(self, a):
        """phi'(A) and phi''(A)."""
        pr = self.params
        return (-0.5 * (pr.j2 + pr.j4 * a + pr.j6 * a**2 + pr.j8 * a**3),
                -0.5 * (pr.j4 + 2 * pr.j6 * a + 3 * pr.j8 * a**2))

    def _slopes(self, x):
        """dA/dx, phi'(A) and phi''(A) per point, the last two with a unit axis.

        A stays a numpy scalar for one point; with x of shape (S, 1, 2l+1)
        every product is stacked, so no row's bits depend on the other rows.
        """
        pq, a = _mean_phase(self.table, x)
        d1, d2 = self.dphi(a)
        return (self.table @ (2.0 * pq)[..., None])[..., 0], d1[..., None], d2[..., None]

    def field(self, x):
        """h = dE/dx = phi'(A) dA/dx + b per point."""
        da, d1, _ = self._slopes(x)
        return d1 * da + self.b

    def gradient(self, x):
        """dF/dx per point; empty occupations are read at _EMPTY."""
        return self.field(x) \
            + self.params.temperature * (np.log(np.maximum(x, _EMPTY)) + 1.0)

    def energy_hessian(self, x):
        """d2E/dx2 = 2 phi'(A) (c c^T + s s^T) + phi''(A) a a^T, per point."""
        da, d1, d2 = self._slopes(x)
        return 2.0 * d1[..., None] * (self.table @ self.table.T) \
            + d2[..., None] * (da[..., :, None] * da[..., None, :])


def _evaluate(params: ModelParams, x: np.ndarray) -> ThermoEval:
    """ThermoEval at weights x, derivatives pulled back to the moments."""
    kernel = _Kernel(params)
    a = float(_mean_phase(kernel.table, x)[1])
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
        hess = w.T @ ((kernel.energy_hessian(x) + np.diag(t / x)) @ w)
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

    m has shape (npts, 2l).  Returns (f, feasible); f is NaN where the
    point is infeasible.
    """
    x = moments_to_weights_array(params.l, np.asarray(m, dtype=float))
    feasible = x.min(axis=-1) >= -FEASIBILITY_TOL
    f = _Kernel(params).value(np.clip(x, 0.0, None))
    return np.where(feasible, f, np.nan), feasible
