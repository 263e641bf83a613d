"""Order parameters: occupation weights, spectrum moments, and the cyclic map.

A configuration of N spins is summarized by the fraction x_sigma of spins
in each eigenstate (a point on the 2l-simplex) or equivalently by the
moments m_k = sum_sigma x_sigma sigma**k for k = 1..2l.  The two charts
are related by a fixed (2l+1)x(2l+1) Vandermonde system, with m_0 = 1
carrying normalization.  The relabeling sigma -> sigma+1 (mod 2l+1) is a
symmetry of the model; on weights it is a cyclic shift and on moments an
affine map of order 2l+1.

Canonical ordering everywhere: ascending sigma = -l..l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleMoments
from .spectrum import SpinQuantum, spectrum, spectrum_array

# Weight seen as negative beyond this is an infeasibility; within it, it is
# rounding debris and gets clamped to zero.
FEASIBILITY_TOL = 1e-9
_SUM_TOL = 1e-10
_VALIDATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Occupation fractions x_sigma on the probability simplex."""

    l: SpinQuantum
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.l.n_states,):
            raise ValueError(
                f"expected {self.l.n_states} weights, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < -_VALIDATION_TOL):
            bad = int(np.argmin(w))
            raise ValueError(
                f"negative weight {w[bad]:.3e} at state index {bad}"
            )
        total = float(w.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        w = np.where(w < 0.0, 0.0, w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class MomentVector:
    """Moments m_1..m_2l of the occupation weights over the spectrum."""

    l: SpinQuantum
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # a copy: the caller's stays writable
        if v.shape != (self.l.twice_l,):
            raise ValueError(
                f"expected {self.l.twice_l} moments, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("moments must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Affine transformation m -> matrix @ m + offset on moment space."""

    l: SpinQuantum
    matrix: np.ndarray
    offset: np.ndarray

    def apply(self, m):
        if isinstance(m, MomentVector):
            return MomentVector(self.l, self.matrix @ m.values + self.offset)
        m = np.asarray(m, dtype=float)
        return m @ self.matrix.T + self.offset


@lru_cache(maxsize=None)
def _charts(twice_l: int):
    """Cached linear algebra of the weight<->moment change of chart.

    Returns (powers, from_full), where powers[j, k] = sigma_j**k and
    from_full = powers^{-T}, so that x = from_full @ (1, m_1, ..., m_2l).
    """
    l = SpinQuantum(twice_l)
    nodes = spectrum_array(l)
    powers = np.vander(nodes, l.n_states, increasing=True)
    from_full = np.linalg.inv(powers.T)
    powers.setflags(write=False)
    from_full.setflags(write=False)
    return powers, from_full


def weights_to_moments(x: WeightVector) -> MomentVector:
    """m_k = sum_sigma x_sigma sigma**k for k = 1..2l."""
    powers, _ = _charts(x.l.twice_l)
    return MomentVector(x.l, x.weights @ powers[:, 1:])


def weights_to_moments_array(l: SpinQuantum, x: np.ndarray) -> np.ndarray:
    """Array fast path: x of shape (..., 2l+1) -> moments (..., 2l)."""
    powers, _ = _charts(l.twice_l)
    return np.asarray(x, dtype=float) @ powers[:, 1:]


def moments_to_weights_array(l: SpinQuantum, m: np.ndarray) -> np.ndarray:
    """Array fast path: invert the chart without feasibility policing.

    m of shape (..., 2l) -> weights (..., 2l+1).  Callers inspect the
    result; negative entries mean the point is outside the simplex image.
    """
    _, from_full = _charts(l.twice_l)
    m = np.asarray(m, dtype=float)
    return from_full[:, 0] + m @ from_full[:, 1:].T


def _clamp_feasible(l: SpinQuantum, x: np.ndarray) -> np.ndarray:
    """Weights x clamped at 0; InfeasibleMoments if any is below -FEASIBILITY_TOL."""
    bad = np.nonzero(x < -FEASIBILITY_TOL)[0]
    if bad.size:
        sigmas = spectrum(l)
        violations = [(sigmas[j], float(x[j])) for j in bad]
        detail = ", ".join(f"x[{s}] = {v:.6e}" for s, v in violations)
        raise InfeasibleMoments(f"moments outside the simplex image: {detail}",
                                violations)
    return np.where(x < 0.0, 0.0, x)


def moments_to_weights(m: MomentVector) -> WeightVector:
    """Invert the moment chart back to simplex weights.

    Raises InfeasibleMoments when any weight is below -FEASIBILITY_TOL;
    weights within the tolerance band are clamped to zero.
    """
    x = _clamp_feasible(m.l, moments_to_weights_array(m.l, m.values))
    return WeightVector(m.l, x / x.sum())


def feasibility(m: MomentVector) -> tuple[bool, list]:
    """Whether the moments come from a point of the simplex.

    Returns (flag, violations); violations lists (sigma, weight) pairs
    below -FEASIBILITY_TOL.
    """
    try:
        _clamp_feasible(m.l, moments_to_weights_array(m.l, m.values))
    except InfeasibleMoments as exc:
        return False, exc.violations
    return True, []


def paramagnet_moments(l: SpinQuantum) -> MomentVector:
    """Moments of the uniform occupation, m_k = (1/(2l+1)) sum_sigma sigma**k."""
    sigmas = spectrum(l)
    n = l.n_states
    vals = [
        float(sum(s**k for s in sigmas) / n) for k in range(1, l.twice_l + 1)
    ]
    return MomentVector(l, np.array(vals))


def permutation_map_x(x: WeightVector) -> WeightVector:
    """Relabel sigma -> sigma+1 (mod 2l+1): x'_sigma = x_{sigma-1 mod 2l+1}."""
    return WeightVector(x.l, np.roll(x.weights, 1))


@lru_cache(maxsize=None)
def permutation_map_m(l: SpinQuantum) -> AffineMap:
    """The sigma -> sigma+1 relabeling as an affine map on moments.

    Conjugate to permutation_map_x through the moment chart; applying it
    2l+1 times is the identity.
    """
    k_max = l.twice_l
    _, from_full = _charts(l.twice_l)
    # Row of the inverse chart giving the top weight x_l as an affine
    # function of the moments; the shift wraps sigma = l around to -l,
    # everything else is the binomial expansion of (sigma+1)**k.
    top_row = from_full[-1, :]
    lo = -l.spin
    hi = l.spin + 1.0
    matrix = np.zeros((k_max, k_max))
    offset = np.zeros(k_max)
    for k in range(1, k_max + 1):
        wrap = lo**k - hi**k
        offset[k - 1] = 1.0 + wrap * top_row[0]
        for n in range(1, k_max + 1):
            binom = float(math.comb(k, n)) if n <= k else 0.0
            matrix[k - 1, n - 1] = binom + wrap * top_row[n]
    matrix.setflags(write=False)
    offset.setflags(write=False)
    return AffineMap(l=l, matrix=matrix, offset=offset)


def moment_orbit(m: MomentVector) -> list[MomentVector]:
    """The 2l+1 images of m under the repeated relabeling map."""
    amap = permutation_map_m(m.l)
    out = [m]
    for _ in range(m.l.twice_l):
        out.append(amap.apply(out[-1]))
    return out


def random_weights(l: SpinQuantum, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """n uniform points on the simplex: normalized exponential variates."""
    e = rng.exponential(size=(n, l.n_states))
    return e / e.sum(axis=1, keepdims=True)
