"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``curieweiss``.  Every quantity is rebuilt from the
model's definition:

* weights from moments through the exact inverse of the Vandermonde chart,
  expanded from the Lagrange basis in rational arithmetic;
* the phase averages P and Q from cos and sin of 2*pi*sigma/(2l+1) taken
  directly on the weights;
* the entropy -sum x ln x, the exchange energy E(A) with A = P**2 + Q**2,
  the sector coupling and the h0 level shift;
* the mean-field field h = dE/dx;
* the l = 1 profile along m1 = 0 with its slope and curvature;
* the finite-N partition sum over compositions with exact integer
  multinomial counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# A weight below -FEASIBLE_TOL marks a moment vector outside the simplex
# image, the convention the package documents.
FEASIBLE_TOL = 1e-9


@dataclass(frozen=True)
class Model:
    """Couplings of one request, in the CLI's own terms (twice_l = --l)."""

    twice_l: int
    temp: float
    j2: float = 0.0
    j4: float = 0.0
    j6: float = 0.0
    j8: float = 0.0
    g: float = 0.0
    sector: Fraction | None = None
    h0: float = 0.0

    @property
    def n(self) -> int:
        return self.twice_l + 1


def sigmas(twice_l: int) -> list[Fraction]:
    """Eigenvalues -l..l in ascending order."""
    return [Fraction(2 * j - twice_l, 2) for j in range(twice_l + 1)]


@lru_cache(maxsize=None)
def _lagrange(twice_l: int) -> np.ndarray:
    """Row j holds the monomial coefficients of the Lagrange polynomial L_j.

    Since sum_sigma x_sigma L_j(sigma) = x_j, the weights are
    x = L @ (1, m_1, ..., m_2l): the exact inverse of the moment chart.
    """
    nodes = sigmas(twice_l)
    rows = []
    for j, sj in enumerate(nodes):
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for i, si in enumerate(nodes):
            if i == j:
                continue
            shifted = [Fraction(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                shifted[k + 1] += c
                shifted[k] -= si * c
            coeffs = shifted
            denom *= sj - si
        rows.append([float(c / denom) for c in coeffs])
    out = np.array(rows)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _powers(twice_l: int) -> np.ndarray:
    """powers[j, k] = sigma_j**(k+1), k = 0..2l-1."""
    nodes = sigmas(twice_l)
    out = np.array([[float(s ** k) for k in range(1, twice_l + 1)] for s in nodes])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _phases(twice_l: int) -> tuple[np.ndarray, np.ndarray]:
    n = twice_l + 1
    ang = np.array([2.0 * math.pi * float(s) / n for s in sigmas(twice_l)])
    return np.cos(ang), np.sin(ang)


def weights(twice_l: int, m) -> np.ndarray:
    """Weights (..., 2l+1) of moment vectors (..., 2l); no feasibility policing."""
    m = np.asarray(m, dtype=float)
    lag = _lagrange(twice_l)
    return lag[:, 0] + m @ lag[:, 1:].T


def moments(twice_l: int, x) -> np.ndarray:
    return np.asarray(x, dtype=float) @ _powers(twice_l)


def paramagnet(twice_l: int) -> np.ndarray:
    """Moments of the uniform occupation, exact sums rounded once."""
    nodes = sigmas(twice_l)
    n = len(nodes)
    return np.array(
        [float(sum(s**k for s in nodes) / n) for k in range(1, twice_l + 1)]
    )


def feasible(x: np.ndarray) -> np.ndarray:
    return np.asarray(x).min(axis=-1) >= -FEASIBLE_TOL


def _sector_phase(model: Model) -> tuple[float, float]:
    if model.sector is None or model.g == 0.0:
        return 0.0, 0.0
    ang = 2.0 * math.pi * float(model.sector) / model.n
    return math.cos(ang), math.sin(ang)


def _exchange(model: Model, a):
    return -(model.j2 / 2) * a - (model.j4 / 4) * a**2 \
        - (model.j6 / 6) * a**3 - (model.j8 / 8) * a**4


def energy_x(model: Model, x) -> np.ndarray:
    """Energy per spin (exchange + coupling + h0) at weights x of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    cos_v, sin_v = _phases(model.twice_l)
    p = x @ cos_v
    q = x @ sin_v
    e = _exchange(model, p * p + q * q)
    cs, ss = _sector_phase(model)
    e = e - model.g * (cs * p + ss * q)
    if model.h0 != 0.0:
        e = e + model.h0 * x[..., model.twice_l // 2]
    return e


def entropy_x(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    return -(safe * np.log(safe)).sum(axis=-1)


def free_energy_x(model: Model, x) -> np.ndarray:
    """F = E - T S at weights x; weights in the tolerance band count as 0."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, None)
    return energy_x(model, x) - model.temp * entropy_x(x)


def free_energy_m(model: Model, m) -> np.ndarray:
    """F at moment vectors (..., 2l), NaN where the moments are infeasible."""
    x = weights(model.twice_l, m)
    f = free_energy_x(model, x)
    return np.where(feasible(x), f, np.nan)


def field(model: Model, x) -> np.ndarray:
    """Mean-field field h_sigma = dE/dx_sigma at weights x of shape (n,)."""
    x = np.asarray(x, dtype=float)
    cos_v, sin_v = _phases(model.twice_l)
    p = float(x @ cos_v)
    q = float(x @ sin_v)
    a = p * p + q * q
    de_da = -0.5 * (model.j2 + model.j4 * a + model.j6 * a**2 + model.j8 * a**3)
    cs, ss = _sector_phase(model)
    h = de_da * 2.0 * (p * cos_v + q * sin_v) - model.g * (cs * cos_v + ss * sin_v)
    if model.h0 != 0.0:
        h[model.twice_l // 2] += model.h0
    return h


def selfconsistent_moments(model: Model, m) -> np.ndarray:
    """Moments of softmax(-h(x(m))/T), which equal m at a stationary point."""
    x = np.clip(weights(model.twice_l, m), 0.0, None)
    z = -field(model, x / x.sum()) / model.temp
    z -= z.max()
    y = np.exp(z)
    return moments(model.twice_l, y / y.sum())


# ---------------------------------------------------------------------------
# the three-state (l = 1) profile along m1 = 0: x = (m2/2, 1 - m2, m2/2)


def profile_weights(m2: float) -> np.ndarray:
    return np.array([m2 / 2.0, 1.0 - m2, m2 / 2.0])


def profile_value(model: Model, m2: float) -> float:
    return float(free_energy_x(model, profile_weights(m2)))


def profile_slope(model: Model, m2: float) -> float:
    """dF/dm2 along m1 = 0; P = 1 - 3 m2 / 2 and Q = 0 there."""
    p = 1.0 - 1.5 * m2
    cs, _ = _sector_phase(model)
    exch = 1.5 * (model.j2 * p + model.j4 * p**3 + model.j6 * p**5 + model.j8 * p**7)
    return exch + 1.5 * model.g * cs - model.h0 \
        + model.temp * math.log(m2 / (2.0 * (1.0 - m2)))


def profile_curvature(model: Model, m2: float) -> float:
    """d2F/dm2**2 along m1 = 0."""
    p = 1.0 - 1.5 * m2
    exch = -2.25 * (model.j2 + 3 * model.j4 * p**2 + 5 * model.j6 * p**4
                    + 7 * model.j8 * p**6)
    return exch + model.temp / (m2 * (1.0 - m2))


# ---------------------------------------------------------------------------
# finite N


def compositions(n_spins: int, n_states: int):
    """Every composition of n_spins into n_states parts (stars and bars)."""
    for bars in itertools.combinations(range(n_spins + n_states - 1), n_states - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(n_spins + n_states - 2 - prev)
        yield parts


def composition_count(n_spins: int, twice_l: int) -> int:
    return math.comb(n_spins + twice_l, twice_l)


def log_multinomial(counts) -> float:
    """ln of N! / prod c!, from the exact integer."""
    total = math.factorial(sum(counts))
    for c in counts:
        total //= math.factorial(c)
    return math.log(total)


def composition_sum(model: Model, n_spins: int) -> tuple[float, np.ndarray]:
    """(-(T/N) ln Z_N, canonical mean of the moments) by direct summation."""
    counts = np.array(list(compositions(n_spins, model.n)), dtype=float)
    log_g = np.array([log_multinomial(c) for c in counts.astype(int).tolist()])
    x = counts / n_spins
    log_w = log_g - n_spins * energy_x(model, x) / model.temp
    top = log_w.max()
    w = np.exp(log_w - top)
    log_z = top + math.log(w.sum())
    mean_m = (w @ moments(model.twice_l, x)) / w.sum()
    return -model.temp * log_z / n_spins, mean_m


def configuration_sum(model: Model, n_spins: int) -> float:
    """-(T/N) ln Z_N over all (2l+1)**N raw configurations; tiny N only."""
    log_w = []
    for cfg in itertools.product(range(model.n), repeat=n_spins):
        x = np.bincount(cfg, minlength=model.n) / n_spins
        log_w.append(-n_spins * float(energy_x(model, x)) / model.temp)
    log_w = np.array(log_w)
    top = log_w.max()
    return -model.temp * (top + math.log(np.exp(log_w - top).sum())) / n_spins
