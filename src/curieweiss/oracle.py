"""Exact finite-size reference: enumeration over occupation compositions.

For N spins the canonical sum collapses onto compositions of N into the
2l+1 levels, each carrying a multinomial degeneracy.  Everything here is
exact up to floating point: log-gamma for the degeneracies, log-sum-exp
for the partition sums.  Sizes are capped; this module is a cross-check,
not a production path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._numerics import ln_factorial
from .errors import EnsembleTooLarge
from .order_params import FEASIBILITY_TOL, WeightVector, weights_to_moments_array
from .spectrum import SpinQuantum
from .thermo import ModelParams, _blocks, _column_sum, _Kernel

MAX_COMPOSITIONS = 2_000_000
MAX_RAW_CONFIGURATIONS = 1_000_000


@dataclass(frozen=True, eq=False)
class FiniteNEnsemble:
    """Composition table for N spins with per-row degeneracy and moments.

    ``counts`` holds one composition per row in the narrowest signed
    integer type whose max is at least N (int8, int16 or int32); cast it
    before arithmetic that can leave [-N, N].  ``energy`` and
    ``log_weight`` are attached when model parameters were
    supplied at enumeration time; ``log_weight`` holds
    ln G - N * E / T, ready for log-sum-exp.
    """

    l: SpinQuantum
    n_spins: int
    counts: np.ndarray
    log_degeneracy: np.ndarray
    moments: np.ndarray
    params: ModelParams | None = None
    energy: np.ndarray | None = None
    log_weight: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.counts.shape[0]


def _compositions(n_spins: int, d: int) -> np.ndarray:
    """Every composition of n_spins into d parts, the last part slowest.

    Parts are placed last to first, which keeps colexicographic order.  A
    node with r spins left spawns r + 1 children whose part k runs 0..r;
    a child with r' spins left heads C(r' + k - 1, k - 1) rows, so column
    k is each child's part repeated that often, written in one pass.
    Counts come in the narrowest signed type whose max is at least n_spins:
    signed, so that differences of counts cannot wrap.  The node arrays
    are int32 and updated in place: no value exceeds the row count, which
    the caller keeps within int32.
    """
    dtype = next(t for t in (np.int8, np.int16, np.int32) if n_spins <= np.iinfo(t).max)
    out = np.empty((math.comb(n_spins + d - 1, d - 1), d), dtype=dtype)
    below = [np.ones(n_spins + 1, dtype=np.int32)]     # below[i][r] = C(r + i, i)
    for _ in range(d - 2):
        below.append(np.cumsum(below[-1], dtype=np.int32))
    rest = np.array([n_spins], dtype=np.int32)
    for k in range(d - 1, 0, -1):
        width = rest + 1
        part = np.arange(width.sum(), dtype=np.int32)
        part -= np.repeat(np.cumsum(width, dtype=np.int32) - width, width)
        rest = np.repeat(rest, width)
        rest -= part
        # at k = 1 every child heads exactly one row
        out[:, k] = part if k == 1 else np.repeat(part, below[k - 1][rest])
    out[:, 0] = rest
    return out


def _composition_counts(l: SpinQuantum, n_spins: int,
                        params: ModelParams | None) -> np.ndarray:
    """The composition table's counts, after the argument and size checks."""
    if n_spins < 1:
        raise ValueError("n_spins must be positive")
    if params is not None and params.l != l:
        raise ValueError("params.l does not match the ensemble l")
    d = l.n_states
    m_total = math.comb(n_spins + d - 1, d - 1)
    if m_total > MAX_COMPOSITIONS:
        raise EnsembleTooLarge(
            f"{m_total} compositions for n_spins={n_spins}, twice_l={l.twice_l} "
            f"exceeds the cap of {MAX_COMPOSITIONS}"
        )
    return _compositions(n_spins, d)


def _block_rows(c: np.ndarray, n_spins: int, ln_fact: np.ndarray,
                kernel: _Kernel | None):
    """Weights x, log-degeneracy ln G and, with a kernel, energy E and
    log-weight ln G - N E / T of one block of count rows."""
    # take, not ln_fact[c]: fancy indexing by a narrow integer type is slower
    log_g = ln_fact[n_spins] - _column_sum(lambda k: ln_fact.take(c[:, k]), range(c.shape[1]))
    x = c / n_spins
    if kernel is None:
        return x, log_g, None, None
    energy = kernel.energy(x)
    return x, log_g, energy, log_g - n_spins * energy / kernel.params.temperature


def _log_sum_exp(a: np.ndarray) -> np.float64:
    """ln sum exp(a) by scipy.special.logsumexp's arithmetic, in place.

    The maxima are left out of the shifted sum s and counted (m), and the
    result is log1p(s / m) + ln m + max, as scipy forms it for finite
    input, so it keeps scipy's bits without its copies of ``a``.  Leaves
    exp(a - max) in ``a``.
    """
    top = a.max()
    at_top = a == top
    a[at_top] = -np.inf
    np.subtract(a, top, out=a)
    np.exp(a, out=a)
    m = np.float64(np.count_nonzero(at_top))
    s = a.sum() / m
    a[at_top] = 1.0
    return np.log1p(s) + np.log(m) + top


def _free_energy(temperature: float, n_spins: int, log_weight: np.ndarray) -> float:
    """-(T/N) ln sum exp(log_weight); leaves exp(log_weight - max) behind."""
    return float(-(temperature / n_spins) * _log_sum_exp(log_weight))


def _mean_moments(w: np.ndarray, moment_rows) -> np.ndarray:
    """sum_i w_i m_i / sum_i w_i, reading the moment rows ``moment_rows(rows)``
    one block at a time."""
    total = None
    for rows in _blocks(w.size):
        part = w[rows] @ moment_rows(rows)
        total = part if total is None else total + part
    return total / w.sum()


def enumerate_ensemble(
    l: SpinQuantum, n_spins: int, params: ModelParams | None = None
) -> FiniteNEnsemble:
    """Enumerate every composition of n_spins over the 2l+1 levels.

    Rows come out in colexicographic order (the last part varies
    slowest), so the table is reproducible.  Degeneracies and moments are
    filled in by chunked vector math.  Raises EnsembleTooLarge above
    MAX_COMPOSITIONS rows.  When ``params`` is given (same l required) the
    per-row energy and Boltzmann log-weight are attached.
    """
    counts = _composition_counts(l, n_spins, params)
    m_total = counts.shape[0]
    log_degeneracy = np.empty(m_total)
    moments = np.empty((m_total, l.twice_l))
    energy = np.empty(m_total) if params is not None else None
    log_weight = np.empty(m_total) if params is not None else None
    kernel = _Kernel(params) if params is not None else None
    ln_fact = ln_factorial(np.arange(n_spins + 1))
    for rows in _blocks(m_total):
        x, log_degeneracy[rows], e, lw = _block_rows(counts[rows], n_spins, ln_fact, kernel)
        moments[rows] = weights_to_moments_array(l, x)
        if kernel is not None:
            energy[rows], log_weight[rows] = e, lw

    for arr in (counts, log_degeneracy, moments, energy, log_weight):
        if arr is not None:
            arr.setflags(write=False)
    return FiniteNEnsemble(
        l=l,
        n_spins=n_spins,
        counts=counts,
        log_degeneracy=log_degeneracy,
        moments=moments,
        params=params,
        energy=energy,
        log_weight=log_weight,
    )


def canonical_sums(params: ModelParams, n_spins: int) -> tuple[float, np.ndarray]:
    """Exact F_N = -(T/N) ln Z_N and <m> for N spins, without the table.

    The same sums as exact_free_energy and thermal_moments over
    enumerate_ensemble(params.l, n_spins, params), holding only the counts
    and one float per row: the log-weights, then exp(log-weight - max).
    F_N has the table route's bits; <m> agrees to roundoff (bit for bit on
    tables of one block).  Raises EnsembleTooLarge above MAX_COMPOSITIONS
    rows, before allocating.
    """
    l = params.l
    counts = _composition_counts(l, n_spins, params)
    kernel = _Kernel(params)
    ln_fact = ln_factorial(np.arange(n_spins + 1))
    w = np.empty(counts.shape[0])
    for rows in _blocks(w.size):
        w[rows] = _block_rows(counts[rows], n_spins, ln_fact, kernel)[3]
    f_n = _free_energy(params.temperature, n_spins, w)
    moments = _mean_moments(
        w, lambda rows: weights_to_moments_array(l, counts[rows] / n_spins))
    return f_n, moments


def exact_free_energy(ensemble: FiniteNEnsemble) -> float:
    """Exact intensive free energy -(T/N) ln Z from an enumerated table."""
    if ensemble.params is None or ensemble.log_weight is None:
        raise ValueError("ensemble was enumerated without model parameters")
    return _free_energy(ensemble.params.temperature, ensemble.n_spins,
                        ensemble.log_weight.copy())


def thermal_moments(ensemble: FiniteNEnsemble) -> np.ndarray:
    """Canonical expectation of the moment vector at finite N."""
    if ensemble.log_weight is None:
        raise ValueError("ensemble was enumerated without model parameters")
    w = ensemble.log_weight.copy()
    _log_sum_exp(w)
    return _mean_moments(w, lambda rows: ensemble.moments[rows])


def raw_config_free_energy(params: ModelParams, n_spins: int) -> float:
    """Free energy by brute force over all (2l+1)**n_spins configurations.

    Exists to validate the composition route; capped at MAX_RAW_CONFIGURATIONS.
    Holds one int8 count row and one log-weight per configuration; the
    energies are computed a block of rows at a time.
    """
    if n_spins < 1:
        raise ValueError("n_spins must be positive")
    d = params.l.n_states
    total = d**n_spins
    if total > MAX_RAW_CONFIGURATIONS:
        raise EnsembleTooLarge(
            f"{total} raw configurations exceeds the brute-force cap"
        )
    # occupation counts of every configuration, in np.indices order: spin p
    # sits at level v on runs of d**(N-1-p) configurations, d**(N-p) apart
    counts = np.zeros((total, d), np.int8)
    for p in range(n_spins):
        runs = counts.reshape(d**p, d, d ** (n_spins - 1 - p), d)
        for v in range(d):
            runs[:, v, :, v] += 1
    kernel = _Kernel(params)
    t = params.temperature
    log_weight = np.empty(total)
    for rows in _blocks(total):
        log_weight[rows] = -n_spins * kernel.energy(counts[rows] / n_spins) / t
    return _free_energy(t, n_spins, log_weight)


def nearest_composition(n_spins: int, weights: np.ndarray) -> np.ndarray:
    """Integer composition of n_spins closest to n_spins * weights.

    Largest-remainder rounding; ties go to the lower index so the result
    is deterministic.  Raises ValueError unless n_spins is an integer
    (anything operator.index takes) >= 1 and the weights are at least
    -FEASIBILITY_TOL and sum to 1 (so are finite).
    """
    try:
        n_spins = operator.index(n_spins)
    except TypeError:
        raise ValueError(f"n_spins must be an integer, got {n_spins!r}") from None
    w = np.asarray(weights, dtype=float)
    if n_spins < 1 or not ((w >= -FEASIBILITY_TOL).all()
                           and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError(f"need n_spins >= 1 and simplex weights, got {n_spins}, {w}")
    scaled = n_spins * w
    base = np.floor(scaled).astype(np.int64)
    deficit = int(n_spins - base.sum())
    order = np.argsort(-(scaled - base), kind="stable")
    base[order[:deficit]] += 1
    return base


def stirling_entropy_error(l: SpinQuantum, n_spins: int, weights) -> float:
    """Gap between the exact multiplicity rate and the entropy limit.

    Rounds ``weights`` to the nearest composition of n_spins (use
    nearest_composition to inspect which one), takes the exact ln of its
    multinomial count, and returns |(1/N) ln G - (-sum x ln x)|.  The gap
    decays like ln(N)/N.
    """
    if not isinstance(weights, WeightVector):
        weights = WeightVector(l, np.asarray(weights, dtype=float))
    x = weights.weights
    comp = nearest_composition(n_spins, x)
    ln_mult = float(ln_factorial(n_spins) - ln_factorial(comp).sum())
    pos = x[x > 0.0]
    limit = float(-(pos * np.log(pos)).sum())
    return abs(limit - ln_mult / n_spins)


def paramagnet_gaussian_check(n_spins: int) -> float:
    """Exact multinomial moment spreads against their sharp-peak predictions.

    Three-state magnet with all couplings off: every configuration is
    weighted equally, and the quadratic expansion of the multiplicity
    around the uniform state predicts var(m1) = 2/(3N) and
    var(m2 - 2/3) = 2/(9N).  Returns the larger relative deviation of the
    exactly enumerated variances from those values.  The multinomial
    identities make the deviation pure roundoff at every N.
    """
    if n_spins < 100:
        raise ValueError("the sharp-peak comparison needs n_spins >= 100")
    l = SpinQuantum(2)
    ens = enumerate_ensemble(l, n_spins)
    w = np.exp(ens.log_degeneracy - n_spins * math.log(3.0))
    norm = w.sum()
    dm = ens.moments - np.array([0.0, 2.0 / 3.0])
    var1 = float(w @ (dm[:, 0] ** 2) / norm)
    var2 = float(w @ (dm[:, 1] ** 2) / norm)
    pred1 = 2.0 / (3.0 * n_spins)
    pred2 = 2.0 / (9.0 * n_spins)
    return max(abs(var1 - pred1) / pred1, abs(var2 - pred2) / pred2)
