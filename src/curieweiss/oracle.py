"""Exact finite-size reference: enumeration over occupation compositions.

For N spins the canonical sum collapses onto compositions of N into the
2l+1 levels, each carrying a multinomial degeneracy.  Everything here is
exact up to floating point: log-gamma for the degeneracies, log-sum-exp
for the partition sums.  Sizes are capped; this module is a cross-check,
not a production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import EnsembleTooLarge
from .order_params import FEASIBILITY_TOL, WeightVector, weights_to_moments_array
from .spectrum import SpinQuantum
from .thermo import ModelParams, _Kernel

MAX_COMPOSITIONS = 2_000_000
MAX_RAW_CONFIGURATIONS = 1_000_000
_CHUNK = 1 << 18


@dataclass(frozen=True, eq=False)
class FiniteNEnsemble:
    """Composition table for N spins with per-row degeneracy and moments.

    ``energy`` and ``log_weight`` are attached when model parameters were
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

    Each row with r spins left to place spawns r + 1 rows whose next part
    runs 0..r; placing the parts last to first keeps colexicographic order.
    """
    counts, rest = np.empty((1, 0), dtype=np.int64), np.array([n_spins])
    for _ in range(d - 1):
        width = rest + 1
        parent = np.repeat(np.arange(rest.size), width)
        part = np.arange(parent.size) - np.repeat(np.cumsum(width) - width, width)
        counts = np.column_stack((part, counts[parent]))
        rest = rest[parent] - part
    return np.column_stack((rest, counts))


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

    counts = _compositions(n_spins, d)
    log_degeneracy = np.empty(m_total)
    moments = np.empty((m_total, l.twice_l))
    energy = np.empty(m_total) if params is not None else None
    kernel = _Kernel(params) if params is not None else None
    ln_fact = gammaln(np.arange(n_spins + 1) + 1.0)
    for a in range(0, m_total, _CHUNK):
        b = min(a + _CHUNK, m_total)
        log_degeneracy[a:b] = ln_fact[n_spins] - ln_fact[counts[a:b]].sum(axis=1)
        x = counts[a:b] / n_spins
        moments[a:b] = weights_to_moments_array(l, x)
        if params is not None:
            energy[a:b] = kernel.energy(x)

    log_weight = None
    if params is not None:
        log_weight = log_degeneracy - n_spins * energy / params.temperature
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


def exact_free_energy(ensemble: FiniteNEnsemble) -> float:
    """Exact intensive free energy -(T/N) ln Z from an enumerated table."""
    if ensemble.params is None or ensemble.log_weight is None:
        raise ValueError("ensemble was enumerated without model parameters")
    t = ensemble.params.temperature
    return float(-(t / ensemble.n_spins) * logsumexp(ensemble.log_weight))


def thermal_moments(ensemble: FiniteNEnsemble) -> np.ndarray:
    """Canonical expectation of the moment vector at finite N."""
    if ensemble.log_weight is None:
        raise ValueError("ensemble was enumerated without model parameters")
    lw = ensemble.log_weight - ensemble.log_weight.max()
    w = np.exp(lw)
    return (w @ ensemble.moments) / w.sum()


def raw_config_free_energy(params: ModelParams, n_spins: int) -> float:
    """Free energy by brute force over all (2l+1)**n_spins configurations.

    Exists to validate the composition route; capped at MAX_RAW_CONFIGURATIONS.
    """
    if n_spins < 1:
        raise ValueError("n_spins must be positive")
    d = params.l.n_states
    total = d**n_spins
    if total > MAX_RAW_CONFIGURATIONS:
        raise EnsembleTooLarge(
            f"{total} raw configurations exceeds the brute-force cap"
        )
    cfg = np.indices((d,) * n_spins).reshape(n_spins, -1).T
    x = np.stack(
        [(cfg == j).sum(axis=1) for j in range(d)], axis=1
    ).astype(float) / n_spins
    e = _Kernel(params).energy(x)
    t = params.temperature
    return float(-(t / n_spins) * logsumexp(-n_spins * e / t))


def nearest_composition(n_spins: int, weights: np.ndarray) -> np.ndarray:
    """Integer composition of n_spins closest to n_spins * weights.

    Largest-remainder rounding; ties go to the lower index so the result
    is deterministic.  Raises ValueError unless n_spins >= 1 and the
    weights are at least -FEASIBILITY_TOL and sum to 1 (so are finite).
    """
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
    ln_mult = float(gammaln(n_spins + 1) - gammaln(comp + 1.0).sum())
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
