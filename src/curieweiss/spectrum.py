"""Spin spectrum and the trigonometric interpolation polynomials.

A spin quantum number l (integer or half-integer, stored as ``twice_l``)
has the 2l+1 eigenvalues -l, -l+1, ..., l.  The cyclic-symmetry machinery
of the model needs cos(2*pi*s/(2l+1)) and sin(2*pi*s/(2l+1)) expressed as
degree-2l polynomials over that spectrum; interpolation through the 2l+1
nodes makes both exact on the spectrum, and by parity of the nodes the
cosine polynomial is even and the sine polynomial odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# The largest 2l the constructor accepts.  The monomial moment chart is
# far less accurate than that: its round trip weights -> moments ->
# weights stays within FEASIBILITY_TOL only through 2l = 11 (1.6e-10 at
# 2l = 10, 4.4e-8 at 12, 1.2 at 18, 86 at 20; README, "Numerical limits").
MAX_TWICE_L = 20


@dataclass(frozen=True)
class SpinQuantum:
    """Spin magnitude stored exactly as twice its value."""

    twice_l: int

    def __post_init__(self):
        if not isinstance(self.twice_l, int) or isinstance(self.twice_l, bool):
            raise TypeError(f"twice_l must be an int, got {self.twice_l!r}")
        if self.twice_l < 1:
            raise ValueError(f"twice_l must be >= 1, got {self.twice_l}")
        if self.twice_l > MAX_TWICE_L:
            raise ValueError(
                f"twice_l = {self.twice_l} exceeds the supported cap {MAX_TWICE_L}"
            )

    @property
    def n_states(self) -> int:
        return self.twice_l + 1

    @property
    def spin(self) -> float:
        return self.twice_l / 2

    @classmethod
    def from_spin(cls, l: float | Fraction) -> "SpinQuantum":
        twice = Fraction(l) * 2
        if twice.denominator != 1:
            raise ValueError(f"spin must be integer or half-integer, got {l}")
        return cls(int(twice))


def spectrum(l: SpinQuantum) -> tuple[Fraction, ...]:
    """Eigenvalues -l..l in ascending order, as exact rationals."""
    return tuple(Fraction(2 * j - l.twice_l, 2) for j in range(l.n_states))


def spectrum_array(l: SpinQuantum) -> np.ndarray:
    """Eigenvalues -l..l as a float array."""
    return (np.arange(l.n_states) - l.twice_l / 2).astype(float)


@dataclass(frozen=True)
class TrigPoly:
    """Polynomial coefficients for cos and sin of 2*pi*s/(2l+1).

    ``cos_coeffs[k]`` multiplies s**k; odd-k cosine and even-k sine
    coefficients are exactly zero.
    """

    l: SpinQuantum
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def cos_at(self, s) -> float:
        return _horner(self.cos_coeffs, float(s))

    def sin_at(self, s) -> float:
        return _horner(self.sin_coeffs, float(s))

    def phase_parts(self, m: np.ndarray) -> tuple:
        """Affine combination over a moment vector (m_1..m_2l, with m_0 = 1).

        Returns (cos part, sin part); each is the weighted spectrum average
        of the corresponding trig function when m is feasible.  Accepts a
        trailing batch: m of shape (..., 2l).
        """
        m = np.asarray(m, dtype=float)
        c = self.cos_coeffs
        d = self.sin_coeffs
        p = c[0] + m @ c[1:]
        q = d[0] + m @ d[1:]
        return p, q


def _horner(coeffs: np.ndarray, x: float) -> float:
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def trig_poly(l: SpinQuantum) -> TrigPoly:
    """Interpolating polynomials of cos and sin of 2*pi*s/(2l+1) on the spectrum."""
    nodes = spectrum_array(l)
    n = l.n_states
    # Vandermonde in ascending node order; numpy's solve does partially
    # pivoted LU, which is all this size needs.
    vand = np.vander(nodes, n, increasing=True)
    angles = 2.0 * math.pi * nodes / n
    cos_c = np.linalg.solve(vand, np.cos(angles))
    sin_c = np.linalg.solve(vand, np.sin(angles))
    # Parity: symmetric nodes make the cosine fit even and the sine fit
    # odd; the solve leaves ~1e-17 residue on the dead coefficients.
    cos_c[1::2] = 0.0
    sin_c[0::2] = 0.0
    cos_c.setflags(write=False)
    sin_c.setflags(write=False)
    return TrigPoly(l=l, cos_coeffs=cos_c, sin_coeffs=sin_c)
