"""Ports of the two scipy routines the library calls, to the same bits.

``brentq`` is scipy.optimize.brentq: Brent's method (Brent, Algorithms
for Minimization without Derivatives, 1973) as scipy's C brentq writes
it, with its wrapper's float conversions and sign check.  ``ln_factorial``
is scipy.special.gammaln(k + 1) at integer k: Cephes lgam (Moshier,
Methods and Programs for Mathematical Functions, 1989) on its integer
path.  Both repeat the original's IEEE operations in its order, and take
logarithms from math.log, which is the C library's log that Cephes
calls.  np.log is a separate SIMD routine that differs in the last bit
for some integers, so it would move the bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence


def brentq(f, a, b, args=(), xtol=1e-300, rtol=1e-14, maxiter=1000):
    """Root of f(x, *args) on [a, b], where f(a) and f(b) differ in sign.

    scipy.optimize.brentq's iterates and root, at the library's settings
    by default: a full-precision root, with room for brackets that span
    hundreds of decades (a bracket down to 1e-250 takes over 100 steps).
    Raises ValueError when f(a) and f(b) share a sign or f returns NaN,
    and NonConvergence, carrying the last iterate as ``best``, when
    maxiter steps pass without convergence.
    """
    def call(x):
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x:.6g} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NonConvergence(f"brentq did not converge on [{a!r}, {b!r}] in {maxiter} steps",
                         best=xcur)


# lgam's Stirling-series coefficients in 1/x^2, highest power first: the
# fitted ones below x = 1000 and the series' own three terms above
_NEAR = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
         -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_FAR = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi)
# below x = 13 lgam takes the log of the exact product (x - 1)!
_SMALL = np.array([math.log(math.factorial(k)) for k in range(12)])


def _polevl(p, coefficients):
    ans = coefficients[0]
    for c in coefficients[1:]:
        ans = ans * p + c
    return ans


def ln_factorial(k) -> np.ndarray:
    """ln k! for integers k >= 0, bit for bit scipy.special.gammaln(k + 1).

    With x = k + 1: log((x - 1)!) below x = 13; above, (x - 0.5) ln x - x
    + ln sqrt(2 pi) plus the series in 1/x^2 over x, which is dropped
    above x = 1e8.  Costs one math.log call per element.
    """
    k = np.asarray(k)
    x = k + 1.0
    q = np.fromiter(map(math.log, x.flat), float, x.size).reshape(x.shape)
    q *= x - 0.5
    q -= x
    q += _LS2PI
    p = 1.0 / (x * x)
    series = np.where(x < 1000.0, _polevl(p, _NEAR), _polevl(p, _FAR))
    series /= x
    q += np.where(x > 1e8, 0.0, series)
    return np.where(x < 13.0, _SMALL.take(np.minimum(k, 11)), q)
