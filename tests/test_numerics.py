"""The scipy ports in curieweiss._numerics against scipy itself, bit for bit.

scipy is a test dependency only: the library runs on numpy alone, and
these tests hold its two ports to the routines they replace.
"""

import contextlib
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.special import gammaln

from curieweiss import (
    ModelParams,
    SpinQuantum,
    branch_thresholds,
    critical_coupling,
    critical_temperature,
    meanfield_m2,
    nearest_composition,
    stirling_entropy_error,
)
from curieweiss import equilibrium
from curieweiss._numerics import brentq, ln_factorial
from curieweiss.errors import NoSolutionInBracket

L1 = SpinQuantum(2)


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


def both_brentq(*args, **kwargs):
    """(port, scipy) results of one call, each as (root, converged)."""
    out = []
    for solve in (brentq, scipy_brentq):
        root, info = solve(*args, **{**kwargs, "full_output": True, "disp": False})
        out.append((root, info.converged))
    return out


# --- brentq ---


def test_brentq_matches_scipy_at_every_library_call(monkeypatch):
    calls = []

    def compare(f, a, b, args=(), **kwargs):
        out = brentq(f, a, b, args, **kwargs)
        want = scipy_brentq(f, a, b, args, **kwargs)
        got = out
        if kwargs.get("full_output"):
            assert got[1].converged == want[1].converged
            got, want = got[0], want[0]
        assert type(got) is float and same_bits(got, want), (f.__qualname__, a, b)
        calls.append(f.__qualname__)
        return out

    monkeypatch.setattr(equilibrium, "brentq", compare)
    rng = np.random.default_rng(20)
    for _ in range(8):
        j2, j6, j8 = rng.uniform(-0.3, 0.3, 3)
        params = ModelParams(L1, temperature=rng.uniform(0.02, 0.3), j2=j2,
                             j4=rng.uniform(0.5, 1.5), j6=j6, j8=j8)
        critical_temperature(params)
        critical_coupling(params)
        with contextlib.suppress(NoSolutionInBracket):  # above the spinodal
            meanfield_m2(params)
    for twice_l in range(1, 7):
        branch_thresholds(ModelParams(SpinQuantum(twice_l), temperature=0.1, j4=1.0,
                                      j6=rng.uniform(-0.2, 0.2)))
    hit = set(calls)
    for name in ("_Profile.slope", "_Profile.curvature",
                 "critical_temperature.<locals>.ferro_gap",
                 "critical_coupling.<locals>.base_slope",
                 "spinodal_temperature.<locals>.<lambda>",
                 "branch_thresholds.<locals>.<lambda>"):
        assert name in hit, name


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x, 0.0, 1.0),           # zero at a
    (lambda x: x - 1.0, 0.0, 1.0),     # zero at b
    (lambda x: -x, -0.0, 2.0),         # a signed zero at a
    (lambda x: np.float64(x * x - 2.0), 0, 3),  # integer endpoints, numpy values
])
def test_brentq_endpoints_like_scipy(f, a, b):
    (root, ok), (want, want_ok) = both_brentq(f, a, b)
    assert type(root) is float and same_bits(root, want) and ok == want_ok


def test_brentq_same_sign_raises_like_scipy():
    for f in (lambda x: 1.0 + x, lambda x: 1e-200):  # the product underflows
        for solve in (brentq, scipy_brentq):
            with pytest.raises(ValueError, match="different signs"):
                solve(f, 0.0, 1.0)


def test_brentq_exhausted_like_scipy():
    (root, ok), (want, want_ok) = both_brentq(math.sin, 3.0, 4.0, maxiter=3)
    assert not ok and not want_ok and same_bits(root, want)
    for solve in (brentq, scipy_brentq):
        with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
            solve(math.sin, 3.0, 4.0, maxiter=3, disp=True)
    assert same_bits(brentq(math.sin, 3.0, 4.0), scipy_brentq(math.sin, 3.0, 4.0))


# --- ln k! ---


def test_ln_factorial_table_matches_gammaln():
    k = np.arange(2_000_001)
    assert same_bits(ln_factorial(k), gammaln(k + 1.0))


@pytest.mark.parametrize("k", [0, 11, 12, 999, 1000, 10**8 - 1, 10**8, 10**9])
def test_ln_factorial_scalar_matches_gammaln(k):
    assert same_bits(ln_factorial(k), gammaln(k + 1))


def test_stirling_entropy_error_at_a_billion_spins_keeps_scipys_bits():
    n, w = 10**9, np.array([0.2, 0.45, 0.35])
    comp = nearest_composition(n, w)
    ln_mult = float(gammaln(n + 1) - gammaln(comp + 1.0).sum())
    limit = float(-(w * np.log(w)).sum())
    assert same_bits(stirling_entropy_error(L1, n, w), abs(limit - ln_mult / n))


# --- the runtime needs no scipy ---


def test_cli_runs_without_scipy(tmp_path):
    # and the import loads no third-party package but numpy: each one adds
    # to the start-up time of every process
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises
        before = set(sys.modules)   # .pth hooks may have loaded some already
        from curieweiss import cli
        new = {{m.partition(".")[0] for m in set(sys.modules) - before}}
        extra = new - set(sys.stdlib_module_names) - {{"numpy", "curieweiss"}}
        assert not extra, sorted(extra)
        out = {str(tmp_path / "out")!r}
        for argv in (["minima"], ["critical", "--l", "2"], ["critical", "--l", "4"],
                     ["landscape"], ["symcheck"], ["oracle", "--l", "2", "--n-list", "5,20"]):
            assert cli.main([*argv, "--out", out]) == 0, argv
        loaded = [m for m, v in sys.modules.items() if m.startswith("scipy") and v is not None]
        assert not loaded, loaded
    """)
    src = str(pathlib.Path(equilibrium.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
