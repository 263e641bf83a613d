"""Output checks: every request's output against the independent reference.

``check(req, record, text)`` returns a list of ``(kind, message)``
failures; an empty list means the output is correct.  ``kind`` is
``"wrong"`` for a wrong or missing value, or the name of the known fault
a check detects (mixes.HEADER_FAULT for a CSV header that does not name
the plotted axes).  Nothing here compares against a stored copy of an
earlier output: each value is recomputed from the model or follows from a
property the method must have.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import reference as ref
from mixes import HEADER_FAULT

# Numerical tolerances of the comparisons.  The program's minimizer stops
# at a moment-space gradient of 1e-8 and prints 12 significant digits in
# CSV cells; the reference computes in double precision from exact charts.
F_TOL = 1e-9          # free energies, absolute (they are O(1))
GRID_F_TOL = 1e-8     # CSV/JSON grid cells: 12 printed digits plus chart roundoff
SELF_CONSISTENCY_TOL = 1e-6
PROFILE_TOL = 1e-7    # slope and curvature of the l = 1 profile at a threshold
THRESHOLD_STEP = 1e-3  # relative offset of "just below / above" a threshold
BROKEN = 1e-3         # distance from the paramagnet that counts as broken
CHEAP_COMPOSITIONS = 20_000
RAW_CAP = 1_000_000   # the CLI runs the raw-configuration check below this
# The suite's documented bars (README "Numerical limits").
SYMMETRY_TOLERANCES = {
    "conjugacy": 1e-9,
    "map_order": 1e-9,
    "paramagnet_fixed": 1e-10,
    "roundtrip": 1e-9,
    "sector_shift": 1e-9,
}

_DEFAULTS = {"--l": "2", "--temp": "0.2", "--j2": "0", "--j4": "1", "--j6": "0",
             "--j8": "0", "--g": "0", "--h0": "0", "--resolution": "201",
             "--axis1": "1", "--axis2": "2", "--samples": "1000"}


def options(argv: list[str]) -> dict:
    """Flag -> value of a CLI request; bare flags map to True."""
    opts = dict(_DEFAULTS)
    opts["command"] = argv[0]
    i = 1
    while i < len(argv):
        flag = argv[i]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[flag] = argv[i + 1]
            i += 2
        else:
            opts[flag] = True
            i += 1
    return opts


def model_of(opts: dict, **override) -> ref.Model:
    sector = opts.get("--sector")
    fields = {
        "twice_l": int(opts["--l"]),
        "temp": float(opts["--temp"]),
        "j2": float(opts["--j2"]),
        "j4": float(opts["--j4"]),
        "j6": float(opts["--j6"]),
        "j8": float(opts["--j8"]),
        "g": float(opts["--g"]),
        "sector": None if sector is None else Fraction(sector),
        "h0": float(opts["--h0"]),
    }
    fields.update(override)
    return ref.Model(**fields)


class _Failures(list):
    def expect(self, cond, message: str, kind: str = "wrong"):
        if not cond:
            self.append((kind, message))
        return bool(cond)


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


def _report(text: str, fails: _Failures):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        fails.expect(False, f"output is not a JSON report: {exc}")
        return None


# ---------------------------------------------------------------------------
# solve


def _check_minima(opts, rep, fails):
    model = model_of(opts)
    rows = rep["results"]["minima"]
    fails.expect(rep["status"] == "ok", f"status {rep['status']}")
    fails.expect(len(rows) > 0, "no minima reported")
    f_para = float(ref.free_energy_x(model, np.full(model.n, 1.0 / model.n)))
    # g and h0 single out one state, so only the bare magnet is cyclic.
    symmetric = model.g == 0.0 and model.h0 == 0.0
    for k, row in enumerate(rows):
        m = np.array(row["m_star"], dtype=float)
        f_ref = float(ref.free_energy_m(model, m))
        fails.expect(_close(row["f_value"], f_ref, F_TOL),
                     f"minimum {k}: f_value {row['f_value']} vs reference {f_ref}")
        sc = ref.selfconsistent_moments(model, m)
        dev = float(np.max(np.abs(sc - m)))
        fails.expect(dev <= SELF_CONSISTENCY_TOL,
                     f"minimum {k}: softmax(-h/T) moments off m* by {dev:.3e}")
        orbit = row["orbit"]
        fails.expect(len(orbit) == model.n, f"minimum {k}: orbit of {len(orbit)}")
        fails.expect(np.allclose(orbit[0], m, rtol=0, atol=1e-15),
                     f"minimum {k}: orbit does not start at m*")
        if symmetric:
            f_orbit = ref.free_energy_m(model, np.array(orbit, dtype=float))
            spread = float(np.max(np.abs(f_orbit - f_ref)))
            fails.expect(spread <= F_TOL, f"minimum {k}: orbit F spread {spread:.3e}")
    f_global = [r["f_value"] for r in rows if r["classification"] == "global"]
    f_local = [r["f_value"] for r in rows if r["classification"] == "local"]
    if fails.expect(f_global, "no global minimum"):
        if f_local:
            fails.expect(max(f_global) <= min(f_local) + 1e-12,
                         "a global minimum lies above a local one")
        fails.expect(min(f_global) <= f_para + 1e-12,
                     f"global F {min(f_global)} above the paramagnet F {f_para}")


def _check_critical_l1(opts, rep, fails):
    model = model_of(opts)
    res = rep["results"]
    fails.expect(rep["status"] == "ok", f"status {rep['status']}")
    for key, value in res.items():
        fails.expect(value is not None, f"{key} missing")
    if fails:
        return
    t_ms, m2_ms = res["T_ms"], res["m2_ms"]
    at_ms = model_of(opts, temp=t_ms)
    slope = ref.profile_slope(at_ms, m2_ms)
    curv = ref.profile_curvature(at_ms, m2_ms)
    fails.expect(abs(slope) <= PROFILE_TOL, f"slope {slope:.3e} at T_ms")
    fails.expect(abs(curv) <= PROFILE_TOL, f"curvature {curv:.3e} at T_ms")
    t_c, m2_c = res["T_c"], res["m2_c"]
    at_c = model_of(opts, temp=t_c)
    gap = ref.profile_value(at_c, m2_c) + t_c * math.log(3.0)
    fails.expect(abs(gap) <= F_TOL, f"F(T_c) + T_c ln 3 = {gap:.3e}")
    fails.expect(abs(ref.profile_slope(at_c, m2_c)) <= PROFILE_TOL, "slope at T_c")
    fails.expect(0.0 < t_c < t_ms, f"T_c {t_c} not below T_ms {t_ms}")
    # g_c: the barrier condition at (T/2, g/2) in sector 0 is tangent.
    g_c, m2_b = res["g_c"], res["barrier_location"]
    if g_c > 0.0:
        half = model_of(opts, temp=model.temp / 2, g=g_c / 2, sector=Fraction(0))
        fails.expect(abs(ref.profile_slope(half, m2_b)) <= PROFILE_TOL,
                     "barrier condition not met at g_c")
        fails.expect(abs(ref.profile_curvature(half, m2_b)) <= PROFILE_TOL,
                     "barrier condition not tangent at g_c")


def _two_state_scan(model: ref.Model):
    """(broken local minimum exists, global minimum broken) by brute force."""
    u = np.linspace(0.0, 1.0, 200_001)[1:-1]
    f = ref.free_energy_x(model, np.column_stack([1.0 - u, u]))
    inner = (f[1:-1] < f[:-2]) & (f[1:-1] <= f[2:])
    local_u = u[1:-1][inner]
    broken = np.abs(local_u - 0.5) > BROKEN   # m1 = u - 1/2
    return bool(broken.any()), bool(abs(u[np.argmin(f)] - 0.5) > BROKEN)


def _check_critical_scan(opts, rep, fails):
    res = rep["results"]
    fails.expect(rep["status"] == "partial", f"status {rep['status']}")
    fails.expect(res.get("g_c") is None, "g_c reported by the scan path")
    for key, want_global in (("T_ms", False), ("T_c", True)):
        t = res.get(key)
        if not fails.expect(t is not None, f"{key} missing"):
            continue
        below = _two_state_scan(model_of(opts, temp=t * (1 - THRESHOLD_STEP)))
        above = _two_state_scan(model_of(opts, temp=t * (1 + THRESHOLD_STEP)))
        pick = 1 if want_global else 0
        fails.expect(below[pick], f"no broken minimum just below {key} = {t}")
        fails.expect(not above[pick], f"broken minimum just above {key} = {t}")
    if res.get("T_ms") is not None and res.get("T_c") is not None:
        fails.expect(res["T_c"] <= res["T_ms"], "T_c above T_ms")


def _check_critical(opts, rep, fails):
    twice_l = int(opts["--l"])
    if twice_l == 2:
        _check_critical_l1(opts, rep, fails)
    elif twice_l == 1:
        _check_critical_scan(opts, rep, fails)
    else:
        fails.expect(False, "the benchmark checks critical for 2l = 1, 2 only")


# ---------------------------------------------------------------------------
# grid


def _check_cells(model, m, flag, f, fails, what):
    """Feasibility flags and F of grid cells at moment vectors m."""
    x = ref.weights(model.twice_l, m)
    low = x.min(axis=1)
    clear = np.abs(low + ref.FEASIBLE_TOL) > 1e-11   # away from the tolerance edge
    flag_ref = low >= -ref.FEASIBLE_TOL
    bad = int(np.count_nonzero(clear & (flag != flag_ref)))
    fails.expect(bad == 0, f"{what}: {bad} feasibility flags differ from the inversion")
    nan_ok = np.isnan(f) == (flag == 0)
    fails.expect(bool(nan_ok.all()),
                 f"{what}: {int((~nan_ok).sum())} cells with NaN not matching the flag")
    live = (flag == 1) & flag_ref
    f_ref = ref.free_energy_x(model, x[live])
    dev = float(np.max(np.abs(f[live] - f_ref), initial=0.0))
    fails.expect(dev <= GRID_F_TOL, f"{what}: F off the reference by {dev:.3e}")


def _axis_values(twice_l: int, k: int, resolution: int) -> np.ndarray:
    vals = [float(s**k) for s in ref.sigmas(twice_l)]
    return np.linspace(min(vals), max(vals), resolution)


def _check_landscape_table(opts, columns, table, notes, fails):
    model = model_of(opts)
    res = int(opts["--resolution"])
    if opts.get("--profile"):
        fails.expect(columns == ["m2", "feasible", "F_uncoupled", "F_coupled"],
                     f"profile columns {columns}")
        if not fails.expect(table.shape == (res, 4), f"table shape {table.shape}"):
            return
        m2 = np.linspace(0.0, 1.0, res)
        fails.expect(np.allclose(table[:, 0], m2, rtol=1e-11, atol=1e-12),
                     "profile abscissa")
        m = np.column_stack([np.zeros(res), m2])
        flag = table[:, 1].astype(int)
        _check_cells(model_of(opts, g=0.0), m, flag, table[:, 2], fails, "F_uncoupled")
        _check_cells(model, m, flag, table[:, 3], fails, "F_coupled")
        return
    k1, k2 = int(opts["--axis1"]), int(opts["--axis2"])
    if not fails.expect(table.shape == (res * res, 4), f"table shape {table.shape}"):
        return
    a1 = _axis_values(model.twice_l, k1, res)
    a2 = _axis_values(model.twice_l, k2, res)
    g1, g2 = np.meshgrid(a1, a2, indexing="ij")
    m = np.tile(ref.paramagnet(model.twice_l), (res * res, 1))
    m[:, k1 - 1] = g1.ravel()
    m[:, k2 - 1] = g2.ravel()
    fails.expect(np.allclose(table[:, 0], m[:, k1 - 1], rtol=1e-11, atol=1e-12)
                 and np.allclose(table[:, 1], m[:, k2 - 1], rtol=1e-11, atol=1e-12),
                 "grid coordinates")
    _check_cells(model, m, table[:, 2].astype(int), table[:, 3], fails, "grid")
    if notes is not None:
        fails.expect(any(n.startswith(f"# axes: m{k1} (rows), m{k2} (columns)")
                         for n in notes), "axes note")
    # The header check runs last, so that a request kept for this known
    # fault still has every value checked.
    want = [f"m{k1}", f"m{k2}", "feasible", "F"]
    fails.expect(columns == want, f"header {columns} for axes {want[:2]}",
                 kind=HEADER_FAULT)


def _check_landscape(opts, text, fails):
    if opts.get("--format") == "json":
        rep = _report(text, fails)
        if rep is None:
            return
        rows = rep["results"]["rows"]
        table = np.array([[np.nan if v is None else v for v in r] for r in rows],
                         dtype=float).reshape(-1, 4)
        _check_landscape_table(opts, rep["results"]["columns"], table, None, fails)
        return
    lines = text.splitlines()
    notes = [ln for ln in lines if ln.startswith("#")]
    body = lines[len(notes):]
    if not fails.expect(len(body) >= 1 and len(notes) >= 3, "CSV layout"):
        return
    fails.expect(notes[0].startswith("# curieweiss landscape v"), "CSV banner")
    fails.expect(notes[2].startswith("# provenance: sha256:"), "provenance line")
    table = np.loadtxt(body[1:], delimiter=",", ndmin=2)
    _check_landscape_table(opts, body[0].split(","), table, notes, fails)


def _check_symcheck(opts, rep, fails):
    fails.expect(rep["status"] == "ok", f"status {rep['status']}")
    dev = rep["results"]["deviations"]
    fails.expect(set(dev) == set(SYMMETRY_TOLERANCES), f"deviation keys {sorted(dev)}")
    for key, tol in SYMMETRY_TOLERANCES.items():
        value = dev.get(key)
        fails.expect(value is not None and 0.0 <= value <= tol,
                     f"{key} deviation {value} above {tol}")
    fails.expect(rep["config"]["samples"] == int(opts["--samples"]), "samples echo")


# ---------------------------------------------------------------------------
# finite N


def _check_oracle(opts, rep, fails):
    model = model_of(opts)
    fails.expect(rep["status"] == "ok", f"status {rep['status']}")
    limit = rep["results"]["reference"]
    if not fails.expect(limit is not None, "no large-N reference"):
        return
    m_inf = np.array(limit["moments"], dtype=float)
    f_inf = float(ref.free_energy_m(model, m_inf))
    fails.expect(_close(limit["free_energy"], f_inf, F_TOL), "large-N reference F")
    f_para = float(ref.free_energy_x(model, np.full(model.n, 1.0 / model.n)))
    fails.expect(f_inf <= f_para + 1e-12, "large-N reference above the paramagnet")
    n_list = sorted(int(v) for v in opts["--n-list"].split(","))
    entries = rep["results"]["by_n"]
    fails.expect([e["n"] for e in entries] == n_list, "N list")
    symmetric = model.g == 0.0 and model.h0 == 0.0
    pm = ref.paramagnet(model.twice_l)
    for e in entries:
        n = e["n"]
        f_n, m_n = e["free_energy"], np.array(e["moments"], dtype=float)
        fails.expect(_close(e["gap_to_limit"], f_n - limit["free_energy"], 1e-12),
                     f"N={n}: gap_to_limit")
        # ln Z_N <= ln(#compositions) - N F_inf / T
        count = ref.composition_count(n, model.twice_l)
        floor = f_inf - model.temp * math.log(count) / n
        fails.expect(f_n >= floor - 1e-9, f"N={n}: F_N below its lower bound")
        if model.n**n <= RAW_CAP:
            fails.expect(e.get("raw_check_rel", 1.0) <= 1e-10,
                         f"N={n}: raw-configuration check {e.get('raw_check_rel')}")
        else:
            fails.expect("raw_check_rel" not in e, f"N={n}: unexpected raw check")
        if count <= CHEAP_COMPOSITIONS:
            f_ref, m_ref = ref.composition_sum(model, n)
            fails.expect(_close(f_n, f_ref, 1e-10 * max(1.0, abs(f_ref))),
                         f"N={n}: F_N {f_n} vs composition sum {f_ref}")
            dev = float(np.max(np.abs(m_n - m_ref)))
            fails.expect(dev <= 1e-9, f"N={n}: <m> off the composition sum by {dev:.3e}")
        if symmetric:
            dev = float(np.max(np.abs(m_n - pm)))
            fails.expect(dev <= 1e-9, f"N={n}: <m> off the paramagnet by {dev:.3e}")


def _check_ensemble(req, summary, fails):
    kw = req["kwargs"]
    twice_l, n = kw["twice_l"], kw["n_spins"]
    model = ref.Model(twice_l=twice_l, temp=kw["temp"], j4=kw["j4"])
    fails.expect(summary["rows"] == ref.composition_count(n, twice_l),
                 f"{summary['rows']} rows, want C(N+2l, 2l)")
    want = n * math.log(twice_l + 1)
    fails.expect(abs(summary["log_total_degeneracy"] - want) <= 1e-12 * want,
                 "sum of exp(log_degeneracy) is not (2l+1)**N")
    fails.expect(summary["rows_sum_to_n"], "a row does not sum to N")
    fails.expect(summary["rows_distinct"], "rows repeat")
    for counts, log_deg, mom, energy, log_w in summary["sampled"]:
        x = np.array(counts, dtype=float) / n
        fails.expect(_close(log_deg, ref.log_multinomial(counts), 1e-9),
                     f"log_degeneracy of {counts}")
        fails.expect(np.allclose(mom, ref.moments(twice_l, x), rtol=1e-12, atol=1e-13),
                     f"moments of {counts}")
        e_ref = float(ref.energy_x(model, x))
        fails.expect(_close(energy, e_ref, 1e-12), f"energy of {counts}")
        fails.expect(_close(log_w, log_deg - n * e_ref / model.temp, 1e-8),
                     f"log_weight of {counts}")


def check(req: dict, record: dict, text: str | None) -> list:
    """Failures of one request's output; see the module docstring."""
    fails = _Failures()
    if req["op"] == "enumerate_ensemble":
        _check_ensemble(req, record["summary"], fails)
        return fails
    if req["op"] == "paramagnet_gaussian_check":
        value = record["summary"]["value"]
        # The multinomial variances equal 2/(3N) and 2/(9N) exactly.
        fails.expect(0.0 <= value <= 1e-9, f"relative deviation {value}")
        return fails
    opts = options(req["argv"])
    if not fails.expect(record["code"] == 0, f"exit code {record['code']}"):
        return fails
    if not fails.expect(text is not None, "no output written"):
        return fails
    command = opts["command"]
    if command == "landscape":
        _check_landscape(opts, text, fails)
        return fails
    rep = _report(text, fails)
    if rep is None:
        return fails
    fails.expect(rep.get("command") == command, "command echo")
    fails.expect(str(rep.get("provenance", "")).startswith("sha256:"), "provenance")
    {"minima": _check_minima, "critical": _check_critical,
     "symcheck": _check_symcheck, "oracle": _check_oracle}[command](opts, rep, fails)
    return fails
