"""Command-line front end emitting CSV grids and JSON reports.

Five subcommands: ``landscape`` (free-energy grids and 1-D profiles),
``minima`` (multi-start minimization), ``critical`` (transition points),
``symcheck`` (randomized symmetry verification), ``oracle`` (exact
finite-N comparison).  Output is deterministic for a fixed config and
seed; every file starts with a header carrying the version, the
effective config, and a provenance hash over both.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .equilibrium import (
    GRAD_TOL,
    critical_coupling,
    critical_temperature,
    minimize,
    spinodal_temperature,
)
from .errors import (
    CurieWeissError,
    EnsembleTooLarge,
    NonConvergence,
    NoSolutionInBracket,
)
from .oracle import (
    enumerate_ensemble,
    exact_free_energy,
    raw_config_free_energy,
    thermal_moments,
)
from .order_params import paramagnet_moments
from .properties import TOLERANCES, run_symmetry_suite
from .spectrum import SpinQuantum, spectrum_array
from .thermo import ModelParams, free_energy_batch

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

_MODEL_KEYS = ("l", "j2", "j4", "j6", "j8", "temp", "g", "sector", "h0")
_ECHO_KEYS = {
    "landscape": _MODEL_KEYS
    + ("resolution", "profile", "axis1", "axis2", "format"),
    "minima": _MODEL_KEYS + ("seed", "format"),
    "critical": _MODEL_KEYS + ("seed", "format"),
    "symcheck": _MODEL_KEYS + ("samples", "seed", "format"),
    "oracle": _MODEL_KEYS + ("n_list", "seed", "format"),
}

_DEFAULTS = {
    "l": 2,
    "j2": 0.0,
    "j4": 1.0,
    "j6": 0.0,
    "j8": 0.0,
    "temp": 0.2,
    "g": 0.0,
    "sector": None,
    "h0": 0.0,
    "out": None,
    "format": None,
    "seed": 0,
    "resolution": 201,
    "samples": 1000,
    "n_list": "50,100,200,400",
    "profile": False,
    "axis1": 1,
    "axis2": 2,
}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="curieweiss", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "landscape": "free-energy grid or 1-D profile as CSV",
        "minima": "multi-start minimization report",
        "critical": "spinodal / critical temperature and coupling threshold",
        "symcheck": "randomized symmetry property suite",
        "oracle": "exact finite-N enumeration against the large-N solver",
    }
    for name, helptext in specs.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--l", type=int, default=None, metavar="TWICE_L",
                       help="doubled spin of the magnet (default 2, i.e. l=1)")
        for flag in ("--j2", "--j4", "--j6", "--j8", "--temp", "--g", "--h0"):
            p.add_argument(flag, type=float, default=None)
        p.add_argument("--sector", type=str, default=None,
                       help="tested eigenvalue, e.g. 0, 1, -1/2")
        p.add_argument("--out", type=str, default=None,
                       help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--resolution", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of option defaults (flags win)")
        if name == "landscape":
            p.add_argument("--profile", action="store_true", default=None,
                           help="1-D profile along the m1=0 line (l=1)")
            p.add_argument("--axis1", type=int, default=None)
            p.add_argument("--axis2", type=int, default=None)
        if name == "oracle":
            p.add_argument("--n-list", dest="n_list", type=str, default=None,
                           help="comma-separated system sizes")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Resolve option precedence: explicit flags > config file > defaults."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in _DEFAULTS:
                raise UsageError(f"unknown config key {key!r}")
            cfg[key] = value
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    cfg["command"] = args.command
    return cfg


def _make_params(cfg: dict) -> ModelParams:
    l = SpinQuantum(int(cfg["l"]))
    sector = cfg["sector"]
    if sector is not None and not isinstance(sector, Fraction):
        text = str(sector).strip().lower()
        sector = None if text in ("", "none") else Fraction(text)
    return ModelParams(
        l=l,
        temperature=float(cfg["temp"]),
        j2=float(cfg["j2"]),
        j4=float(cfg["j4"]),
        j6=float(cfg["j6"]),
        j8=float(cfg["j8"]),
        g=float(cfg["g"]),
        sector=sector,
        h0=float(cfg["h0"]),
    )


def _plain(obj):
    """Collapse numpy scalars/arrays and Fractions for JSON/text output."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _echo_config(cfg: dict) -> dict:
    keys = _ECHO_KEYS[cfg["command"]]
    echo = {}
    for key in keys:
        value = cfg[key]
        if key == "n_list" and isinstance(value, str):
            value = [int(part) for part in value.split(",") if part.strip()]
        echo[key] = _plain(value)
    return dict(sorted(echo.items()))


def _provenance(cfg_echo: dict, command: str) -> str:
    canon = json.dumps(
        {"version": __version__, "command": command, "config": cfg_echo},
        sort_keys=True,
        separators=(",", ":"),
    )
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _csv_text(cfg: dict, header: str, rows: list[str], notes: list[str]) -> str:
    echo = _echo_config(cfg)
    lines = [
        f"# curieweiss {cfg['command']} v{__version__}",
        "# config: " + json.dumps(echo, sort_keys=True, separators=(",", ":")),
        "# provenance: " + _provenance(echo, cfg["command"]),
    ]
    lines += [f"# {note}" for note in notes]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _json_text(cfg: dict, results, residuals, status: str) -> str:
    echo = _echo_config(cfg)
    report = {
        "version": __version__,
        "command": cfg["command"],
        "config": echo,
        "provenance": _provenance(echo, cfg["command"]),
        "results": _plain(results),
        "residuals": _plain(residuals),
        "status": status,
    }
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _f12(value: float) -> str:
    return format(value, ".12g")


# ---------------------------------------------------------------------------
# subcommands; each returns (output text, exit code)


def cmd_landscape(cfg: dict) -> tuple[str, int]:
    params = _make_params(cfg)
    resolution = int(cfg["resolution"])
    if resolution < 2:
        raise UsageError("resolution must be at least 2")
    fmt = cfg["format"] or "csv"

    if cfg["profile"]:
        if params.l.twice_l != 2:
            raise UsageError("profile mode draws the m1 = 0 line of the l=1 magnet")
        m2 = np.linspace(0.0, 1.0, resolution)
        m = np.column_stack([np.zeros(resolution), m2])
        bare = dataclasses.replace(params, g=0.0)
        f_unc, ok = free_energy_batch(bare, m)
        if params.g != 0.0:
            f_cpl, _ = free_energy_batch(params, m)
        else:
            f_cpl = f_unc
        header = "m2,feasible,F_uncoupled,F_coupled"
        if fmt == "json":
            rows = [
                [float(a), int(o), _plain(u), _plain(c)]
                for a, o, u, c in zip(m2, ok, f_unc, f_cpl)
            ]
            return _json_text(
                cfg, {"columns": header.split(","), "rows": rows}, {}, "ok"
            ), EXIT_OK
        rows = [
            f"{_f12(a)},{int(o)},{_f12(u)},{_f12(c)}"
            for a, o, u, c in zip(m2, ok, f_unc, f_cpl)
        ]
        return _csv_text(cfg, header, rows, ["profile: m1 = 0 line"]), EXIT_OK

    k1, k2 = int(cfg["axis1"]), int(cfg["axis2"])
    if not (1 <= k1 <= params.l.twice_l and 1 <= k2 <= params.l.twice_l) or k1 == k2:
        raise UsageError(
            f"axes must be two distinct moment indices in 1..{params.l.twice_l}"
        )
    nodes = spectrum_array(params.l)
    base = paramagnet_moments(params.l).values
    spans = []
    for k in (k1, k2):
        vals = nodes**k
        spans.append(np.linspace(vals.min(), vals.max(), resolution))
    g1, g2 = np.meshgrid(spans[0], spans[1], indexing="ij")
    m = np.tile(base, (resolution * resolution, 1))
    m[:, k1 - 1] = g1.ravel()
    m[:, k2 - 1] = g2.ravel()
    f, ok = free_energy_batch(params, m)

    notes = [f"axes: m{k1} (rows), m{k2} (columns); other moments at paramagnet"]
    header = f"m{k1},m{k2},feasible,F"
    if fmt == "json":
        rows = [
            [float(a), float(b), int(o), _plain(v)]
            for a, b, o, v in zip(m[:, k1 - 1], m[:, k2 - 1], ok, f)
        ]
        return _json_text(
            cfg, {"columns": header.split(","), "rows": rows}, {}, "ok"
        ), EXIT_OK
    rows = [
        f"{_f12(a)},{_f12(b)},{int(o)},{_f12(v)}"
        for a, b, o, v in zip(m[:, k1 - 1], m[:, k2 - 1], ok, f)
    ]
    return _csv_text(cfg, header, rows, notes), EXIT_OK


def cmd_minima(cfg: dict) -> tuple[str, int]:
    params = _make_params(cfg)
    if cfg["format"] == "csv":
        raise UsageError("minima emits a JSON report")
    try:
        found = minimize(params, seed=int(cfg["seed"]))
    except NonConvergence as exc:
        return _json_text(cfg, {}, {"error": str(exc)}, "failed"), EXIT_NUMERICAL
    results = {
        "minima": [
            {
                "m_star": mini.m_star.values,
                "f_value": mini.f_value,
                "classification": mini.classification,
                "hessian_eigen_min": mini.hessian_eigen_min,
                "orbit": [mv.values for mv in mini.orbit],
            }
            for mini in found
        ]
    }
    residuals = {
        "gradient_tolerance": GRAD_TOL,
        "n_found": len(found),
        "n_global": sum(1 for mini in found if mini.classification == "global"),
    }
    return _json_text(cfg, results, residuals, "ok"), EXIT_OK


def _scan_transition(params: ModelParams, found_at, want_global: bool):
    """Minimize-based temperature bisection for magnets without the l=1
    closed-form profile.  found_at(T) is minimize's list at temperature T,
    empty when it did not converge.  Returns (T, residuals dict)."""
    pm = paramagnet_moments(params.l).values
    scale = abs(params.j2) + abs(params.j4) + abs(params.j6) + abs(params.j8)
    if scale == 0.0:
        raise NoSolutionInBracket("all exchange couplings vanish")

    def broken_at(t: float) -> bool:
        for mini in found_at(t):
            if mini.classification == "saddle-rejected":
                continue
            if want_global and mini.classification != "global":
                continue
            if np.max(np.abs(mini.m_star.values - pm)) > 1e-3:
                return True
        return False

    grid = scale * np.geomspace(0.02, 1.2, 8)
    flags = [broken_at(t) for t in grid]
    if not flags[0]:
        raise NoSolutionInBracket(
            "no symmetry-broken state found even at the lowest scan temperature"
        )
    if flags[-1]:
        raise NoSolutionInBracket(
            "symmetry-broken state persists at the highest scan temperature"
        )
    idx = next(i for i, flag in enumerate(flags) if not flag)
    lo, hi = grid[idx - 1], grid[idx]
    for _ in range(18):
        mid = 0.5 * (lo + hi)
        if broken_at(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), {"bisection_width": hi - lo, "scan_based": 1.0}


def cmd_critical(cfg: dict) -> tuple[str, int]:
    params = _make_params(cfg)
    if cfg["format"] == "csv":
        raise UsageError("critical emits a JSON report")
    if params.g != 0.0:
        raise UsageError(
            "critical expects g = 0; the coupling threshold is itself "
            "computed as a function of --temp"
        )
    results = {}
    residuals = {}
    failures = 0

    if params.l.twice_l == 2:
        try:
            sp = spinodal_temperature(params)
            results["T_ms"] = sp.value
            results["m2_ms"] = float(sp.order_param.values[1])
            residuals["T_ms"] = sp.residuals
        except (CurieWeissError, ValueError) as exc:
            results["T_ms"], results["m2_ms"] = None, None
            residuals["T_ms"] = {"error": str(exc)}
            failures += 1
        try:
            ct = critical_temperature(params)
            results["T_c"] = ct.value
            results["m2_c"] = float(ct.order_param.values[1])
            residuals["T_c"] = ct.residuals
        except (CurieWeissError, ValueError) as exc:
            results["T_c"], results["m2_c"] = None, None
            residuals["T_c"] = {"error": str(exc)}
            failures += 1
        try:
            cc = critical_coupling(params)
            results["g_c"] = cc.value
            results["barrier_location"] = float(cc.order_param.values[1])
            residuals["g_c"] = cc.residuals
        except (CurieWeissError, ValueError) as exc:
            results["g_c"], results["barrier_location"] = None, None
            residuals["g_c"] = {"error": str(exc)}
            failures += 1
    else:
        seed = int(cfg["seed"])

        @functools.lru_cache(maxsize=None)
        def found_at(t: float):
            try:
                return minimize(dataclasses.replace(params, temperature=t),
                                n_random=6, seed=seed)
            except NonConvergence:
                return []

        for key, want_global in (("T_ms", False), ("T_c", True)):
            try:
                value, diag = _scan_transition(params, found_at, want_global)
                results[key] = value
                residuals[key] = diag
            except (CurieWeissError, ValueError) as exc:
                results[key] = None
                residuals[key] = {"error": str(exc)}
                failures += 1
        results["g_c"] = None
        residuals["g_c"] = {
            "error": "coupling threshold is implemented for twice_l = 2 only"
        }
        failures += 1

    total = 3
    status = "ok" if failures == 0 else ("failed" if failures == total else "partial")
    code = EXIT_NUMERICAL if failures == total else EXIT_OK
    return _json_text(cfg, results, residuals, status), code


def cmd_symcheck(cfg: dict) -> tuple[str, int]:
    params = _make_params(cfg)
    if cfg["format"] == "csv":
        raise UsageError("symcheck emits a JSON report")
    samples = int(cfg["samples"])
    deviations = run_symmetry_suite(params.l, samples=samples, seed=int(cfg["seed"]))
    passed = {k: bool(deviations[k] <= TOLERANCES[k]) for k in deviations}
    results = {
        "deviations": deviations,
        "tolerances": dict(TOLERANCES),
        "passed": passed,
    }
    ok = all(passed.values())
    status = "ok" if ok else "failed"
    return (
        _json_text(cfg, results, deviations, status),
        EXIT_OK if ok else EXIT_NUMERICAL,
    )


def cmd_oracle(cfg: dict) -> tuple[str, int]:
    params = _make_params(cfg)
    if cfg["format"] == "csv":
        raise UsageError("oracle emits a JSON report")
    raw_list = cfg["n_list"]
    if isinstance(raw_list, str):
        parts = [part.strip() for part in raw_list.split(",") if part.strip()]
        n_list = [int(part) for part in parts]
    else:
        n_list = [int(v) for v in raw_list]
    if not n_list or any(n < 1 for n in n_list):
        raise UsageError("n-list must hold positive integers")

    residuals = {}
    reference = None
    try:
        found = minimize(params, seed=int(cfg["seed"]))
        # orbit members are degenerate in F; pick one by a fixed rule
        best = min(
            (m for m in found if m.classification == "global"),
            key=lambda m: tuple(m.m_star.values),
        )
        reference = {
            "free_energy": best.f_value,
            "moments": best.m_star.values,
        }
    except (CurieWeissError, ValueError) as exc:
        residuals["reference_error"] = str(exc)

    entries = []
    failures = 0
    for n in sorted(n_list):
        try:
            ens = enumerate_ensemble(params.l, n, params)
        except EnsembleTooLarge as exc:
            entries.append(
                {
                    "n": n,
                    "error": f"{exc}; pick smaller --n-list entries or a "
                    "smaller --l",
                }
            )
            failures += 1
            continue
        f_n = exact_free_energy(ens)
        entry = {
            "n": n,
            "free_energy": f_n,
            "moments": thermal_moments(ens),
        }
        if reference is not None:
            entry["gap_to_limit"] = f_n - reference["free_energy"]
        d = params.l.n_states
        if d**n <= 1_000_000:
            raw = raw_config_free_energy(params, n)
            entry["raw_check_rel"] = abs(f_n - raw) / max(abs(raw), 1e-30)
        entries.append(entry)
    results = {"reference": reference, "by_n": entries}
    checks = [e["raw_check_rel"] for e in entries if "raw_check_rel" in e]
    if checks:
        residuals["max_raw_check_rel"] = max(checks)
    if reference is not None:
        gaps = [
            (e["n"], abs(e["gap_to_limit"]))
            for e in entries
            if "gap_to_limit" in e and e["n"] > 1
        ]
        if gaps:
            residuals["gap_rate_constant"] = max(
                g * n / np.log(n) for n, g in gaps
            )
    all_failed = failures == len(n_list)
    status = "ok" if failures == 0 else ("failed" if all_failed else "partial")
    return (
        _json_text(cfg, results, residuals, status),
        EXIT_NUMERICAL if all_failed else EXIT_OK,
    )


_COMMANDS = {
    "landscape": cmd_landscape,
    "minima": cmd_minima,
    "critical": cmd_critical,
    "symcheck": cmd_symcheck,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        text, code = _COMMANDS[args.command](cfg)
    except (UsageError, ValueError, TypeError) as exc:
        print(f"curieweiss: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CurieWeissError as exc:
        print(f"curieweiss: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if cfg["out"]:
        try:
            with open(cfg["out"], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"curieweiss: error: cannot write {cfg['out']}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
