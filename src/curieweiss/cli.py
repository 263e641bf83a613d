"""Command-line front end emitting CSV grids and JSON reports.

Five subcommands: ``landscape`` (free-energy grids and 1-D profiles),
``minima`` (multi-start minimization), ``critical`` (transition points:
the l = 1 closed forms, or the reflection-axis branch solver for other
l), ``symcheck`` (randomized symmetry verification), ``oracle`` (exact
finite-N comparison).  Output is deterministic for a fixed config and
seed; every file starts with a header carrying the version, the
effective config, and a provenance hash over both.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .equilibrium import (
    GRAD_TOL,
    branch_thresholds,
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
    MAX_RAW_CONFIGURATIONS,
    canonical_sums,
    raw_config_free_energy,
)
from .order_params import paramagnet_moments
from .properties import TOLERANCES, run_symmetry_suite
from .spectrum import SpinQuantum, spectrum_array
from .thermo import ModelParams, free_energy_batch

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

_ALL = ("landscape", "minima", "critical", "symcheck", "oracle")
_FLOAT = {"type": float}

# option: (default, argparse keywords, subcommands that read it).  Reports
# echo exactly the options their subcommand reads; --out and --config
# (read by main, None here) are on every subcommand and never echoed.
_OPTIONS = {
    "l": (2, {"type": int, "metavar": "TWICE_L",
              "help": "doubled spin of the magnet (default 2, i.e. l=1)"}, _ALL),
    "j2": (0.0, _FLOAT, _ALL),
    "j4": (1.0, _FLOAT, _ALL),
    "j6": (0.0, _FLOAT, _ALL),
    "j8": (0.0, _FLOAT, _ALL),
    "temp": (0.2, _FLOAT, _ALL),
    "g": (0.0, _FLOAT, _ALL),
    "sector": (None, {"type": str, "help": "tested eigenvalue, e.g. 0, 1, -1/2"},
               _ALL),
    "h0": (0.0, _FLOAT, _ALL),
    "format": (None, {"choices": ("csv", "json")}, _ALL),
    "seed": (0, {"type": int}, ("minima", "symcheck", "oracle")),
    "resolution": (201, {"type": int}, ("landscape",)),
    "profile": (False, {"action": "store_true",
                        "help": "1-D profile along the m1=0 line (l=1)"},
                ("landscape",)),
    "axis1": (1, {"type": int}, ("landscape",)),
    "axis2": (2, {"type": int}, ("landscape",)),
    "samples": (1000, {"type": int}, ("symcheck",)),
    "n_list": ("50,100,200,400", {"type": str, "help": "comma-separated system sizes"},
               ("oracle",)),
    "out": (None, {"type": str, "help": "output path (stdout when omitted)"}, None),
    "config": (None, {"type": str, "help": "JSON file of option defaults (flags win)"},
               None),
}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="curieweiss", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for key, (_, keywords, readers) in _OPTIONS.items():
            if readers is None or name in readers:
                p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                               **keywords)
    return parser


def _config_value(key: str, value):
    """A config-file value read as its flag would be: through the option's
    type and choices, switches as JSON booleans, integers only when whole."""
    if key not in _OPTIONS:
        raise UsageError(f"unknown config key {key!r}")
    default, keywords, _ = _OPTIONS[key]
    kind = keywords.get("type", str)
    if key == "n_list" and isinstance(value, list):
        value = ",".join(map(str, value))  # the flag's text, parsed with it
    if keywords.get("action") == "store_true" or value is None:
        if isinstance(value, bool) or (value is None and default is None):
            return value
    elif type(value) in (str, int, float) and not (
            kind is int and type(value) is float and not value.is_integer()):
        with contextlib.suppress(ValueError, OverflowError):
            typed = kind(value)
            if typed in keywords.get("choices", (typed,)):
                return typed
    raise UsageError(f"config key {key!r}: {value!r} is not a valid value")


def _merge_config(args: argparse.Namespace) -> dict:
    """Resolve option precedence: explicit flags > config file > defaults.

    The result holds the options the subcommand reads, --out and --config;
    a config file may name any option, each checked by _config_value, and
    those the subcommand does not read are ignored.
    """
    loaded = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        loaded = {key: _config_value(key, value) for key, value in loaded.items()}
    cfg = {"command": args.command}
    for key, (default, _, readers) in _OPTIONS.items():
        if readers is None or args.command in readers:
            flag_value = getattr(args, key)
            cfg[key] = loaded.get(key, default) if flag_value is None else flag_value
    if "n_list" in cfg:
        cfg["n_list"] = [int(part) for part in cfg["n_list"].split(",") if part.strip()]
    return cfg


def _make_params(cfg: dict) -> ModelParams:
    sector = (cfg["sector"] or "").strip().lower()
    return ModelParams(SpinQuantum(cfg["l"]), cfg["temp"],
                       sector=None if sector in ("", "none") else Fraction(sector),
                       **{key: cfg[key] for key in ("j2", "j4", "j6", "j8", "g", "h0")})


def _plain(obj):
    """Collapse numpy scalars/arrays and Fractions for JSON/text output."""
    # exact built-in types first: the cells of a JSON landscape are most calls
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else None
    if kind in (int, str, bool, type(None)):
        return obj
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()  # Python floats already; nothing to collapse
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _echo_config(cfg: dict) -> dict:
    return {
        key: _plain(cfg[key])
        for key, (_, _, readers) in sorted(_OPTIONS.items())
        if readers is not None and cfg["command"] in readers
    }


def _provenance(cfg_echo: dict, command: str) -> str:
    canon = json.dumps(
        {"version": __version__, "command": command, "config": cfg_echo},
        sort_keys=True,
        separators=(",", ":"),
    )
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


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


def _status(failures: int, total: int) -> tuple[str, int]:
    """Report status and exit code: only a total failure is a numerical one."""
    if failures == total:
        return "failed", EXIT_NUMERICAL
    return ("partial" if failures else "ok"), EXIT_OK


def _landscape_pieces(cfg: dict, header: str, notes: list[str], axes, ok, fields):
    """A landscape as CSV rows or as the rows of a JSON report, in pieces.

    The points are the grid of ``axes`` (one or two 1-D arrays, the first
    outermost).  A row holds the point's axis values, its feasibility flag
    (boolean array ``ok``) and its ``fields``: float64 columns that are NaN
    wherever the point is infeasible, as free_energy_batch returns them.

    CSV writes floats as %.12g (-0 and 0, nan and inf each keep their own
    text) and the flag as 0 or 1.  Each axis value is formatted once.  Each
    inner-axis value has two line templates, built once: a feasible one,
    "<tail>1,%.12g..." with one %.12g per field, and an infeasible one,
    "<tail>0,nan...".  An outer row is the join of its points' templates,
    formatted by one % over that row's feasible values, fields interleaved
    per point; a row with no feasible point is one join and no %.  The
    header lines are the first piece and the rows of one outer-axis value
    each later one, made as they are written, so the text phase holds one
    outer row: the whole text is never held, which would double the peak
    memory of a large grid (17 MB of rows and as much again joined at 801²).
    A JSON report is one piece.
    """
    if cfg["format"] == "json":
        columns = [a.ravel() for a in np.meshgrid(*axes, indexing="ij")]
        columns += [ok.astype(int), *fields]
        rows = list(zip(*(c.tolist() for c in columns)))
        yield _json_text(cfg, {"columns": header.split(","), "rows": rows}, {}, "ok")
        return
    axis_texts = [[f"{v:.12g}," for v in a.tolist()] for a in axes]
    heads, tails = axis_texts if len(axes) == 2 else ([""], axis_texts[0])
    echo = _echo_config(cfg)
    lines = [
        f"# curieweiss {cfg['command']} v{__version__}",
        "# config: " + json.dumps(echo, sort_keys=True, separators=(",", ":")),
        "# provenance: " + _provenance(echo, cfg["command"]),
    ]
    lines += [f"# {note}" for note in notes]
    lines.append(header)
    yield "\n".join(lines) + "\n"
    width = len(tails)
    live, dead = (np.array([t + flag + cell * len(fields) + "\n" for t in tails], object)
                  for flag, cell in (("1", ",%.12g"), ("0", ",nan")))
    for i, head in enumerate(heads):
        row = slice(i * width, (i + 1) * width)
        cells = ok[row]
        if not cells.any():
            yield head + head.join(dead.tolist())
            continue
        values = np.stack([f[row][cells] for f in fields], axis=-1).ravel().tolist()
        yield (head + head.join(np.where(cells, live, dead).tolist())) % tuple(values)


# ---------------------------------------------------------------------------
# subcommands; each returns (output text, exit code), landscape its text
# as an iterable of pieces


def cmd_landscape(cfg: dict):
    params = _make_params(cfg)
    resolution = int(cfg["resolution"])
    if resolution < 2:
        raise UsageError("resolution must be at least 2")

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
        return _landscape_pieces(cfg, "m2,feasible,F_uncoupled,F_coupled",
                                 ["profile: m1 = 0 line"], (m2,), ok,
                                 (f_unc, f_cpl)), EXIT_OK

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
    m = np.tile(base, (resolution * resolution, 1))
    grid = m.reshape(resolution, resolution, -1)  # a view: rows by columns
    grid[:, :, k1 - 1] = spans[0][:, None]
    grid[:, :, k2 - 1] = spans[1]
    f, ok = free_energy_batch(params, m)
    notes = [f"axes: m{k1} (rows), m{k2} (columns); other moments at paramagnet"]
    return _landscape_pieces(cfg, f"m{k1},m{k2},feasible,F", notes, spans, ok,
                             (f,)), EXIT_OK


def cmd_minima(cfg: dict) -> tuple[str, int]:
    params = _make_params(cfg)
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
    n_global = sum(1 for mini in found if mini.classification == "global")
    residuals = {
        "gradient_tolerance": GRAD_TOL,
        "n_found": len(found),
        "n_global": n_global,
    }
    if not n_global:   # every point kept is a saddle: no minimum to report
        return _json_text(cfg, results, residuals, "failed"), EXIT_NUMERICAL
    return _json_text(cfg, results, residuals, "ok"), EXIT_OK


def cmd_critical(cfg: dict) -> tuple[str, int]:
    params = _make_params(cfg)
    if params.g != 0.0 or params.h0 != 0.0:
        raise UsageError(
            "critical expects g = 0 and h0 = 0: its thresholds are the bare "
            "magnet's, and the coupling threshold is computed at --temp"
        )

    def attempt(solve):  # the threshold, or the error that makes it fail
        try:
            return solve(params)
        except (CurieWeissError, ValueError) as exc:
            return exc

    if params.l.twice_l == 2:
        t_ms = attempt(spinodal_temperature)  # T_c is found below it, or fails as it did
        t_c = t_ms if isinstance(t_ms, Exception) else attempt(
            lambda p: critical_temperature(p, spinodal=t_ms))
        points = [t_ms, t_c, attempt(critical_coupling)]
    else:
        pair = attempt(branch_thresholds)
        t_ms, t_c = pair if isinstance(pair, tuple) else (pair, pair)
        points = [t_ms, t_c or NoSolutionInBracket("no crossing below the spinodal"),
                  ValueError("coupling threshold is implemented for twice_l = 2 only")]
    results, residuals = {}, {}
    for key, location, point in zip(("T_ms", "T_c", "g_c"),
                                    ("m2_ms", "m2_c", "barrier_location"), points):
        failed = isinstance(point, Exception)
        results[key] = None if failed else point.value
        if params.l.twice_l == 2:
            results[location] = None if failed else float(point.order_param.values[1])
        residuals[key] = {"error": str(point)} if failed else point.residuals
    status, code = _status(sum(isinstance(p, Exception) for p in points), 3)
    return _json_text(cfg, results, residuals, status), code


def cmd_symcheck(cfg: dict) -> tuple[str, int]:
    params = _make_params(cfg)
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
    n_list = cfg["n_list"]
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
            default=None,
        )
        if best is None:
            residuals["reference_error"] = (
                "minimize found no global minimum; every stationary point it "
                f"kept is a saddle (n_found = {len(found)})"
            )
        else:
            reference = {
                "free_energy": best.f_value,
                "moments": best.m_star.values,
            }
    except CurieWeissError as exc:
        residuals["reference_error"] = str(exc)

    entries = []
    failures = 0
    for n in sorted(n_list):
        try:
            f_n, moments = canonical_sums(params, n)
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
        entry = {"n": n, "free_energy": f_n, "moments": moments}
        if reference is not None:
            entry["gap_to_limit"] = f_n - reference["free_energy"]
        if params.l.n_states**n <= MAX_RAW_CONFIGURATIONS:
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
    status, code = _status(failures, len(n_list))
    if reference is None and status == "ok":
        status = "partial"   # no large-N limit to compare with
    return _json_text(cfg, results, residuals, status), code


_COMMANDS = {
    "landscape": (cmd_landscape, "free-energy grid or 1-D profile as CSV"),
    "minima": (cmd_minima, "multi-start minimization report"),
    "critical": (cmd_critical, "spinodal / critical temperature and coupling threshold"),
    "symcheck": (cmd_symcheck, "randomized symmetry property suite"),
    "oracle": (cmd_oracle, "exact finite-N enumeration against the large-N solver"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if cfg["format"] == "csv" and args.command != "landscape":
            raise UsageError(f"{args.command} emits a JSON report")
        text, code = _COMMANDS[args.command][0](cfg)
    except CurieWeissError as exc:
        # before ValueError: InfeasibleMoments and EnsembleTooLarge are both
        print(f"curieweiss: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError) as exc:
        print(f"curieweiss: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    pieces = [text] if isinstance(text, str) else text
    if cfg["out"]:
        try:
            with open(cfg["out"], "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            print(f"curieweiss: error: cannot write {cfg['out']}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.writelines(pieces)
    return code


if __name__ == "__main__":
    sys.exit(main())
