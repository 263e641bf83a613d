"""Command-line interface: reports, determinism, exit codes, precedence."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import re

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from curieweiss import MAX_COMPOSITIONS, MAX_TWICE_L, cli, equilibrium
from curieweiss.oracle import MAX_RAW_CONFIGURATIONS
from curieweiss.errors import InfeasibleMoments


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(args)
        except SystemExit as exc:  # argparse error path
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_json(args):
    rc, out, err = run(args)
    assert rc == cli.EXIT_OK, err
    return json.loads(out)


# --- 1. report envelope ---


def test_report_envelope_and_provenance():
    rep = run_json(["critical", "--temp", "0.4"])
    assert rep["command"] == "critical"
    assert rep["status"] == "ok"
    assert set(rep) >= {"version", "command", "config", "results", "residuals",
                        "provenance", "status"}
    assert rep["provenance"].startswith("sha256:")
    assert len(rep["provenance"]) == len("sha256:") + 64
    # provenance tracks the configuration
    other = run_json(["critical", "--temp", "0.41"])
    assert other["provenance"] != rep["provenance"]


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"temp": 0.3, "j4": 1.0}))
    rep = run_json(["critical", "--config", str(cfg), "--temp", "0.4"])
    assert rep["config"]["temp"] == 0.4
    assert abs(rep["results"]["g_c"] - 0.17064175898980052) < 1e-9
    rep = run_json(["critical", "--config", str(cfg)])
    assert rep["config"]["temp"] == 0.3


def test_config_file_options_a_command_does_not_read(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_list": [4, 2], "samples": 5, "temp": 0.35}))
    rep = run_json(["oracle", "--config", str(cfg)])
    assert rep["config"]["n_list"] == [4, 2]
    assert [r["n"] for r in rep["results"]["by_n"]] == [2, 4]
    assert "samples" not in rep["config"]
    rep = run_json(["minima", "--config", str(cfg)])
    assert set(rep["config"]) == {"l", "j2", "j4", "j6", "j8", "temp", "g",
                                  "sector", "h0", "seed", "format"}
    assert rep["config"]["temp"] == 0.35


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("landscape", {"format": "xml"}),
        ("landscape", {"profile": "no"}),
        ("minima", {"l": 2.9}),
        ("minima", {"seed": 1.7}),
    ],
)
def test_config_file_values_are_checked_like_flags(tmp_path, command, loaded):
    # each loaded value passes its flag's type and choices: a switch takes
    # a JSON bool and an integer option a whole number, or the run is refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(loaded))
    rc, out, err = run([command, "--config", str(cfg)])
    assert rc == cli.EXIT_USAGE and not out
    assert f"config key {next(iter(loaded))!r}" in err


# --- 2. critical ---


def test_critical_values_and_residuals():
    rep = run_json(["critical", "--temp", "0.4", "--j4", "1"])
    res = rep["results"]
    assert abs(res["T_ms"] - 0.3282568647349293) < 1e-9
    assert abs(res["m2_ms"] - 0.0634132) < 5e-6
    assert abs(res["T_c"] - 0.2281647504091484) < 1e-9
    assert abs(res["m2_c"] - 0.003044423898167548) < 1e-9
    assert abs(res["g_c"] - 0.17064175898980052) < 1e-9
    assert abs(res["barrier_location"] - 0.43520476355833637) < 1e-9
    for quantity in ("T_ms", "T_c", "g_c"):
        for value in rep["residuals"][quantity].values():
            assert value < 1e-8


def test_critical_rejects_nonzero_g():
    rc, _, err = run(["critical", "--g", "0.2", "--sector", "0"])
    assert rc == cli.EXIT_USAGE
    assert "g = 0" in err


def test_critical_other_spins_partial():
    rep = run_json(["critical", "--l", "4", "--temp", "0.2"])
    assert rep["status"] == "partial"
    res = rep["results"]
    assert res["g_c"] is None
    assert res["T_ms"] > res["T_c"] > 0.0
    ms, tc = rep["residuals"]["T_ms"], rep["residuals"]["T_c"]
    assert set(ms) == {"stationarity", "fold_eigenvalue", "continuous"}
    assert set(tc) == {"stationarity", "degeneracy", "continuous"}
    assert ms["continuous"] == tc["continuous"] == 0.0
    for value in (ms["stationarity"], ms["fold_eigenvalue"], tc["stationarity"],
                  tc["degeneracy"]):
        assert value < 1e-12


def test_critical_two_state_spinodal_closed_form():
    # 2l = 1: P = 0 and Q = q, so F(q) = -(J4/4) q**4 - T S(q) and a broken
    # stationary point exists while T <= J4 q**3 / atanh(q) for some q
    peak = minimize_scalar(lambda q: -q**3 / math.atanh(q), bounds=(0.1, 0.99),
                           method="bounded", options={"xatol": 1e-12})
    t_ms = -peak.fun
    assert abs(t_ms - 0.4957863024) < 1e-9
    rep = run_json(["critical", "--l", "1", "--j4", "1"])
    assert abs(rep["results"]["T_ms"] - t_ms) < 1e-9
    assert rep["residuals"]["T_ms"]["fold_eigenvalue"] < 1e-12


def test_critical_calls_no_minimize(monkeypatch):
    calls = []

    def counting(params, **kwargs):
        calls.append(params.temperature)
        raise AssertionError("critical must not minimize")

    monkeypatch.setattr(cli, "minimize", counting)
    monkeypatch.setattr(equilibrium, "minimize", counting)
    rep = run_json(["critical", "--l", "4", "--j4", "1"])
    assert rep["results"]["T_ms"] > rep["results"]["T_c"] > 0.0
    assert calls == []


def test_critical_finds_the_spinodal_once(monkeypatch):
    # T_c is bracketed below T_ms, so one request finds T_ms once and passes
    # it on; when there is none, T_c fails with the same message
    calls, spinodal = [], equilibrium.spinodal_temperature

    def counting(params):
        calls.append(params.j4)
        return spinodal(params)

    monkeypatch.setattr(cli, "spinodal_temperature", counting)
    monkeypatch.setattr(equilibrium, "spinodal_temperature", counting)
    rep = run_json(["critical", "--l", "2", "--temp", "0.4"])
    assert rep["status"] == "ok" and calls == [1.0]
    rep = run_json(["critical", "--l", "2", "--temp", "0.4", "--j4", "-1"])
    assert rep["status"] == "partial" and calls == [1.0, -1.0]
    assert rep["residuals"]["T_c"] == rep["residuals"]["T_ms"] == {
        "error": "no spinodal point on the m1 = 0 profile"}


def test_plain_writes_non_finite_array_values_as_null():
    # all-finite float arrays are returned through tolist; arrays holding
    # NaN or inf still write those values as null, at any depth
    assert cli._plain(np.array([[0.1, -0.0], [1e-300, 2.5]])) == [[0.1, -0.0],
                                                                 [1e-300, 2.5]]
    assert cli._plain({"m": np.array([[1.5, np.nan], [np.inf, -np.inf]])}) == {
        "m": [[1.5, None], [None, None]]}
    assert cli._plain(np.array([3, 4])) == [3, 4]


def test_plain_writes_non_finite_scalars_in_rows_as_null():
    # a JSON landscape's rows hold Python floats from tolist; library values
    # may be numpy scalars: non-finite ones of either kind print null
    rows = [(0.5, float("nan"), float("inf"), -math.inf),
            (np.float64(0.25), np.float64("nan"), np.float64("inf"), np.float64("-inf")),
            (1, -0.0, 1e308, np.float64(-0.0))]
    want = [[0.5, None, None, None], [0.25, None, None, None], [1, -0.0, 1e308, -0.0]]
    assert cli._plain({"rows": rows}) == {"rows": want}
    cfg = cli._merge_config(cli._build_parser().parse_args(["landscape", "--format", "json"]))
    text = cli._json_text(cfg, {"rows": rows}, {}, "ok")
    assert json.loads(text)["results"]["rows"] == want
    assert "[\n        0.25,\n        null,\n        null,\n        null\n      ]" in text


# --- 3. minima ---


def test_minima_report():
    rep = run_json(["minima", "--temp", "0.2", "--j4", "1"])
    rows = rep["results"]["minima"]
    assert rep["residuals"]["n_found"] == 4
    assert rep["residuals"]["n_global"] == 3
    labels = [r["classification"] for r in rows]
    assert labels.count("global") == 3 and labels.count("local") == 1
    center = min(
        (r for r in rows if r["classification"] == "global"),
        key=lambda r: abs(r["m_star"][0]),
    )
    assert abs(center["m_star"][1] - 0.0011484900875939486) < 1e-9
    assert abs(center["f_value"] - (-0.2502253885159645)) < 1e-9
    assert len(center["orbit"]) == 3
    local = [r for r in rows if r["classification"] == "local"][0]
    assert abs(local["f_value"] - (-0.2 * math.log(3.0))) < 1e-9


def test_minima_seed_changes_nothing_material():
    a = run_json(["minima", "--temp", "0.2", "--seed", "1"])
    b = run_json(["minima", "--temp", "0.2", "--seed", "99"])
    fa = sorted(r["f_value"] for r in a["results"]["minima"])
    fb = sorted(r["f_value"] for r in b["results"]["minima"])
    np.testing.assert_allclose(fa, fb, atol=1e-9)


def test_no_global_minimum_is_a_failure():
    # at this low temperature the descent keeps only the paramagnet, a saddle
    case = ["--l", "2", "--temp", "2.4725542459624005e-4", "--j2", "0.4673648323465873",
            "--j4", "-0.42154287970544124", "--j8", "-0.6395052747825778"]
    rc, out, _ = run(["minima", *case])
    rep = json.loads(out)
    assert rc == cli.EXIT_NUMERICAL and rep["status"] == "failed"
    n_found = rep["residuals"]["n_found"]
    assert rep["residuals"]["n_global"] == 0 and n_found >= 1
    assert len(rep["results"]["minima"]) == n_found
    assert {r["classification"] for r in rep["results"]["minima"]} == {"saddle-rejected"}

    # the missing large-N reference is one failed part of an oracle report
    rep = run_json(["oracle", *case, "--n-list", "3,5"])
    assert rep["status"] == "partial"
    assert rep["results"]["reference"] is None
    assert all("gap_to_limit" not in r for r in rep["results"]["by_n"])
    error = rep["residuals"]["reference_error"]
    assert "no global minimum" in error and f"(n_found = {n_found})" in error
    # ... and the report fails only when every N failed as well
    rc, out, _ = run(["oracle", *case, "--n-list", "3000000"])
    rep = json.loads(out)
    assert rc == cli.EXIT_NUMERICAL and rep["status"] == "failed"
    assert rep["results"]["reference"] is None


# --- 4. symcheck determinism (byte level) ---


def test_symcheck_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    rc1, _, _ = run(["symcheck", "--seed", "42", "--out", str(p1)])
    rc2, _, _ = run(["symcheck", "--seed", "42", "--out", str(p2)])
    assert rc1 == rc2 == cli.EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()
    rep = json.loads(p1.read_text())
    dev = rep["results"]["deviations"]
    tol = rep["results"]["tolerances"]
    for key in tol:
        assert dev[key] < tol[key]


def test_symcheck_stdout_deterministic():
    _, out1, _ = run(["symcheck", "--seed", "42", "--samples", "200"])
    _, out2, _ = run(["symcheck", "--seed", "42", "--samples", "200"])
    assert out1 == out2
    _, out3, _ = run(["symcheck", "--seed", "43", "--samples", "200"])
    assert out3 != out1


def test_symcheck_odd_spin():
    rep = run_json(["symcheck", "--l", "7", "--samples", "100"])
    for key, value in rep["results"]["deviations"].items():
        assert value < rep["results"]["tolerances"][key]


# --- 5. landscape ---


def parse_landscape(text):
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    return header, body


def test_landscape_grid(tmp_path):
    out_path = tmp_path / "grid.csv"
    rc, _, _ = run(["landscape", "--resolution", "61", "--temp", "0.2",
                    "--j4", "1", "--out", str(out_path)])
    assert rc == cli.EXIT_OK
    header, body = parse_landscape(out_path.read_text())
    assert header[0].startswith("# curieweiss landscape")
    assert any(ln.startswith("# provenance: sha256:") for ln in header)
    assert body[0] == "m1,m2,feasible,F"
    rows = body[1:]
    assert len(rows) == 61 * 61
    feas_f = [
        float(parts[3])
        for parts in (r.split(",") for r in rows)
        if parts[2] == "1"
    ]
    best = min(feas_f)
    # the corner (0,0) sits on the grid at F = -1/4; the true minimum is
    # only 2.4e-4 deeper and off-grid
    assert best <= -0.25 + 1e-12
    assert best >= -0.2502253885159645 - 1e-9
    # infeasible rows carry nan
    bad = [r for r in rows if r.split(",")[2] == "0"]
    assert bad and all(r.rsplit(",", 1)[1] == "nan" for r in bad)


def test_landscape_deterministic():
    _, a, _ = run(["landscape", "--resolution", "31"])
    _, b, _ = run(["landscape", "--resolution", "31"])
    assert a == b


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--l", "4", "--temp", "0.2", "--g", "0.1", "--sector", "1"],
         "0ec267a4cd896432585adc984962c75b3a04182c6371a1716214ef1962a53a1c"),
        (["--l", "2", "--temp", "0.2", "--j2", "0.3", "--h0", "0.1"],
         "bcb0aec32d961dbcb9c7e4a324022b4c3dbdba403621b3492334651739b05b65"),
    ],
)
def test_landscape_bytes_pinned(args, digest):
    # the whole CSV text, banner to last cell, of two small grids that
    # exercise the sector coupling and the h0 field
    rc, out, _ = run(["landscape", "--resolution", "41", *args])
    assert rc == cli.EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (["critical", "--temp", "0.4"],
         "26cb874058e44d08c02426ed26a08bf6f808b7b38308fd13f525fc6f7154ffbd"),
        (["symcheck", "--l", "3", "--samples", "200", "--seed", "1"],
         "ee7439434a87375e82c865d92e897ae605f53c6e730f9cd7ccce4a14b82c97ac"),
        (["oracle", "--l", "2", "--n-list", "5,20"],
         "e432bd5b00c4354e34f380e5bd34ba9b93e10083709ba0a6552ac53b7b400d01"),
        (["landscape", "--profile", "--resolution", "41"],
         "380026feb024c14f8eb50c8b955b7ca7f61568371b76f585474798d51bf9b170"),
        (["landscape", "--resolution", "11", "--format", "json"],
         "aee871f0dd529459bdbdd72bffff8bedc2a5b5c7954fd85ef22e87b20a008cd7"),
        # every J term (extrapolation flagged), then no barrier at any coupling
        (["critical", "--temp", "0.35", "--j2", "0.1", "--j6", "0.2"],
         "07991d4ccaf4a77d5c91d4624e676114e01f3ce5a9f771d9165c1b74eb1fb46f"),
        (["critical", "--temp", "1.2"],
         "9c0a1784ca407f13f6de41ef9726728f914be355841438d5b71ee837e8e74feb"),
        # CSV grids of 90 601 and 73 441 rows, past one formatting block
        (["landscape", "--l", "6", "--resolution", "301", "--temp", "0.3",
          "--axis1", "1", "--axis2", "3"],
         "8591cc71cef41fc37bd8a4fda0f47f2971272d6a5a863d4a7438491a9b290200"),
        (["landscape", "--l", "4", "--resolution", "271", "--temp", "0.3",
          "--g", "0.1", "--sector", "-1"],
         "c952c95fce01ecf77cb9ce2299e43e69944834f0abef673842f31d883d0ef04b"),
        # the two largest grids of the benchmark's grid workload
        (["landscape", "--l", "2", "--resolution", "801", "--temp", "0.2",
          "--j4", "1"],
         "6c1870551419a71546f3b1d6cb37ba4b94b21424076c10af080bcf3121462689"),
        (["landscape", "--l", "4", "--resolution", "601", "--temp", "0.2",
          "--j4", "1"],
         "8b51436ade56d5a1a0ecab10c2fc8ab99a89c13182fb89a80ecbdd9872c4d58d"),
        # nine-level rows, past the eight terms where numpy's row sum stops
        # adding left to right; then a sector coupling, so a nonzero b
        (["oracle", "--l", "8", "--temp", "0.3", "--n-list", "6,12"],
         "dc8dc4c09bcb87b6cde6e76c2551188d5bfc5bc311ccdcc5508841be341c52e2"),
        (["oracle", "--l", "4", "--temp", "0.3", "--g", "0.1", "--sector", "1",
          "--n-list", "5,20"],
         "722c87e8b2c63f2b79a1548dd19e60e22713d4936ca03373af296c40e36d6487"),
    ],
)
def test_report_bytes_pinned(args, digest):
    # whole reports of every command but minima, whose orbits carry
    # roundoff-level digits
    rc, out, _ = run(args)
    assert rc == cli.EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _landscape_csv_body(header, axes, ok, fields):
    cfg = cli._merge_config(cli._build_parser().parse_args(["landscape"]))
    text = "".join(cli._landscape_pieces(cfg, header, ["note"], axes, ok, fields))
    head, body = text.split("\n" + header + "\n")
    assert head.startswith("# curieweiss landscape") and head.endswith("# note")
    return body


def _per_row_csv(columns):
    """The CSV body with every row formatted on its own."""
    line = ",".join("%d" if c.dtype.kind in "bi" else "%.12g" for c in columns)
    return "".join(line % row + "\n" for row in zip(*(c.tolist() for c in columns)))


def _axis(rng, n):
    values = rng.standard_normal(n)
    values[:2] = 0.0, -0.0
    return values


def _field(rng, ok):
    """F drawn from a pool (so values repeat) and from a normal, NaN wherever
    the point is infeasible, as free_energy_batch returns it.  The pool holds
    floats equal as numbers but not in bits (0.0 and -0.0), which must keep
    their own text, x and its neighbour, which differ beyond 12 digits, and
    NaN, which a feasible point prints after its flag 1."""
    x = 0.1 + 0.2
    pool = np.array([0.0, -0.0, np.nan, 1e-300, -1e-300, x, np.nextafter(x, 1.0),
                     1.0 / 3.0, -2.5, np.inf, -np.inf, 1e16 + 2.0])
    f = np.where(rng.random(ok.size) < 0.7, pool[rng.integers(pool.size, size=ok.size)],
                 rng.standard_normal(ok.size))
    f[~ok] = np.nan
    return f


def test_table_rows_match_per_row_formatting():
    # a grid of 37 rows of the outer axis (one joined block each) by 450
    rng = np.random.default_rng(7)
    rows, cols = _axis(rng, 37), _axis(rng, 450)
    ok = rng.random(rows.size * cols.size) < 0.8
    f = _field(rng, ok)
    body = _landscape_csv_body("a,b,feasible,F", (rows, cols), ok, (f,))
    assert body == _per_row_csv((np.repeat(rows, cols.size), np.tile(cols, rows.size),
                                 ok, f))
    cells = set(body.replace("\n", ",").split(","))
    assert {"0", "-0", "nan", "1e-300", "inf", "-inf"} <= cells
    assert ",0,nan\n" in body and ",1,nan\n" in body


def test_landscape_pieces_are_header_then_one_per_outer_row():
    # the text is written piece by piece, never held whole
    cfg = cli._merge_config(cli._build_parser().parse_args(["landscape"]))
    rng = np.random.default_rng(9)
    rows, cols = _axis(rng, 5), _axis(rng, 7)
    ok = rng.random(rows.size * cols.size) < 0.8
    f = _field(rng, ok)
    pieces = list(cli._landscape_pieces(cfg, "a,b,feasible,F", ["note"], (rows, cols),
                                        ok, (f,)))
    assert len(pieces) == 1 + rows.size
    assert pieces[0].endswith("# note\na,b,feasible,F\n")
    assert all(p.count("\n") == cols.size and p.endswith("\n") for p in pieces[1:])
    assert "".join(pieces) == "".join(cli._landscape_pieces(
        cfg, "a,b,feasible,F", ["note"], (rows, cols), ok, (f,)))


def test_profile_csv_matches_per_row_formatting():
    # one axis and two fields: the profile's four columns
    rng = np.random.default_rng(8)
    m2 = _axis(rng, 3000)
    ok = rng.random(m2.size) < 0.8
    f_unc, f_cpl = _field(rng, ok), _field(rng, ok)
    body = _landscape_csv_body("m2,feasible,F_uncoupled,F_coupled", (m2,), ok,
                               (f_unc, f_cpl))
    assert body == _per_row_csv((m2, ok, f_unc, f_cpl))
    cells = set(body.replace("\n", ",").split(","))
    assert {"0", "-0", "nan", "1e-300", "inf", "-inf"} <= cells


def test_landscape_header_names_axes():
    args = ["landscape", "--l", "4", "--resolution", "5", "--axis1", "2",
            "--axis2", "4"]
    rc, out, _ = run(args)
    assert rc == cli.EXIT_OK
    header, body = parse_landscape(out)
    assert "# axes: m2 (rows), m4 (columns); other moments at paramagnet" in header
    assert body[0] == "m2,m4,feasible,F"
    rep = run_json(args + ["--format", "json"])
    assert rep["results"]["columns"] == ["m2", "m4", "feasible", "F"]


def test_profile_mode():
    rc, out, _ = run(["landscape", "--profile", "--resolution", "41",
                      "--g", "0.2", "--sector", "0", "--temp", "0.2"])
    assert rc == cli.EXIT_OK
    header, body = parse_landscape(out)
    assert "# profile: m1 = 0 line" in header
    assert body[0] == "m2,feasible,F_uncoupled,F_coupled"
    first = body[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[2]) - (-0.25)) < 1e-9
    # sector-0 coupling lowers the m2 = 0 end by the full g
    assert abs(float(first[3]) - (-0.45)) < 1e-9


def test_profile_restricted_to_three_states():
    rc, _, err = run(["landscape", "--profile", "--l", "4"])
    assert rc == cli.EXIT_USAGE
    assert "m1 = 0" in err


# --- 6. oracle ---


def test_oracle_report():
    rep = run_json(["oracle", "--n-list", "2,4,6", "--temp", "0.35", "--j4", "1"])
    rows = rep["results"]["by_n"]
    assert [r["n"] for r in rows] == [2, 4, 6]
    for r in rows:
        assert r["gap_to_limit"] < 0.0  # finite sums lie below the minimizer
        assert r["raw_check_rel"] < 1e-12
    assert rep["residuals"]["max_raw_check_rel"] < 1e-12
    assert rep["residuals"]["gap_rate_constant"] < 1.0
    gaps = [abs(r["gap_to_limit"]) for r in rows]
    assert gaps[0] > gaps[2]


def test_oracle_reference_fixed_among_degenerate_globals(monkeypatch):
    # the four global minima form one orbit at one F; nudging their F by
    # +-1e-15 (as a refactor's last digits may) must not move the reference
    real = cli.minimize
    reported = []
    for sign in (1.0, -1.0):
        def nudged(params, **kwargs):
            out = real(params, **kwargs)
            assert sum(m.classification == "global" for m in out) == 4
            return [
                dataclasses.replace(m, f_value=m.f_value + sign * (-1) ** i * 1e-15)
                if m.classification == "global" else m
                for i, m in enumerate(out)
            ]

        monkeypatch.setattr(cli, "minimize", nudged)
        rep = run_json(["oracle", "--l", "3", "--temp", "0.15", "--j2", "0.2",
                        "--j4", "1", "--n-list", "2"])
        reported.append(rep["results"]["reference"]["moments"])
    assert reported[0] == reported[1]


def test_oracle_partial_and_failed():
    rep = run_json(["oracle", "--n-list", "4,2000000"])
    assert rep["status"] == "partial"
    ok_rows = [r for r in rep["results"]["by_n"] if "error" not in r]
    bad_rows = [r for r in rep["results"]["by_n"] if "error" in r]
    assert len(ok_rows) == 1 and len(bad_rows) == 1

    rc, out, _ = run(["oracle", "--l", "5", "--n-list", "100,200"])
    assert rc == cli.EXIT_NUMERICAL
    rep = json.loads(out)
    assert rep["status"] == "failed"
    assert all("compositions" in r["error"] for r in rep["results"]["by_n"])


# --- 7. argument validation ---


@pytest.mark.parametrize(
    "args",
    [
        ["minima", "--l", "0"],
        ["minima", "--l", "21"],
        ["critical", "--temp", "-0.1"],
        ["minima", "--g", "0.2"],  # coupling without a sector
        ["oracle", "--n-list", "0"],
        ["landscape", "--seed", "1"],  # options a command does not read
        ["minima", "--resolution", "5"],
        ["oracle", "--samples", "9"],
        ["critical", "--seed", "1"],
        ["critical", "--h0", "0.1"],  # the thresholds are the bare magnet's
        ["oracle", "--n-list", "3", "--g", "nan", "--sector", "0"],  # non-finite
        ["landscape", "--j2", "inf"],
        ["minima", "--temp", "inf"],
        ["minima", "--h0", "-inf"],
    ],
)
def test_usage_errors(args):
    rc, _, err = run(args)
    assert rc == cli.EXIT_USAGE
    assert err.strip()


def test_main_sequence_behaves_as_fresh_processes():
    # main reuses one parser per process; each call must still behave as the
    # same call on a freshly built parser
    sequence = [["minima", "--l", "3"], ["minima", "--resolution", "5"],
                ["oracle", "--n-list", "3,5"], ["--help"]]
    fresh = []
    for args in sequence:
        cli._build_parser.cache_clear()
        fresh.append(run(args))
    cli._build_parser.cache_clear()
    assert [run(args) for args in sequence] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [rc for rc, _, _ in fresh] == [cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_OK, 0]
    assert fresh[1][2].startswith("usage:") and fresh[3][1].startswith("usage:")


def test_numerical_failure_exit_code(monkeypatch):
    # InfeasibleMoments is also a ValueError, yet a numerical failure
    def infeasible(params, **kwargs):
        raise InfeasibleMoments("infeasible moments")

    monkeypatch.setattr(cli, "minimize", infeasible)
    rc, _, err = run(["minima"])
    assert rc == cli.EXIT_NUMERICAL
    assert "numerical failure" in err
    rc, _, _ = run(["minima", "--l", "0"])
    assert rc == cli.EXIT_USAGE


def test_readme_option_table_matches_cli():
    # the documented options of each command are the ones it accepts
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    common = text[text.index("Every command takes"):text.index("Each command also")]

    def flags(fragment):
        return set(re.findall(r"`(--[a-z0-9-]+)`", fragment))

    table = {cmd: flags(cell)
             for cmd, cell in re.findall(r"^\| `(\w+)` +\|(.*)\|$", text, re.M)}
    assert set(table) == set(cli._COMMANDS)
    for cmd, further in table.items():
        accepted = {"--" + key.replace("_", "-")
                    for key, (_, _, readers) in cli._OPTIONS.items()
                    if readers is None or cmd in readers}
        assert flags(common) | further == accepted, cmd
        assert not flags(common) & further, cmd


def test_readme_limits_match_code():
    # the caps that README's limits quote are the ones the code enforces
    text = " ".join((pathlib.Path(__file__).parent.parent / "README.md").read_text().split())
    quoted = re.findall(r"2l up to (\d+)|up to (\d+) for l = ", text)
    assert len(quoted) == 2 and {int(a or b) for a, b in quoted} == {MAX_TWICE_L}
    assert float(re.search(r"above (\S+) compositions", text)[1]) == MAX_COMPOSITIONS
    assert float(re.search(r"\(2l \+ 1\)\^N ≤ (\S+)", text)[1]) == MAX_RAW_CONFIGURATIONS
    # and so are the minimizer's tolerance, start count and step cap
    assert float(re.search(r"`GRAD_TOL` = (\S+)", text)[1].rstrip(".")) == equilibrium.GRAD_TOL
    random_starts = int(re.search(r"`RANDOM_STARTS` = (\d+)", text)[1])
    assert random_starts == equilibrium.RANDOM_STARTS
    cap = re.search(r"`ITERATION_CAP` = (\d[\d ]*\d)", text)[1]
    assert int(cap.replace(" ", "")) == equilibrium.ITERATION_CAP
    # lam = 0, one start toward each of the 2l + 1 vertices, the random ones
    assert int(re.search(r"2l \+ (\d+) starts", text)[1]) == 2 + random_starts


def test_version_flag():
    rc, out, err = run(["--version"])
    assert rc == 0
    text = (out + err).strip()
    assert text and all(part.isdigit() for part in text.split("."))
