"""Command-line interface: reports, determinism, exit codes, precedence."""

import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest

from curieweiss import cli


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
    assert rep["residuals"]["T_ms"]["scan_based"] == 1.0


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
    ],
)
def test_usage_errors(args):
    rc, _, err = run(args)
    assert rc == cli.EXIT_USAGE
    assert err.strip()


def test_version_flag():
    rc, out, err = run(["--version"])
    assert rc == 0
    text = (out + err).strip()
    assert text and all(part.isdigit() for part in text.split("."))
