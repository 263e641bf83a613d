"""Tests of the benchmark itself: the reference against closed forms, and
each output check against a wrong value.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import mixes  # noqa: E402
import reference as ref  # noqa: E402

# --- the reference against closed forms ---


@pytest.mark.parametrize("twice_l", [1, 2, 3, 4])
@pytest.mark.parametrize("n_spins", [1, 3, 7])
def test_free_magnet_free_energy_is_entropy_of_the_levels(twice_l, n_spins):
    model = ref.Model(twice_l=twice_l, temp=0.37)
    f_n, mean_m = ref.composition_sum(model, n_spins)
    assert f_n == pytest.approx(-0.37 * math.log(twice_l + 1), rel=1e-13)
    np.testing.assert_allclose(mean_m, ref.paramagnet(twice_l), atol=1e-13)


@pytest.mark.parametrize("n_spins", [1, 2, 5, 10])
def test_two_state_composition_sum_equals_brute_force(n_spins):
    model = ref.Model(twice_l=1, temp=0.3, j2=0.4, j4=1.1, g=0.2,
                      sector=ref.sigmas(1)[1])
    f_n, _ = ref.composition_sum(model, n_spins)
    assert f_n == pytest.approx(ref.configuration_sum(model, n_spins), rel=1e-12)


def test_three_state_composition_sum_equals_brute_force_with_h0():
    model = ref.Model(twice_l=2, temp=0.25, j4=1.0, h0=0.15)
    f_n, _ = ref.composition_sum(model, 6)
    assert f_n == pytest.approx(ref.configuration_sum(model, 6), rel=1e-12)


def test_composition_count_and_multinomials():
    parts = list(ref.compositions(9, 4))
    assert len(parts) == ref.composition_count(9, 3) == math.comb(12, 3)
    assert all(sum(p) == 9 for p in parts)
    total = sum(math.exp(ref.log_multinomial(p)) for p in parts)
    assert total == pytest.approx(4**9, rel=1e-12)


@pytest.mark.parametrize("twice_l", [1, 2, 4, 6])
def test_chart_inverts_exactly(twice_l):
    rng = np.random.default_rng(twice_l)
    x = rng.dirichlet(np.ones(twice_l + 1), size=50)
    np.testing.assert_allclose(ref.weights(twice_l, ref.moments(twice_l, x)), x,
                               atol=1e-12)
    np.testing.assert_allclose(ref.weights(twice_l, ref.paramagnet(twice_l)),
                               1.0 / (twice_l + 1), atol=1e-13)


def test_field_is_the_energy_gradient():
    model = ref.Model(twice_l=4, temp=0.2, j2=0.3, j4=1.0, j6=0.2, g=0.1,
                      sector=ref.sigmas(4)[3])
    x = np.array([0.1, 0.3, 0.2, 0.15, 0.25])
    step = 1e-6
    fd = [(ref.energy_x(model, x + step * e) - ref.energy_x(model, x - step * e))
          / (2 * step) for e in np.eye(5)]
    np.testing.assert_allclose(ref.field(model, x), fd, atol=1e-8)


def test_profile_slope_and_curvature_are_derivatives():
    model = ref.Model(twice_l=2, temp=0.3, j2=0.2, j4=1.0, g=0.1,
                      sector=ref.sigmas(2)[1], h0=0.05)
    m2, step = 0.31, 1e-5
    f = [ref.profile_value(model, m2 + k * step) for k in (-1, 0, 1)]
    assert ref.profile_slope(model, m2) == pytest.approx((f[2] - f[0]) / (2 * step),
                                                         abs=1e-8)
    bare = ref.Model(twice_l=2, temp=0.3, j2=0.2, j4=1.0)
    s = [ref.profile_slope(bare, m2 + k * step) for k in (-1, 1)]
    assert ref.profile_curvature(bare, m2) == pytest.approx((s[1] - s[0]) / (2 * step),
                                                            rel=1e-7)


def test_selfconsistent_moments_fixed_at_the_paramagnet():
    model = ref.Model(twice_l=3, temp=0.5, j4=1.0)
    pm = ref.paramagnet(3)
    np.testing.assert_allclose(ref.selfconsistent_moments(model, pm), pm, atol=1e-14)


# --- each check rejects a wrong value ---


def _run_cli(tmp_path, argv):
    from curieweiss import cli
    out = tmp_path / "out.txt"
    code = cli.main(argv + ["--out", str(out)])
    return {"code": code, "summary": None}, out.read_text()


def _kinds(fails):
    return {kind for kind, _ in fails}


def test_minima_check_rejects_a_perturbed_f(tmp_path):
    req = mixes._cli("minima", "--l", 2, "--temp", "0.2", "--j4", "1")
    record, text = _run_cli(tmp_path, req["argv"])
    assert checks.check(req, record, text) == []
    rep = json.loads(text)
    rep["results"]["minima"][0]["f_value"] += 1e-7
    assert _kinds(checks.check(req, record, json.dumps(rep))) == {"wrong"}


def test_minima_check_rejects_a_point_that_is_not_stationary(tmp_path):
    req = mixes._cli("minima", "--l", 3, "--temp", "0.3", "--j4", "1")
    record, text = _run_cli(tmp_path, req["argv"])
    rep = json.loads(text)
    m = np.array(rep["results"]["minima"][0]["m_star"])
    moved = m + 1e-4
    model = checks.model_of(checks.options(req["argv"]))
    rep["results"]["minima"][0]["m_star"] = moved.tolist()
    rep["results"]["minima"][0]["orbit"][0] = moved.tolist()
    rep["results"]["minima"][0]["f_value"] = float(ref.free_energy_m(model, moved))
    messages = [m for _, m in checks.check(req, record, json.dumps(rep))]
    assert any("softmax" in m for m in messages)


def test_landscape_check_rejects_a_swapped_header(tmp_path):
    req = mixes._cli("landscape", "--l", 2, "--resolution", 31, "--temp", "0.2")
    record, text = _run_cli(tmp_path, req["argv"])
    assert checks.check(req, record, text) == []
    swapped = text.replace("\nm1,m2,feasible,F\n", "\nm2,m1,feasible,F\n")
    assert _kinds(checks.check(req, record, swapped)) == {mixes.HEADER_FAULT}


def test_landscape_check_rejects_a_perturbed_cell(tmp_path):
    req = mixes._cli("landscape", "--l", 4, "--resolution", 21, "--temp", "0.3")
    record, text = _run_cli(tmp_path, req["argv"])
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.endswith(",1," + ln.split(",")[-1])
             and not ln.startswith("#"))
    cells = lines[k].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[k] = ",".join(cells)
    assert _kinds(checks.check(req, record, "\n".join(lines) + "\n")) == {"wrong"}


def test_off_axis_landscape_fails_only_the_header(tmp_path):
    req = mixes._cli("landscape", "--l", 4, "--resolution", 21, "--temp", "0.2",
                     "--axis1", 2, "--axis2", 4)
    record, text = _run_cli(tmp_path, req["argv"])
    # Values are right; the header names m1,m2 for the (m2, m4) plane.
    assert _kinds(checks.check(req, record, text)) == {mixes.HEADER_FAULT}


def test_oracle_check_rejects_a_wrong_log_z(tmp_path):
    req = mixes._cli("oracle", "--l", 2, "--temp", "0.3", "--n-list", "5,40")
    record, text = _run_cli(tmp_path, req["argv"])
    assert checks.check(req, record, text) == []
    rep = json.loads(text)
    # ln Z off by 1e-6 at N = 40: F_N moves by T * 1e-6 / N.
    entry = rep["results"]["by_n"][1]
    entry["free_energy"] -= 0.3 * 1e-6 / 40
    entry["gap_to_limit"] -= 0.3 * 1e-6 / 40
    assert _kinds(checks.check(req, record, json.dumps(rep))) == {"wrong"}


def test_ensemble_check_rejects_a_wrong_total_degeneracy():
    from curieweiss import ModelParams, SpinQuantum, enumerate_ensemble
    import worker
    req = mixes._lib("enumerate_ensemble", twice_l=4, n_spins=9, temp=0.3, j4=1.0)
    l = SpinQuantum(4)
    ens = enumerate_ensemble(l, 9, ModelParams(l, temperature=0.3, j4=1.0))
    record = {"code": 0, "summary": worker._ensemble_summary(ens, 9)}
    assert checks.check(req, record, None) == []
    record["summary"]["log_total_degeneracy"] += 1e-9
    assert _kinds(checks.check(req, record, None)) == {"wrong"}


def test_scan_threshold_check_rejects_a_shifted_spinodal():
    # The two-state scan check, on thresholds located by brute force.
    opts = checks.options(["critical", "--l", "1", "--j4", "1"])

    def threshold(pick):
        lo, hi = 0.2, 0.8
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if checks._two_state_scan(checks.model_of(opts, temp=mid))[pick]:
                lo = mid
            else:
                hi = mid
        return lo

    rep = {"status": "partial", "results": {"T_ms": threshold(0), "T_c": threshold(1),
                                            "g_c": None}}
    fails = checks._Failures()
    checks._check_critical_scan(opts, rep, fails)
    assert fails == []
    rep["results"]["T_ms"] *= 0.98
    checks._check_critical_scan(opts, rep, fails)
    assert _kinds(fails) == {"wrong"}


# --- mixes and trace ---


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_mix_make_up_does_not_depend_on_the_seed(workload):
    def shape(mix):
        return [(r["op"], (r["argv"] or [""])[0], r["fault"]) for r in mix]
    assert mixes.make_mix(workload, 3) == mixes.make_mix(workload, 3)
    assert shape(mixes.make_mix(workload, 3)) == shape(mixes.make_mix(workload, 11))
    faults = [r for r in mixes.make_mix(workload, 3) if r["fault"]]
    assert faults == [r for r in mixes.make_mix(workload, 11) if r["fault"]]


def test_trace_sees_calls_between_layers_and_repeats_counts(tmp_path):
    import curieweiss.cli
    tracer = layertrace.Tracer()
    restore = layertrace.install(tracer)
    try:
        argv = ["minima", "--l", "2", "--temp", "0.2", "--out", str(tmp_path / "o")]
        for rnd in range(2):
            tracer.request = (rnd, 0)
            curieweiss.cli.main(argv)
    finally:
        restore()
    assert curieweiss.cli.minimize.__module__ == "curieweiss.equilibrium"
    assert not hasattr(curieweiss.cli.minimize, "__wrapped__")
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main"
    assert "equilibrium.minimize" in names and "thermo.free_energy" in names
    per_round = [[s[0] for s in tracer.spans if s[4] == (rnd, 0)] for rnd in range(2)]
    assert per_round[0] == per_round[1]
    metrics = layertrace.layer_metrics(tracer.spans, 2, 0, set())
    assert set(metrics) == set(layertrace.METRICS)
    assert metrics["equilibrium.minimize_calls"]["value"] == 1.0
