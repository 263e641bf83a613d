"""Benchmark command: one workload, one seed, one run.

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It times the set-up of fresh worker
processes, lets one worker run the workload's closed loop (worker.py),
checks every output against the independent reference (checks.py), and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it reports the machine-speed calibration of the run.
Exits non-zero without a result when the package cannot be run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import mixes  # noqa: E402

RUNS = BENCH / "runs"
DEADLINE_S = 170.0
# Set-up is timed in this many fresh processes per run (the last one then
# runs the loop); the median is reported.
SETUP_SAMPLES = 5
# Whole rounds every run makes at least: about what 30 s hold, so that the
# tail percentile below is fixed per workload and has ten samples beyond it.
MIN_ROUNDS = {"solve": 2, "grid": 3, "finite-n": 3}
TAIL_BEYOND = 10
# One OpenBLAS thread: the client is one thread, and with the default two
# threads on a 2-core machine a symcheck request's time varied fourfold
# from call to call (README, "Machine").
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def tail_percentile(workload: str) -> int:
    """The highest whole percentile with TAIL_BEYOND samples beyond it in
    the smallest run (MIN_ROUNDS rounds); fixed per workload."""
    n = MIN_ROUNDS[workload] * len(mixes.make_mix(workload, 0))
    return math.floor(100 * (1 - TAIL_BEYOND / n))


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1]


class RunFailed(Exception):
    pass


def _start(cfg: dict, deadline: float):
    """Start a worker; return (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise RunFailed(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker overran the deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path):
    deadline = time.perf_counter() + DEADLINE_S
    cfg = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "min_rounds": MIN_ROUNDS[workload], "run_dir": str(run_dir), "setup_only": True}
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = _start(cfg, deadline)
        _finish(proc, deadline)
        setups.append(ready)
    proc, ready = _start(dict(cfg, setup_only=False), deadline)
    setups.append(ready)
    result = json.loads(_finish(proc, deadline).splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    return result


def verify(mix: list[dict], result: dict, run_dir: Path):
    """(failed request count, unexpected failure messages)."""
    verdict = {}
    for slot, req in enumerate(mix):
        entry = result["first"][str(slot)]
        if entry["error"] is not None:
            verdict[slot] = [("wrong", entry["error"].strip().splitlines()[-1])]
            continue
        text = None
        path = run_dir / f"slot{slot}.out"
        if req["op"] == "cli" and path.exists():
            text = path.read_text(encoding="utf-8")
        verdict[slot] = checks.check(req, entry, text)
    failed = 0
    unexpected = []
    for slot, _round, _latency, _code, same in result["records"]:
        fails = list(verdict[slot])
        if not same:
            fails.append(("wrong", "output differs from the first round's"))
        if fails:
            failed += 1
            fault = mix[slot]["fault"]
            for kind, message in fails:
                if kind != fault:
                    unexpected.append(f"slot {slot} {mix[slot]['argv'] or mix[slot]['op']}: "
                                      f"{message}")
    return failed, unexpected


def end_to_end(workload: str, result: dict) -> dict:
    latencies = [r[2] for r in result["records"]]
    values = {
        "setup_s": (result["setup_s"], "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (percentile(latencies, tail_percentile(workload)), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "curieweiss" / "__init__.py").is_file():
        print(f"run.py: no package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    run_dir = RUNS / f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        mix = mixes.make_mix(args.workload, args.seed)
        failed, unexpected = verify(mix, result, run_dir)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for message in unexpected[:20]:
        print(f"run.py: check failed: {message}", file=sys.stderr)
    e2e = end_to_end(args.workload, result)
    attempted = len(result["records"])
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": result["rounds"], "loop_s": round(result["loop_s"], 3),
        "calibration_ms": round(1e3 * result["calibration_s"], 3),
        "blas_threads": result["blas_threads"],
        "tail_percentile": tail_percentile(args.workload),
        "e2e": {k: v["value"] for k, v in e2e.items()},
    }
    print("run: " + json.dumps(summary), flush=True)
    with open(RUNS / "log.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(summary, attempted=attempted, failed=failed)) + "\n")
    metrics = result["layers"] if args.trace else e2e
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
