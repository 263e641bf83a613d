"""Benchmark worker: one fresh process, one client thread, a closed loop.

Started by run.py as ``python3 bench/worker.py '<json config>'``.  It
imports ``curieweiss`` from the checkout's ``src/``, warms the cached
tables with one small request per spin of the mix, prints ``ready`` and,
unless it is a set-up probe, runs whole rounds of the mix until the run
time is spent.  Each request is timed alone; everything that checks or
summarizes an output happens after its timer stops.  The first round
leaves each CLI output in its own file for run.py to check; later rounds
write to one scratch file and record its digest, which must equal the
first round's.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import mixes  # noqa: E402

# Rows of an enumerated table compared with the reference, per table.
SAMPLED_ROWS = 64


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import curieweiss
    import curieweiss.cli  # noqa: F401
    if Path(curieweiss.__file__).resolve().parent != ROOT / "src" / "curieweiss":
        raise ImportError(f"curieweiss imported from {curieweiss.__file__}, "
                          "not from this checkout")
    return curieweiss


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop plus fixed numpy arithmetic.

    It does not touch curieweiss, so it tracks the machine's own speed.
    """
    import numpy as np
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 200_000)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - start


def blas_threads():
    """Thread count OpenBLAS runs with, read from the loaded library."""
    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _digest(path: Path):
    if not path.exists():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _ensemble_summary(ens, n_spins: int) -> dict:
    """What the checks need from a full table, taken after the timer stops."""
    import numpy as np
    counts = ens.counts
    size = ens.size
    picks = sorted({0, size - 1, *np.linspace(0, size - 1, SAMPLED_ROWS).astype(int).tolist()})
    top = float(ens.log_degeneracy.max())
    total = top + float(np.log(np.exp(ens.log_degeneracy - top).sum()))
    # Colexicographic order, strictly increasing, shows the rows are distinct.
    key = counts[:, ::-1]
    diff = key[1:] - key[:-1]
    first = np.argmax(diff != 0, axis=1)
    lead = diff[np.arange(len(diff)), first]
    return {
        "rows": int(size),
        "log_total_degeneracy": total,
        "rows_sum_to_n": bool((counts.sum(axis=1) == n_spins).all() and counts.min() >= 0),
        "rows_distinct": bool((lead > 0).all()),
        "sampled": [
            [counts[i].tolist(), float(ens.log_degeneracy[i]), ens.moments[i].tolist(),
             float(ens.energy[i]), float(ens.log_weight[i])]
            for i in picks
        ],
    }


def call(cw, req: dict, out: Path):
    """Execute one request against the package; returns (exit code, result)."""
    if req["op"] == "cli":
        try:
            return cw.cli.main(req["argv"] + ["--out", str(out)]), None
        except SystemExit as exc:   # argparse rejects the arguments
            return exc.code, None
    kw = req["kwargs"]
    if req["op"] == "enumerate_ensemble":
        l = cw.SpinQuantum(kw["twice_l"])
        params = cw.ModelParams(l, temperature=kw["temp"], j4=kw["j4"])
        return 0, cw.enumerate_ensemble(l, kw["n_spins"], params)
    if req["op"] == "paramagnet_gaussian_check":
        return 0, cw.paramagnet_gaussian_check(kw["n_spins"])
    raise ValueError(f"unknown op {req['op']}")


def warm_up(cw, mix: list[dict], run_dir: Path) -> None:
    """One small request per spin: fills the cached chart and trig tables."""
    out = run_dir / "warmup.out"
    for twice_l in mixes.spins(mix):
        cw.cli.main(["symcheck", "--l", str(twice_l), "--samples", "16", "--out", str(out)])
    out.unlink(missing_ok=True)


def _summary(req: dict, result):
    if req["op"] == "enumerate_ensemble":
        return _ensemble_summary(result, req["kwargs"]["n_spins"])
    if req["op"] == "paramagnet_gaussian_check":
        return {"value": float(result)}
    return None


def run(cfg: dict) -> dict:
    package = _import_package()
    run_dir = Path(cfg["run_dir"])
    mix = mixes.make_mix(cfg["workload"], cfg["seed"])
    warm_up(package, mix, run_dir)
    print("ready", flush=True)
    if cfg["setup_only"]:
        return {}

    tracer = None
    if cfg["trace"]:
        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    calib = [calibrate() for _ in range(3)]
    scratch = run_dir / "scratch.out"
    records = []        # [slot, round, latency_s, code, same_as_first]
    first = {}          # slot -> {"code", "digest", "summary", "error"}
    output_bytes = 0
    rounds = 0
    start = time.perf_counter()

    def another_round() -> bool:
        # Whole rounds only; stop when half a round would overrun the time.
        if rounds < cfg["min_rounds"]:
            return True
        elapsed = time.perf_counter() - start
        return elapsed + 0.5 * elapsed / rounds < cfg["seconds"]

    while another_round():
        for slot, req in enumerate(mix):
            out = run_dir / f"slot{slot}.out" if rounds == 0 else scratch
            out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.request = (rounds, slot)
            error = None
            t0 = time.perf_counter()
            try:
                code, result = call(package, req, out)
            except Exception:   # a request that raises is a failed request
                code, result, error = None, None, traceback.format_exc()
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.request = None
            entry = {"code": code, "digest": _digest(out) if req["op"] == "cli" else None,
                     "summary": _summary(req, result) if error is None else None,
                     "error": error}
            del result
            if out.exists():
                output_bytes += out.stat().st_size
            if rounds == 0:
                first[slot] = entry
                same = True
            else:
                same = all(entry[k] == first[slot][k] for k in ("code", "digest", "summary"))
            records.append([slot, rounds, latency, code, same])
        rounds += 1
    busy = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calib += [calibrate() for _ in range(3)]
    scratch.unlink(missing_ok=True)

    report = {
        "rounds": rounds,
        "loop_s": busy,
        "records": records,
        "first": {str(k): v for k, v in first.items()},
        "peak_rss_mb": peak_kib / 1024.0,
        "calibration_s": statistics.median(calib),
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        scan = {(r, s) for r in range(rounds) for s, req in enumerate(mix)
                if req["op"] == "cli" and req["argv"][0] == "critical"
                and req["argv"][req["argv"].index("--l") + 1] != "2"}
        report["layers"] = layertrace.layer_metrics(tracer.spans, rounds,
                                               output_bytes, scan)
        tracer.write(run_dir.parent / f"trace-{cfg['workload']}-{cfg['seed']}.jsonl")
    return report


def main() -> int:
    cfg = json.loads(sys.argv[1])
    try:
        result = run(cfg)
    except ImportError as exc:
        print(f"worker: cannot import the package: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
