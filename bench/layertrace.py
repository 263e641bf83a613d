"""Outside-in layer trace: spans around the public functions of each layer.

``install`` rebinds the public functions of the package's modules to
timing wrappers, in every ``curieweiss`` module that holds a reference to
them (``from .x import f`` copies included), so calls between layers are
seen without changing the package.  Spans (name, start, end, parent span,
request id, count, bytes) stay in memory; ``write`` stores them when the
run ends and ``layer_metrics`` derives the per-layer figures from span
counts and self times.  A span's self time is its duration minus that of
its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

# Public functions traced per layer (module of the package).  ``spectrum``
# holds only two cached tables and is not traced.
LAYERS = {
    "cli": ("main",),
    "equilibrium": ("minimize", "spinodal_temperature", "critical_temperature",
                    "critical_coupling", "meanfield_m2"),
    "thermo": ("free_energy", "free_energy_weights", "free_energy_batch"),
    "order_params": ("moments_to_weights_array", "moment_orbit"),
    "oracle": ("enumerate_ensemble", "exact_free_energy", "thermal_moments",
               "raw_config_free_energy", "paramagnet_gaussian_check"),
    "properties": ("run_symmetry_suite",),
}

THRESHOLDS = {"equilibrium.spinodal_temperature", "equilibrium.critical_temperature",
              "equilibrium.critical_coupling", "equilibrium.meanfield_m2"}
SCALAR = {"thermo.free_energy", "thermo.free_energy_weights"}
REDUCE = {"oracle.exact_free_energy", "oracle.thermal_moments"}

MB = 1e6

# Per-layer metrics: name -> unit, in the order BENCHMARK.json lists them.
METRICS = {
    "cli.self_s": "s",
    "cli.output_mb": "MB",
    "cli.format_mb_per_s": "MB/s",
    "equilibrium.minimize_calls": "count",
    "equilibrium.minimize_s": "s",
    "equilibrium.minimize_self_s": "s",
    "equilibrium.minima_returned": "count",
    "equilibrium.scan_minimize_calls": "count",
    "equilibrium.threshold_s": "s",
    "thermo.scalar_calls": "count",
    "thermo.scalar_s": "s",
    "thermo.batch_points": "count",
    "thermo.batch_points_per_s": "1/s",
    "order_params.chart_calls": "count",
    "order_params.chart_s": "s",
    "order_params.orbit_s": "s",
    "oracle.rows": "count",
    "oracle.rows_per_s": "1/s",
    "oracle.table_mb": "MB",
    "oracle.reduce_s": "s",
    "oracle.raw_check_s": "s",
    "properties.samples_per_s": "1/s",
}


def _table_bytes(ens) -> int:
    arrays = (ens.counts, ens.log_degeneracy, ens.moments, ens.energy, ens.log_weight)
    return sum(a.nbytes for a in arrays if a is not None)


def _symmetry_samples(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, _result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["samples"], 0
    return count


# span name -> (args, kwargs, result) -> (count, bytes)
_COUNTERS = {
    "equilibrium.minimize": lambda a, k, r: (len(r), 0),
    "thermo.free_energy_batch": lambda a, k, r: (len(r[0]), 0),
    "oracle.enumerate_ensemble": lambda a, k, r: (r.size, _table_bytes(r)),
}


class Tracer:
    """Collects spans; ``request`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, request, count, bytes]
        self._stack: list[int] = []
        self.request = None

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5], span[6] = counter(args, kwargs, result)
            return result
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def install(tracer: Tracer):
    """Rebind every traced function in every loaded curieweiss module.

    Returns a function that puts the original functions back.
    """
    for layer in LAYERS:
        importlib.import_module(f"curieweiss.{layer}")
    modules = [m for name, m in sys.modules.items()
               if name == "curieweiss" or name.startswith("curieweiss.")]
    rebound = []
    for layer, names in LAYERS.items():
        home = sys.modules[f"curieweiss.{layer}"]
        for name in names:
            orig = getattr(home, name)
            span_name = f"{layer}.{name}"
            counter = _COUNTERS.get(span_name)
            if span_name == "properties.run_symmetry_suite":
                counter = _symmetry_samples(orig)
            wrapped = tracer.wrap(span_name, orig, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapped)
                        rebound.append((module, attr, orig))

    def restore():
        for module, attr, orig in rebound:
            setattr(module, attr, orig)
    return restore


def layer_metrics(spans: list[list], rounds: int, output_bytes: int,
                  scan_requests: set) -> dict:
    """Per-layer figures of a traced run of ``rounds`` identical rounds.

    Counts, bytes and busy times are per round (every round repeats the
    same requests); ``*_per_s`` are work over busy time; ``cli.self_s`` is
    per CLI request; ``equilibrium.minimize_s`` and ``minimize_self_s`` are
    medians per call.  ``scan_requests`` holds the (round, slot) request
    ids of scan-based ``critical`` requests.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - child[i]

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def ids(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def parent_layer(i):
        p = spans[i][3]
        return spans[p][0].split(".")[0] if p >= 0 else None

    def total(idx):
        return sum(dur(i) for i in idx)

    def rate(work, busy):
        return work / busy if busy > 0 else 0.0

    cli_ids = ids("cli.main")
    cli_self = sum(self_time(i) for i in cli_ids)
    minimize = ids("equilibrium.minimize")
    scalar = [i for i in ids(*SCALAR) if parent_layer(i) == "equilibrium"]
    chart = [i for i in ids("order_params.moments_to_weights_array")
             if parent_layer(i) in ("thermo", "equilibrium")]
    thresholds = [i for i in ids(*THRESHOLDS)
                  if spans[i][3] < 0 or spans[spans[i][3]][0] not in THRESHOLDS]
    batch = ids("thermo.free_energy_batch")
    enum = ids("oracle.enumerate_ensemble")
    suite = ids("properties.run_symmetry_suite")

    per_round = 1.0 / rounds
    values = {
        "cli.self_s": rate(cli_self, len(cli_ids)),
        "cli.output_mb": output_bytes / MB * per_round,
        "cli.format_mb_per_s": rate(output_bytes / MB, cli_self),
        "equilibrium.minimize_calls": len(minimize) * per_round,
        "equilibrium.minimize_s": statistics.median(dur(i) for i in minimize)
        if minimize else 0.0,
        "equilibrium.minimize_self_s": statistics.median(self_time(i) for i in minimize)
        if minimize else 0.0,
        "equilibrium.minima_returned": sum(spans[i][5] for i in minimize) * per_round,
        "equilibrium.scan_minimize_calls":
            sum(1 for i in minimize if spans[i][4] in scan_requests) * per_round,
        "equilibrium.threshold_s": total(thresholds) * per_round,
        "thermo.scalar_calls": len(scalar) * per_round,
        "thermo.scalar_s": total(scalar) * per_round,
        "thermo.batch_points": sum(spans[i][5] for i in batch) * per_round,
        "thermo.batch_points_per_s": rate(sum(spans[i][5] for i in batch), total(batch)),
        "order_params.chart_calls": len(chart) * per_round,
        "order_params.chart_s": total(chart) * per_round,
        "order_params.orbit_s": total(ids("order_params.moment_orbit")) * per_round,
        "oracle.rows": sum(spans[i][5] for i in enum) * per_round,
        "oracle.rows_per_s": rate(sum(spans[i][5] for i in enum), total(enum)),
        "oracle.table_mb": max((spans[i][6] for i in enum), default=0) / MB,
        "oracle.reduce_s": total(ids(*REDUCE)) * per_round,
        "oracle.raw_check_s": total(ids("oracle.raw_config_free_energy")) * per_round,
        "properties.samples_per_s": rate(sum(spans[i][5] for i in suite), total(suite)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
