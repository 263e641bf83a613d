"""Digest every request of the benchmark's mixes: a same-bytes check.

    python3 tools/replay_digests.py --workload grid --seeds 1,2,97

Each request of ``bench/mixes.make_mix(workload, seed)`` runs once, in
this process, through ``bench/worker.call``, against the package in this
checkout's ``src/``.  One line per request gives the seed, the slot, the
request's command, its exit code and the sha256 of the CLI's output file
or of the library result's fields (arrays by dtype, shape and bytes,
anything else by repr).  The last line is the sha256 of all lines before
it.  Two checkouts that print the same last line gave the same bytes and
exit codes on every request.  Only ``bench/`` is imported, and nothing
there changes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import mixes  # noqa: E402
import worker  # noqa: E402


def _result_digest(result) -> str:
    h = hashlib.sha256()
    if dataclasses.is_dataclass(result):
        values = [getattr(result, f.name) for f in dataclasses.fields(result)]
    else:
        values = [result]
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def replay(workload: str, seeds: list[int]):
    """Yield one line per request of the workload's mix at each seed."""
    cw = worker._import_package()
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        for seed in seeds:
            mix = mixes.make_mix(workload, seed)
            worker.warm_up(cw, mix, run_dir)
            for slot, req in enumerate(mix):
                out = run_dir / f"slot{slot}.out"
                try:
                    code, result = worker.call(cw, req, out)
                except Exception as exc:  # a raising request is a result too
                    traceback.print_exc()
                    code, digest = "raised", type(exc).__name__
                else:
                    digest = (worker._digest(out) if req["op"] == "cli"
                              else _result_digest(result))
                    del result
                out.unlink(missing_ok=True)
                name = req["argv"][0] if req["op"] == "cli" else req["op"]
                yield f"{seed} {slot} {name} {code} {digest}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    parser.add_argument("--seeds", default="1,2,97",
                        help="comma-separated benchmark seeds (default 1,2,97)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    combined = hashlib.sha256()
    for line in replay(args.workload, seeds):
        print(line, flush=True)
        combined.update((line + "\n").encode())
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
