"""Request mixes of the three workloads, generated from the benchmark seed.

A mix is one round: a fixed list of slots.  Each slot fixes the kind of
request and its size (spin, resolution, largest N), which set its cost;
the seed draws the rest (temperature within a narrow band, couplings,
sector, CLI seed, small N values).  So two seeds give different requests
of nearly the same cost, and the round's make-up (how many requests of
each kind, and which of them are expected to fail) never depends on the
seed.  The program sees only the generated requests.

A request is a dict:
  op      "cli" or the name of a public library function
  argv    CLI arguments (without --out) for op == "cli"
  kwargs  keyword arguments of a library call
  fault   None, or the name of a known program fault the request hits on
          every run (its failure is counted, not hidden)
"""

from __future__ import annotations

import random

WORKLOADS = ("solve", "grid", "finite-n")

# Off-axis landscapes: the CSV header names m1,m2 whatever axes are
# plotted.  Their inputs are fixed so that they fail on every seed.
HEADER_FAULT = "landscape-header"


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _cli(*argv, fault=None) -> dict:
    return {"op": "cli", "argv": [str(a) for a in argv], "kwargs": {}, "fault": fault}


def _lib(op: str, **kwargs) -> dict:
    return {"op": op, "argv": [], "kwargs": kwargs, "fault": None}


class _Draw:
    """Seeded draws of the free parameters of a slot."""

    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")

    def near(self, center: float, rel: float) -> str:
        return _fmt(center * (1.0 + self.rng.uniform(-rel, rel)))

    def pick(self, options):
        return self.rng.choice(list(options))

    def cli_seed(self) -> int:
        return self.rng.randrange(1000)


def _solve(d: _Draw) -> list[dict]:
    out = []

    def minima(twice_l, temp, *couplings):
        out.append(_cli("minima", "--l", twice_l, "--temp", d.near(temp, 0.02),
                        *couplings))

    # Temperatures are drawn within 2 % of each slot's and couplings within
    # 10 %: the cost of a minimization moves steeply with T near a
    # transition, and the median and the tail should not depend on the seed.
    # minima keep the CLI's default --seed, since the random starts set most
    # of their cost (1.6 to 4.9 s for one 2l = 3 request over four seeds).
    j4 = ("--j4", "1")

    def j2j4():
        return "--j2", d.near(0.5, 0.1), "--j4", "1"

    # 2l = 1 and 2: cheap; both sides of each transition, all coupling kinds.
    # Two-state magnet (j4 = 1): T_c ~ 0.36, T_ms ~ 0.48.
    minima(1, 0.25, *j4)
    minima(1, 0.55, *j4)
    minima(1, 0.60, *j2j4())
    minima(1, 0.95, *j2j4())
    # Three-state magnet (j4 = 1): T_c ~ 0.228, T_ms ~ 0.328.
    minima(2, 0.20, *j4)
    minima(2, 0.40, *j4)
    minima(2, 0.30, *j2j4())
    minima(2, 0.60, *j2j4())
    # The sector of g and the sign of h0 are fixed per slot (sectors -1 and
    # 1 are mirror images), as they change which minima exist.
    minima(2, 0.2, *j4, "--g", d.near(0.1, 0.1), "--sector", d.pick(("-1", "1")))
    minima(2, 0.4, *j4, "--g", d.near(0.1, 0.1), "--sector", "0")
    minima(2, 0.2, *j4, "--h0", d.near(0.1, 0.1))
    minima(2, 0.4, *j4, "--h0", "-" + d.near(0.1, 0.1))
    # 2l = 3 and 4 above their transitions: paramagnet only, cheap.
    minima(3, 0.30, *j4)
    minima(3, 0.40, *j4)
    minima(3, 0.60, *j2j4())
    minima(4, 0.30, *j4)
    minima(4, 0.40, *j4)
    # Closed-form l = 1 thresholds.
    for _ in range(4):
        out.append(_cli("critical", "--l", 2, "--temp", d.near(0.4, 0.1),
                        "--j4", d.near(1.0, 0.1)))
    # 2l = 3 and 4 below their transitions: the expensive descents, down to
    # 2l = 4 at T = 0.1 (about 3 s, always beyond the tail percentile).  The
    # others cost 0.7 to 1.5 s each, so that the tail percentile falls among
    # several slots of similar cost.
    for twice_l, temp in ((4, 0.10), (4, 0.18), (3, 0.15), (4, 0.19), (3, 0.18),
                          (4, 0.20), (3, 0.19), (3, 0.20)):
        minima(twice_l, temp, *j4)
    return out


def _grid(d: _Draw) -> list[dict]:
    out = []

    def landscape(twice_l, resolution, temp, *extra, fault=None):
        out.append(_cli("landscape", "--l", twice_l, "--resolution", resolution,
                        "--temp", d.near(temp, 0.2), "--j4", d.near(1.0, 0.2),
                        *extra, fault=fault))

    def symcheck(twice_l, samples):
        out.append(_cli("symcheck", "--l", twice_l, "--samples", samples,
                        "--seed", d.cli_seed()))

    # Sizes fall in three groups (large 0.5-3 s, medium 0.12-0.35 s, small
    # below 0.05 s); the median falls among the medium requests, most of
    # which cost 0.12 to 0.17 s, and the tail percentile among the large.
    # Large: CSV grids from 401**2 to 801**2.
    landscape(2, 801, 0.2)
    landscape(4, 601, 0.2)
    landscape(2, 401, 0.3, "--j2", d.near(0.3, 0.3))
    landscape(6, 401, 0.2)
    # Medium: 201**2 to 301**2 grids and the larger symmetry suites.
    landscape(2, 201, 0.2, "--g", d.near(0.1, 0.5), "--sector",
              d.pick(("-1", "0", "1")))
    landscape(3, 201, 0.2)
    landscape(4, 251, 0.3, "--g", d.near(0.1, 0.5), "--sector",
              d.pick(("-2", "-1", "0", "1", "2")))
    landscape(6, 201, 0.3, "--j2", d.near(0.3, 0.3))
    symcheck(4, 60000)
    symcheck(5, 45000)
    symcheck(6, 30000)
    symcheck(3, 80000)
    # Small: profiles of the three-state magnet (bare, and coupled in
    # sector 0), small JSON grids, the small-spin suites.
    landscape(2, 2001, 0.4, "--profile")
    landscape(2, 2001, 0.4, "--profile", "--g", d.near(0.2, 0.3), "--sector", "0")
    landscape(2, 201, 0.3, "--profile", "--format", "json")
    landscape(2, 41, 0.2, "--format", "json")
    landscape(3, 41, 0.2, "--format", "json")
    symcheck(1, 40000)
    symcheck(2, 40000)
    # Axes other than (1, 2), one large and one medium: fixed inputs, which
    # fail the header check on every run.
    out.append(_cli("landscape", "--l", 4, "--resolution", 401, "--temp", "0.2",
                    "--axis1", 2, "--axis2", 4, fault=HEADER_FAULT))
    out.append(_cli("landscape", "--l", 6, "--resolution", 301, "--temp", "0.3",
                    "--axis1", 1, "--axis2", 3, fault=HEADER_FAULT))
    return out


def _finite_n(d: _Draw) -> list[dict]:
    out = []
    rng = d.rng

    def oracle(twice_l, temp, n_list, *extra):
        n_text = ",".join(str(n) for n in n_list)
        out.append(_cli("oracle", "--l", twice_l, "--temp", d.near(temp, 0.03),
                        "--j4", d.near(1.0, 0.05), "--n-list", n_text, *extra,
                        "--seed", d.cli_seed()))

    def raw_n(twice_l):
        # (2l+1)**N of about 1e4: the CLI's raw-configuration cross-check runs.
        return rng.randint(*{2: (5, 9), 4: (3, 6), 6: (3, 5)}[twice_l])

    # The largest N of each request is fixed, since it sets the table size;
    # it stays under the documented 2e6-row cap.  The round holds an odd
    # number of requests and its middle seven cost about the same, so that
    # the median falls among them.
    # Heavy: tables of 6e5 to 1.9e6 rows.
    oracle(2, 0.2, [raw_n(2), 11, rng.randint(20, 200), 1500])
    oracle(4, 0.3, [raw_n(4), rng.randint(10, 30), 70])
    oracle(6, 0.3, [raw_n(6), rng.randint(8, 16), 30])
    oracle(2, 0.4, [raw_n(2), 1200], "--h0", d.near(0.1, 0.5))
    oracle(4, 0.3, [raw_n(4), 60], "--g", d.near(0.1, 0.5),
           "--sector", d.pick(("-2", "-1", "0", "1", "2")))
    out.append(_lib("paramagnet_gaussian_check", n_spins=1000 + rng.randint(-20, 20)))
    # Middle: tables of 2.3e5 to 3.2e5 rows, coupled and uncoupled, at
    # temperatures where the large-N minimization is cheap.
    oracle(4, 0.3, [raw_n(4), 50])
    oracle(4, 0.3, [raw_n(4), 50], "--g", d.near(0.1, 0.5),
           "--sector", d.pick(("-2", "-1", "0", "1", "2")))
    oracle(4, 0.4, [raw_n(4), 50])
    oracle(2, 0.4, [raw_n(2), 800], "--h0", d.near(0.1, 0.5))
    oracle(2, 0.2, [raw_n(2), 800], "--g", d.near(0.1, 0.5),
           "--sector", d.pick(("-1", "0", "1")))
    oracle(6, 0.3, [raw_n(6), 20])
    oracle(6, 0.3, [raw_n(6), 20], "--g", d.near(0.1, 0.5),
           "--sector", d.pick(("-3", "-2", "-1", "0", "1", "2", "3")))
    # Library callers that keep the whole table, and small probes.
    for twice_l, n_spins in ((2, 600), (4, 30), (6, 16)):
        out.append(_lib("enumerate_ensemble", twice_l=twice_l, n_spins=n_spins,
                        temp=float(d.near(0.3, 0.1)), j4=float(d.near(1.0, 0.2))))
    out.append(_lib("paramagnet_gaussian_check", n_spins=500 + rng.randint(-20, 20)))
    return out


# One small request per layer the workload otherwise leaves idle, so that
# every per-layer figure is measured on every workload.  Together they take
# well under 1 % of a round.
def _probes(d: _Draw, *kinds) -> list[dict]:
    made = {
        "oracle": lambda: _cli("oracle", "--l", 1, "--temp", d.near(0.3, 0.1),
                               "--n-list", "3"),
        "threshold": lambda: _cli("critical", "--l", 2, "--temp", d.near(0.4, 0.1)),
        "batch": lambda: _cli("symcheck", "--l", 1, "--samples", 100,
                              "--seed", d.cli_seed()),
    }
    return [made[k]() for k in kinds]


_BUILDERS = {
    "solve": lambda d: _solve(d) + _probes(d, "oracle", "batch"),
    "grid": lambda d: _grid(d) + _probes(d, "oracle", "threshold"),
    "finite-n": lambda d: _finite_n(d) + _probes(d, "threshold", "batch"),
}


def make_mix(workload: str, seed: int) -> list[dict]:
    """One round of the workload's requests; the same seed gives the same list."""
    return _BUILDERS[workload](_Draw(seed, workload))


def spins(mix: list[dict]) -> list[int]:
    """Every doubled spin the mix touches, for the set-up warm-up."""
    found = set()
    for req in mix:
        if req["op"] == "cli":
            found.add(int(req["argv"][req["argv"].index("--l") + 1]))
        elif "twice_l" in req["kwargs"]:
            found.add(req["kwargs"]["twice_l"])
        else:
            found.add(2)
    return sorted(found)
