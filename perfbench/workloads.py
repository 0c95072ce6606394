"""The benchmark's workloads: what each one generates, solves and expects.

Every workload draws its instances from a pinned pool of `POOL` generator
seeds (0..POOL-1), whose instance digests and optimal costs are recorded in
`pinned.json`.  The run seed only shuffles the pool, so any seed gives the
same kind of work and every instance it can reach has a recorded digest and
reference cost.  Quotas are fixed per workload (`k_fixed`): with random
quotas the share of profiles that pass the quota filter, and with it the
solve time, varies eightfold between instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pinned.json"
#: Instance and solution files, and the spans of traced runs.
WORK = ROOT / ".perfbench"

#: Generator seeds per workload, 0..POOL-1.
POOL = 16

#: A run seed kept out of development: a claimed gain must also hold on it.
#: The pool is shared, so it changes which instances a run reaches first
#: and in what order, not the instances themselves.
HELD_OUT_SEED = 1009

COST_MAX = 20


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    algorithm: str
    n: int
    k_fixed: int
    # Second tree backend whose optimum every solve must match, or None when
    # only the pinned cost is checked (no other backend finishes at this n).
    reference: str | None
    # Typical untraced solve time when the pool was pinned.  It fixes how
    # many instances the traced run solves, so counts repeat exactly.
    nominal_s: float
    # Spans the traced run must record at least once; a call site that
    # moved makes the run fail instead of reporting zero.
    spans: tuple[str, ...]
    # Layers expected to hold the largest traced self time together.
    dominant: tuple[str, ...]

    def generator_args(self, seed: int) -> dict:
        return dict(
            n=self.n,
            k_max=4,
            cost_max=COST_MAX,
            inf_prob=0.0,
            seed=seed,
            k_fixed=self.k_fixed,
        )

    def trace_solves(self, seconds: float) -> int:
        """Instances a traced run solves, each once untraced and once
        traced, to fill about `seconds`."""
        return max(1, round(seconds / 2 / self.nominal_s))


_SWEEP = (
    "cli.main",
    "cli.parse_instance",
    "solvers.solve",
    "degseq.next",
    "transport.problem",
    "transport.solve",
    "euler.cycle_certificate",
    "cli.format_solution",
)

WORKLOADS = {
    w.name: w
    for w in (
        # Quota filter on: 1,800 of 6,435 profiles reach the tree and
        # transport layers.
        Workload(
            name="dp-sweep",
            algorithm="dp",
            n=9,
            k_fixed=2,
            reference=None,
            nominal_s=1.0,
            spans=_SWEEP + ("opttree.dp", "euler.expand"),
            dominant=("transport",),
        ),
        # No quota filter and trillion-unit transport bottlenecks; the walk
        # is too long to expand.
        Workload(
            name="huge-quota",
            algorithm="dp",
            n=8,
            k_fixed=10**12,
            reference=None,
            nominal_s=1.0,
            spans=_SWEEP + ("opttree.dp",),
            dominant=("transport",),
        ),
        # The divide-and-conquer tree search, subproblem cache off.  Single
        # visits keep transport near nil; with k=2 one solve takes 7 s.
        Workload(
            name="dc2-tree",
            algorithm="dc2",
            n=7,
            k_fixed=1,
            reference="dp",
            nominal_s=0.2,
            spans=_SWEEP + ("opttree.dc2", "euler.expand"),
            dominant=("opttree",),
        ),
        # 900,000 visits, under the default expansion threshold of 10**6: a
        # long walk is expanded, formatted and written.
        Workload(
            name="walk-io",
            algorithm="dp",
            n=6,
            k_fixed=150_000,
            reference="dc2",
            nominal_s=0.6,
            spans=_SWEEP + ("opttree.dp", "euler.expand"),
            dominant=("euler", "cli"),
        ),
    )
}


def pool_order(seed: int) -> list[int]:
    """The pool's generator seeds in the order a run with `seed` solves them."""
    return Random(seed).sample(range(POOL), POOL)


def load_pins(name: str) -> dict[int, dict]:
    """Generator seed -> {"sha256", "cost"} recorded for a workload's pool."""
    with open(PINS, encoding="utf-8") as handle:
        return {entry["seed"]: entry for entry in json.load(handle)[name]}
