"""End-to-end exact many-visits tour solvers.

An optimal tour splits into a spanning tree directed away from the root plus
a transport routing of the remaining visit counts, and `solve` optimizes
both parts per degree profile, an outdegree tuple over the cities plus the
root.  The algorithms differ only in how the tree is found: `dp` runs a
dynamic program sharing one memo across the sweep, and `dc2` runs a
polynomial-space divide and conquer cut by the room the incumbent leaves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import mul

from .core import INF, Instance, TourSolution, _check_count, multigraph_sum
from .degseq import enumerate_feasible
from .euler import WALK_LIMIT, eulerian_expand
from .opttree import DpTreeSolver, min_tree_dc2
from .transport import TransportInfeasible, TransportProblem, solve_transport

log = logging.getLogger(__name__)

ALGORITHMS = ("dp", "dc2")


class Infeasible(Exception):
    """The instance admits no tour of finite cost.

    `best_bound` is the cheapest finite spanning-tree cost seen while
    searching (None when even the trees were all infinite); any tour, if one
    existed, would cost at least that much.
    """

    def __init__(self, message: str, best_bound: int | None = None) -> None:
        super().__init__(message)
        self.best_bound = best_bound


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all solvers; `mvtsp solve` takes its defaults here.

    `expansion_threshold` caps the total visit count up to which the
    explicit closed walk is materialized.
    """

    algorithm: str = "dp"
    root: int = 0
    expansion_threshold: int = WALK_LIMIT

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}"
            )
        _check_count(self.root, "root")
        _check_count(self.expansion_threshold, "expansion threshold")


def solve(inst: Instance, config: SolverConfig | None = None) -> TourSolution:
    """Solve an instance exactly with the configured algorithm.

    One sweep visits the degree profiles within the visit quotas in
    lexicographic order.  A tree with outdegrees `dout` leaves supply
    k[v] - dout[v] at each city and demand k[v] less its indegree, the same
    for every profile; the cheapest tree plus the optimal transport
    completion is the profile's total, and the first strictly cheapest total
    wins.  Once an incumbent exists, the last transport's potentials bound
    each completion from below (`TransportSolution.bound`), linearly in the
    profile, so the tree is priced against `bound`, the incumbent less that
    bound: `room`, the incumbent less the bound at supply k, plus
    `sum(dout[v] * pi_source[v])`.  A tree at or above it could at best
    tie, and ties keep the earlier profile, so its transport is skipped;
    `dc2` also cuts its search with it and answers (None, inf) when nothing
    is below it.  `dp` folds bare costs, cheap per profile and memoized,
    and reads the winner's tree back from its memo.  Each transport starts
    warm from the last feasible one, and the winner's is solved again cold,
    so its certificate does not depend on the warm starts.  Totals are
    compared as exact integers, even above MAX_VALUE: only the winner has
    to fit the cap.

    Raises ValueError when the root is not a city of the instance,
    Infeasible when no finite-cost tour exists, and OverflowError when the
    optimum exceeds MAX_VALUE.
    """
    cfg = config or SolverConfig()
    n, k, root = inst.n, inst.k, cfg.root
    dp = DpTreeSolver(inst, root) if cfg.algorithm == "dp" else None
    demand = tuple(k[v] - (v != root) for v in range(n))
    best = tree = None
    best_idx = -1
    best_tree_cost: int | None = None
    last = None
    room = ps = None
    swept = transports = pruned = 0
    for idx, dout in enumerate(enumerate_feasible(k, root)):
        swept += 1
        bound = INF if room is None else room + sum(map(mul, dout, ps))
        if dp is None:
            tree, tree_cost = min_tree_dc2(dout, root, inst, bound)
        else:
            tree_cost = dp.solve(dout)
        if tree_cost >= bound:
            pruned += best is not None
            continue
        # Reported only by Infeasible, that is, when no bound ever applied.
        if best_tree_cost is None or tree_cost < best_tree_cost:
            best_tree_cost = tree_cost
        transports += 1
        supply = tuple(k[v] - dout[v] for v in range(n))
        try:
            last = solve_transport(
                TransportProblem(supply, demand, inst.cost), last
            )
        except TransportInfeasible:
            continue
        total = tree_cost + last.cost
        if best is None or total < best[0]:
            best = (total, tree, dout, supply)
            best_idx = idx
        room = best[0] - last.bound(k, demand)
        ps = last.pi_source
    log.debug(
        "swept %d degree profiles: %d transports solved, %d pruned by bound; "
        "best index %d",
        swept, transports, pruned, best_idx,
    )
    if best is None:
        raise Infeasible(
            "no degree profile admits a finite tour", best_tree_cost
        )
    total, tree, dout, supply = best
    tsol = solve_transport(TransportProblem(supply, demand, inst.cost))
    if dp is not None:
        tree = dp.tree(dout)
    edges = multigraph_sum(tree.as_multigraph(n), tsol.flow)
    expansion = None
    if inst.total_visits <= cfg.expansion_threshold:
        expansion = eulerian_expand(edges, root, cfg.expansion_threshold)
    return TourSolution(
        cost=total, edges=edges, expansion=expansion, certificate=tsol
    )
