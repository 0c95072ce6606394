"""End-to-end exact many-visits tour solvers.

Every solver rests on the same decomposition: an optimal tour splits into a
spanning tree directed away from the root plus a transport routing of the
remaining visit counts, and both parts can be optimized per degree profile,
an outdegree tuple over the cities plus the root.  One sweep visits every
feasible profile within the visit quotas, adds the cheapest tree cost of
each profile to its optimal transport completion, and keeps the best total.
Once it has a first total, the potentials of its last transport solve bound
every later completion from below, linearly in the profile, so a profile
whose tree alone leaves no room under the incumbent is skipped without a
transport solve, at the price of one dot product.
The algorithms differ only in how that tree is found: `dp` runs a dynamic
program sharing one memo across the sweep, and `dc2` runs a
polynomial-space divide and conquer whose branch and bound starts from the
room the incumbent leaves.  `dp` folds bare costs and builds a tree for the
winning profile alone; `dc2` keeps the tree it builds anyway.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import mul

from .core import INF, Cost, Instance, TourSolution, multigraph_sum
from .degseq import enumerate_feasible
from .euler import eulerian_expand
from .opttree import DpTreeSolver, min_tree_dc2
from .transport import TransportInfeasible, TransportProblem, solve_transport
from .trees import DirectedTree

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
    """Knobs shared by all solvers.

    `expansion_threshold` caps the total visit count up to which the
    explicit closed walk is materialized.
    """

    algorithm: str = "dp"
    root: int = 0
    expansion_threshold: int = 10**6

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}"
            )
        if self.root < 0:
            raise ValueError("root must be nonnegative")
        if self.expansion_threshold < 0:
            raise ValueError("expansion threshold must be nonnegative")


def _assemble(
    inst: Instance, cfg: SolverConfig, total: Cost, tree: DirectedTree, tsol
) -> TourSolution:
    edges = multigraph_sum(tree.as_multigraph(inst.n), tsol.flow)
    expansion = None
    if inst.total_visits <= cfg.expansion_threshold:
        expansion = eulerian_expand(edges, cfg.root, cfg.expansion_threshold)
    return TourSolution(
        cost=total, edges=edges, expansion=expansion, certificate=tsol
    )


def _sweep(inst: Instance, cfg: SolverConfig, tree_for):
    """Run one (bound, tree, transport, fold) pass over the degree profiles
    within the visit quotas.

    A tree with outdegrees `dout` leaves supply k[v] - dout[v] at each city
    and demand k[v] less its indegree, the same for every profile.  Once an
    incumbent exists, the last transport's potentials bound each completion
    from below (`TransportSolution.bound`), and `tree_for(dout, bound)`
    gets the incumbent total less that bound: `room`, the incumbent less
    the bound at supply k, plus `sum(dout[v] * pi_source[v])`.  A tree at
    or above it could at best tie, and ties keep the earlier profile, so
    its transport is skipped.  A backend may cut its search with the bound
    and answer (None, inf) when nothing is below it; one that only computes
    costs returns None as the tree, and the caller builds the winner's.
    Each transport starts warm from the last feasible one; profiles come in
    lexicographic order, so consecutive completions differ little.  Totals
    are compared as exact integers, even above MAX_VALUE: only the winner
    has to fit the cap, which TourSolution checks.  Returns the winning
    (total, tree, profile, transport solution) or raises Infeasible.
    """
    n, k = inst.n, inst.k
    demand = tuple(k[v] - (v != cfg.root) for v in range(n))
    best = None
    best_idx = -1
    best_tree_cost: int | None = None
    last = None
    room = ps = None
    swept = transports = pruned = 0
    for idx, dout in enumerate(enumerate_feasible(k, cfg.root)):
        swept += 1
        bound = INF if room is None else room + sum(map(mul, dout, ps))
        tree, tree_cost = tree_for(dout, bound)
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
    # Optimal transport costs are unique but flows and potentials are not;
    # a cold solve gives the winner the certificate it has without warm
    # starts.
    total, tree, dout, supply = best
    return total, tree, dout, solve_transport(
        TransportProblem(supply, demand, inst.cost)
    )


def solve(inst: Instance, config: SolverConfig | None = None) -> TourSolution:
    """Solve an instance exactly with the configured algorithm.

    Raises ValueError when the root is not a city of the instance,
    Infeasible when no finite-cost tour exists, and OverflowError when the
    optimum exceeds MAX_VALUE.
    """
    cfg = config or SolverConfig()
    if not cfg.root < inst.n:
        raise ValueError(f"root {cfg.root} outside 0..{inst.n - 1}")
    if cfg.algorithm == "dp":
        solver = DpTreeSolver(inst, cfg.root)

        # Cheap per profile and memoized, so the bound would save little.
        def tree_for(dout, bound):
            return None, solver.solve(dout)
    else:
        def tree_for(dout, bound):
            return min_tree_dc2(dout, cfg.root, inst, bound)

    total, tree, dout, tsol = _sweep(inst, cfg, tree_for)
    if tree is None:  # dp folded bare costs: read the winner's tree back
        tree = solver.tree(dout)
    return _assemble(inst, cfg, total, tree, tsol)
