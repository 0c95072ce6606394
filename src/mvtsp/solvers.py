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

Two self-contained brute-force oracles are included for cross-checking:
a visit-state dynamic program and plain multiset permutation scanning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import prod
from operator import mul

from .core import (
    INF,
    Cost,
    DirectedMultigraph,
    Instance,
    TourSolution,
    multigraph_sum,
)
from .degseq import compositions, enumerate_feasible
from .euler import eulerian_expand, walk_arcs
from .opttree import DpTreeSolver, min_tree_dc2
from .transport import TransportInfeasible, TransportProblem, solve_transport
from .trees import DirectedTree

log = logging.getLogger(__name__)

ALGORITHMS = (
    "dp",
    "dc2",
    "brute_psaraftis",
    "brute_permutation",
)


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

    Raises Infeasible when no finite-cost tour exists, and OverflowError
    when the optimum exceeds MAX_VALUE.
    """
    cfg = config or SolverConfig()
    if not cfg.root < inst.n:
        raise ValueError(f"root {cfg.root} outside 0..{inst.n - 1}")
    if cfg.algorithm == "brute_psaraftis":
        cost, walk = _psaraftis_walk(inst, cfg.root)
        return _wrap_walk(inst, cfg, cost, walk)
    if cfg.algorithm == "brute_permutation":
        cost, walk = _permutation_walk(inst, cfg.root)
        return _wrap_walk(inst, cfg, cost, walk)

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


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_psaraftis(inst: Instance) -> Cost:
    """Optimal tour cost by dynamic programming over visit states.

    States are (remaining visit vector, current city); applicable while
    prod(k_i + 1) stays small (guarded at 10**7).  Returns inf when no
    finite tour exists.
    """
    return _psaraftis_walk(inst, 0)[0]


def _psaraftis_walk(
    inst: Instance, start: int
) -> tuple[Cost, tuple[int, ...] | None]:
    n, d, k = inst.n, inst.cost, inst.k
    states = prod(q + 1 for q in k)
    if states > 10**7:
        raise ValueError(
            f"visit-state space {states} exceeds 10**7; use another solver"
        )
    if n == 1:
        cost = d[0][0] * k[0] if d[0][0] != INF else INF
        return cost, ((0,) * k[0] if cost != INF else None)

    # value[(rem, j)] = cheapest way to stand at j with `rem` visits left
    # and eventually return to `start`; filled in order of increasing
    # remaining total, so plain loops replace recursion.
    first = tuple(q - 1 if v == start else q for v, q in enumerate(k))
    value: dict[tuple[tuple[int, ...], int], Cost] = {}
    choice: dict[tuple[tuple[int, ...], int], int] = {}
    for j in range(n):
        value[((0,) * n, j)] = d[j][start]
    for total in range(1, sum(first) + 1):
        for rem in compositions(total, first):
            nxt = [
                (v, rem[:v] + (rem[v] - 1,) + rem[v + 1 :])
                for v in range(n)
                if rem[v] > 0
            ]
            for j in range(n):
                best: Cost = INF
                best_v = -1
                for v, rem2 in nxt:
                    w = d[j][v]
                    if w == INF:
                        continue
                    cand = w + value[(rem2, v)]
                    if cand < best:
                        best = cand
                        best_v = v
                value[(rem, j)] = best
                choice[(rem, j)] = best_v
    cost = value[(first, start)]
    if cost == INF:
        return INF, None
    walk = [start]
    rem, here = first, start
    while sum(rem) > 0:
        v = choice[(rem, here)]
        walk.append(v)
        rem = rem[:v] + (rem[v] - 1,) + rem[v + 1 :]
        here = v
    return cost, tuple(walk)


def brute_permutation(inst: Instance) -> Cost:
    """Optimal tour cost by scanning all distinct visit orders.

    Guarded at a total of 10 visits.  Returns inf when no finite tour
    exists.
    """
    return _permutation_walk(inst, 0)[0]


def _permutation_walk(
    inst: Instance, start: int
) -> tuple[Cost, tuple[int, ...] | None]:
    n, d, k = inst.n, inst.cost, inst.k
    total = inst.total_visits
    if total > 10:
        raise ValueError(f"total visit count {total} exceeds 10; use another solver")
    counts = [q - 1 if v == start else q for v, q in enumerate(k)]
    best: Cost = INF
    best_walk: tuple[int, ...] | None = None
    prefix = [start]

    def scan(left: int, cost_so_far: Cost) -> None:
        nonlocal best, best_walk
        if cost_so_far >= best:
            return
        here = prefix[-1]
        if left == 0:
            w = d[here][start]
            if w != INF and cost_so_far + w < best:
                best = cost_so_far + w
                best_walk = tuple(prefix)
            return
        for v in range(n):
            if counts[v] == 0 or d[here][v] == INF:
                continue
            counts[v] -= 1
            prefix.append(v)
            scan(left - 1, cost_so_far + d[here][v])
            prefix.pop()
            counts[v] += 1

    scan(total - 1, 0)
    return best, best_walk


def _wrap_walk(
    inst: Instance, cfg: SolverConfig, cost: Cost, walk: tuple[int, ...] | None
) -> TourSolution:
    if cost == INF or walk is None:
        raise Infeasible("no finite closed walk covers the visit quotas")
    edges = DirectedMultigraph(inst.n, walk_arcs(walk))
    expansion = walk if len(walk) <= cfg.expansion_threshold else None
    return TourSolution(cost=cost, edges=edges, expansion=expansion)
