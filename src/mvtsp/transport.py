"""Exact uncapacitated transport between per-city surpluses and deficits.

The problem is bipartite: `supply[i]` units leave source i, `demand[j]`
units enter sink j, arc (i, j) costs `cost[i][j]` per unit with no capacity.
Solved by successive shortest paths under node potentials; costs are
nonnegative so plain Dijkstra works from the first iteration, and each
augmentation pushes the full bottleneck, so multiplicities in the trillions
cost no extra iterations.

The returned potentials certify optimality: every finite arc has
``cost[i][j] - pi_source[i] + pi_sink[j] >= 0`` with equality wherever flow
is positive.  The inequality alone is dual feasibility, and it does not
depend on the margins, so the same potentials bound every other problem
over the same matrix from below (LP weak duality): any routing of supply
`a` to demand `b` costs at least
``sum(a[i] * pi_source[i]) - sum(b[j] * pi_sink[j])``.  Evaluating that
takes O(n), against a full solve; `TransportSolution.bound` does it.

A solve may start warm from an optimal solution of another problem over the
same cost matrix.  Its flow, clamped arc by arc in sorted order to the new
supply and demand, and its potentials keep every residual arc at a
nonnegative reduced cost, so the same shortest-path loop only has to route
what the clamped flow leaves over.  When consecutive problems differ little,
as the profiles of a sweep do, that is one or two augmentations instead of
a dozen.  A warm solution of any other matrix, or whose potentials do not
certify its flow over this one, raises ValueError.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .core import INF, Cost, CostMatrix, DirectedMultigraph, _check_count


class TransportInfeasible(Exception):
    """Some remaining supply cannot reach any remaining demand over finite
    arcs; the surrounding tree/instance combination admits no tour."""


@dataclass(frozen=True)
class TransportProblem:
    """Balanced bipartite transport data over n sources and n sinks.

    `cost` is kept as given when it is a CostMatrix, such as an Instance's,
    whose entries were checked when it was built; any other nested sequence
    is checked here.
    """

    supply: tuple[int, ...]
    demand: tuple[int, ...]
    cost: CostMatrix
    n: int = field(init=False)

    def __post_init__(self) -> None:
        supply = tuple(self.supply)
        demand = tuple(self.demand)
        n = len(supply)
        if n < 1:
            raise ValueError("transport needs at least one node per side")
        if len(demand) != n:
            raise ValueError("supply and demand vectors differ in length")
        for name, vec in (("supply", supply), ("demand", demand)):
            for i, value in enumerate(vec):
                _check_count(value, f"{name}[{i}]")
        if sum(supply) != sum(demand):
            raise ValueError("total supply and demand differ")
        rows = CostMatrix(self.cost)
        if len(rows) != n:
            raise ValueError(f"cost matrix must be {n}x{n}")
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "cost", rows)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class TransportSolution:
    """An optimal routing plus the dual certificate.

    `flow` records positive arc flows as a multigraph over the n cities
    (source index -> sink index).  The potentials satisfy
    cost[i][j] - pi_source[i] + pi_sink[j] >= 0 on finite arcs, with
    equality on every arc carrying flow, which certifies optimality.
    `cost` is exact and may exceed MAX_VALUE; callers cap what they report.
    `matrix` is the cost matrix solved over, which a warm start checks.
    """

    flow: DirectedMultigraph
    cost: int
    pi_source: tuple[int, ...]
    pi_sink: tuple[int, ...]
    matrix: CostMatrix | None = field(default=None, compare=False, repr=False)

    def bound(self, supply, demand) -> int:
        """Exact lower bound on the optimal cost of routing `supply` to
        `demand` over the matrix this solution was solved over.

        The potentials are dual-feasible for every margin pair over that
        matrix, so by weak duality no feasible routing costs less; on this
        solution's own margins the bound is its cost (strong duality).  It
        says nothing when the margins admit no routing at all.
        """
        return sum(a * p for a, p in zip(supply, self.pi_source)) - sum(
            b * p for b, p in zip(demand, self.pi_sink)
        )


def _check_certificate(sol: TransportSolution, d: CostMatrix) -> None:
    """Raise ValueError unless `sol`'s potentials are dual-feasible on every
    finite arc of `d` and tight on every arc of its flow.

    Without both, the shortest-path loop could return a wrong cost or never
    finish.
    """
    n = len(d)
    ps, pt = sol.pi_source, sol.pi_sink
    for i in range(n):
        row, p = d[i], ps[i]
        for j in range(n):
            if row[j] != INF and row[j] - p + pt[j] < 0:
                raise ValueError("warm start potentials are not dual-feasible")
    for i, j in sol.flow.mult:
        if d[i][j] - ps[i] + pt[j] != 0:
            raise ValueError("warm start potentials are not tight on its flow")


def solve_transport(
    problem: TransportProblem, warm: TransportSolution | None = None
) -> TransportSolution:
    """Minimum-cost routing of all supply to all demand.

    `warm`, when given, must be an optimal solution of a problem over the
    same cost matrix (the same CostMatrix object, or an equal one), such as
    one this function returned; its supply and demand may differ.  The
    solve then starts from its flow and potentials instead of from nothing.
    The cost is the same either way, but the flow and potentials may be a
    different optimum.  Raises ValueError when `warm` was not solved over
    this matrix or its potentials do not certify its flow (a negative
    reduced cost on a finite arc, or a nonzero one on an arc carrying
    flow), and TransportInfeasible when the finite arcs cannot carry
    everything.
    """
    n = problem.n
    d = problem.cost
    a = list(problem.supply)
    b = list(problem.demand)
    flow: dict[tuple[int, int], int] = {}
    # Johnson potentials per node: sources are 0..n-1, sinks n..2n-1.
    pot = [0] * (2 * n)
    if warm is not None:
        if warm.matrix is not d and warm.matrix != d:
            raise ValueError("warm start was not solved over this cost matrix")
        _check_certificate(warm, d)
        pot = [-p for p in warm.pi_source + warm.pi_sink]
        # Lowering a flow only removes residual arcs, so every reduced cost
        # stays nonnegative under the warm potentials.
        for i, j, f in warm.flow.edges():
            f = min(f, a[i], b[j])
            if f > 0:
                flow[(i, j)] = f
                a[i] -= f
                b[j] -= f
    remaining = sum(a)

    while remaining > 0:
        dist: list[Cost] = [INF] * (2 * n)
        reached = [False] * (2 * n)
        via: list[int] = [-1] * (2 * n)
        heap: list[tuple[Cost, int]] = []
        for i in range(n):
            if a[i] > 0:
                dist[i] = 0
                heapq.heappush(heap, (0, i))
        goal = -1
        goal_dist: Cost = INF
        while heap:
            du, u = heapq.heappop(heap)
            if reached[u]:
                continue
            reached[u] = True
            if u >= n and b[u - n] > 0:
                goal = u
                goal_dist = du
                break
            if u < n:
                base = du + pot[u]
                for j in range(n):
                    if d[u][j] == INF:
                        continue
                    nd = base + d[u][j] - pot[n + j]
                    if nd < dist[n + j]:
                        dist[n + j] = nd
                        via[n + j] = u
                        heapq.heappush(heap, (nd, n + j))
            else:
                j = u - n
                base = du + pot[u]
                for i in range(n):
                    if flow.get((i, j), 0) > 0:
                        nd = base - d[i][j] - pot[i]
                        if nd < dist[i]:
                            dist[i] = nd
                            via[i] = u
                            heapq.heappush(heap, (nd, i))
        if goal < 0:
            raise TransportInfeasible(
                "remaining supply cannot reach remaining demand on finite arcs"
            )
        for v in range(2 * n):
            pot[v] += min(dist[v], goal_dist)
        # Trace the augmenting path back to a source and find the bottleneck.
        path: list[int] = [goal]
        while via[path[-1]] >= 0:
            path.append(via[path[-1]])
        path.reverse()
        bottleneck = min(a[path[0]], b[goal - n])
        for t in range(1, len(path) - 1):
            u, v = path[t], path[t + 1]
            if v < n:  # backward use of arc (v, u - n)
                bottleneck = min(bottleneck, flow[(v, u - n)])
        for t in range(len(path) - 1):
            u, v = path[t], path[t + 1]
            if u < n:
                flow[(u, v - n)] = flow.get((u, v - n), 0) + bottleneck
            else:
                flow[(v, u - n)] -= bottleneck
        a[path[0]] -= bottleneck
        b[goal - n] -= bottleneck
        remaining -= bottleneck

    total = 0
    positive = {}
    for (i, j), f in flow.items():
        if f > 0:
            positive[(i, j)] = f
            total += f * d[i][j]
    graph = DirectedMultigraph(n, positive)
    pi_source = tuple(-pot[i] for i in range(n))
    pi_sink = tuple(-pot[n + j] for j in range(n))
    return TransportSolution(graph, total, pi_source, pi_sink, d)
