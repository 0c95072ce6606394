"""Turning balanced edge multisets into walks, and compact cycle summaries.

A valid tour edge set always admits a closed walk using every edge exactly
as often as its multiplicity.  `eulerian_expand` materializes that walk
(refusing beyond a size limit, since walks are as long as the total visit
count), while `cycle_certificate` gives a compact proof of the same
structure: a list of simple cycles with counts whose weighted union is the
edge multiset, never longer than the number of distinct edges.

Both routines run on successor stacks from `_successors`: for each vertex,
its live out-arcs as `[target, multiplicity left]`, largest target first.
The last entry is always the smallest live target; an entry is popped the
moment its count reaches 0, so no routine skips or searches for an arc.
Both take the smallest live target first, which fixes the walk and the
cycle list for a given edge multiset.
"""

from __future__ import annotations

from typing import Sequence

from .core import DirectedMultigraph, Edge, check_balanced, check_tour_edgeset


class ExpansionLimitExceeded(Exception):
    """The requested walk would exceed the expansion limit."""

    def __init__(self, total: int, limit: int) -> None:
        super().__init__(f"walk of length {total} exceeds the limit {limit}")
        self.total = total
        self.limit = limit


def walk_arcs(walk: Sequence[int], times: int = 1) -> dict[Edge, int]:
    """Count the arcs of the closed walk `walk`, each `times` over; the
    step from the last vertex back to the first is an arc too."""
    arcs: dict[Edge, int] = {}
    for arc in zip(walk, walk[1:] + walk[:1]):
        arcs[arc] = arcs.get(arc, 0) + times
    return arcs


def _successors(g: DirectedMultigraph) -> list[list[list[int]]]:
    """Each vertex's out-arcs as `[target, multiplicity]`, largest target
    first, so `succ[v][-1]` is the arc to v's smallest target."""
    succ: list[list[list[int]]] = [[] for _ in range(g.n)]
    for (u, v), m in sorted(g.mult.items(), reverse=True):
        succ[u].append([v, m])
    return succ


def eulerian_expand(
    g: DirectedMultigraph, start: int, limit: int = 10**6
) -> tuple[int, ...]:
    """Expand a valid tour edge set into a closed walk from `start`.

    The walk visits every vertex its degree's worth of times and uses each
    edge exactly its multiplicity; its length equals the total multiplicity
    (the final return to `start` is implied, not repeated).  Hierholzer's
    splicing is iterative, so deep detours cannot overflow the stack.
    """
    if not 0 <= start < g.n:
        raise ValueError(f"start {start} outside 0..{g.n - 1}")
    check_tour_edgeset(g)
    total = g.total_multiplicity()
    if total > limit:
        raise ExpansionLimitExceeded(total, limit)

    succ = _successors(g)
    trail: list[int] = []
    stack = [start]
    while stack:
        lst = succ[stack[-1]]
        if lst:
            arc = lst[-1]
            arc[1] -= 1
            if not arc[1]:
                lst.pop()
            stack.append(arc[0])
        else:
            trail.append(stack.pop())
    trail.reverse()
    if len(trail) != total + 1 or trail[0] != start or trail[-1] != start:
        raise AssertionError("splicing failed on a validated edge set")
    return tuple(trail[:-1])


def cycle_certificate(
    g: DirectedMultigraph,
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Decompose a balanced multigraph into simple cycles with counts.

    Returns ((cycle_vertices, count), ...) where each cycle is listed once
    with the number of times it is peeled; the weighted union of all cycles
    equals the edge multiset exactly.  Greedy peeling removes at least one
    distinct edge per cycle, so the list is never longer than the number of
    distinct edges.  Connectivity is not required.
    """
    check_balanced(g)
    succ = _successors(g)
    cycles: list[tuple[tuple[int, ...], int]] = []
    for v0 in range(g.n):
        while succ[v0]:
            # Follow smallest live targets until a vertex repeats; balance
            # guarantees every vertex entered has a live out-arc.
            path = [v0]
            seen = {v0: 0}
            while (nxt := succ[path[-1]][-1][0]) not in seen:
                seen[nxt] = len(path)
                path.append(nxt)
            cycle = path[seen[nxt] :]
            count = min(succ[u][-1][1] for u in cycle)
            for u in cycle:
                arc = succ[u][-1]
                arc[1] -= count
                if not arc[1]:
                    succ[u].pop()
            low = cycle.index(min(cycle))
            cycles.append((tuple(cycle[low:] + cycle[:low]), count))
            if len(cycles) > len(g.mult):
                raise AssertionError("peeling failed on a balanced multigraph")
    return tuple(cycles)
