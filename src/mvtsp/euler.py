"""Turning balanced edge multisets into walks, and compact cycle summaries.

A valid tour edge set always admits a closed walk using every edge exactly
as often as its multiplicity.  `walk_runs` returns that walk run-length
encoded, as a few `(block, reps)` runs whose number does not grow with the
visit count.  `eulerian_expand` materializes it; walks are as long as the
total visit count, so past a size limit (`WALK_LIMIT` by default) it
raises ValueError, as it does for any other bad input.
`cycle_certificate` gives a compact proof of the same structure: a list of
simple cycles with counts whose weighted union is the edge multiset, never
longer than the number of distinct edges.

`walk_runs` and `cycle_certificate` run on successor stacks from
`_successors`: for each vertex, its live out-arcs as
`[target, multiplicity left]`, largest target first.  The last entry is
always the smallest live target; an entry is popped the moment its count
reaches 0, so neither routine skips or searches for an arc.  Both follow
smallest live targets until the path closes a simple cycle (`_trace`),
then use that cycle as often as its arcs allow (`_use`), so each peel
exhausts an arc and neither routine's step count grows with the
multiplicities.  The smallest-target rule fixes the walk and the cycle
list for a given edge multiset.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Sequence

from .core import DirectedMultigraph, Edge, check_balanced, check_tour_edgeset

#: The longest walk `eulerian_expand` materializes unless told otherwise;
#: `SolverConfig.expansion_threshold` defaults to it too.
WALK_LIMIT = 10**6


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


def _trace(succ: list[list[list[int]]], v: int) -> tuple[list[int], int]:
    """Follow smallest live targets from `v`, using nothing up, until the
    path closes a simple cycle; return the path and the index it closes
    on, or -1 if it ends at a vertex without a live out-arc."""
    path = [v]
    seen = {v: 0}
    while lst := succ[path[-1]]:
        w = lst[-1][0]
        if w in seen:
            return path, seen[w]
        seen[w] = len(path)
        path.append(w)
    return path, -1


def _use(succ: list[list[list[int]]], verts: list[int], count: int = 0) -> int:
    """Take `count` from the smallest live out-arc of each vertex in `verts`,
    by default as much as all of them hold, and return it."""
    count = count or min(succ[u][-1][1] for u in verts)
    for u in verts:
        arc = succ[u][-1]
        arc[1] -= count
        if not arc[1]:
            succ[u].pop()
    return count


def walk_runs(
    g: DirectedMultigraph, start: int
) -> list[tuple[list[int], int]]:
    """The closed walk from `start` over a valid tour edge set, as runs.

    Each run is a `(block, reps)` pair, a non-empty vertex list repeated
    `reps` times; the runs in order spell the walk that `eulerian_expand`
    returns, then the return to `start` that closes it.  It is the walk
    Hierholzer's splicing builds when it always steps to the smallest live
    target: the stack and the trail hold runs, and each simple cycle the
    path closes is repeated as often as its arcs allow in one step.  That
    step, like each excursion, exhausts an arc, so the loop is O(n) per
    distinct arc and the number of runs does not grow with the
    multiplicities.

    Raises ValueError on a bad start or edge set.
    """
    if not 0 <= start < g.n:
        raise ValueError(f"start {start} outside 0..{g.n - 1}")
    check_tour_edgeset(g)
    succ = _successors(g)
    stack: list[tuple[list[int], int]] = [([start], 1)]
    trail: list[tuple[list[int], int]] = []
    while stack:
        block, reps = stack.pop()
        j = len(block) - 1
        while j >= 0 and not succ[block[j]]:
            j -= 1
        if j < 0:
            trail.append((block, reps))
            continue
        # Split at the topmost live vertex, block[j].  An excursion ends only
        # once its vertex is dead, so by the time the lower repetitions are
        # on top again, all their vertices are.
        trail.append((block[j + 1 :], 1))
        if reps > 1:
            stack.append((block, reps - 1))
        stack.append((block[: j + 1], 1))
        v = block[j]
        while succ[v]:
            path, i = _trace(succ, v)
            end = i if i >= 0 else len(path) - 1
            _use(succ, path[:end], 1)
            stack.append((path[1 : end + 1], 1))
            if i < 0:
                break
            v = path[i]
            stack.append((path[i + 1 :] + [v], _use(succ, path[i:])))
    return [(block, reps) for block, reps in reversed(trail) if block]


def eulerian_expand(
    g: DirectedMultigraph, start: int, limit: int = WALK_LIMIT
) -> tuple[int, ...]:
    """Expand a valid tour edge set into a closed walk from `start`.

    The walk visits every vertex its degree's worth of times and uses each
    edge exactly its multiplicity; its length equals the total multiplicity
    (the final return to `start` is implied, not repeated).  It is
    `walk_runs` spelled out; only that concatenation, which runs in C,
    grows with the walk.

    Raises ValueError on a bad start or edge set, or a walk past `limit`.
    """
    runs = walk_runs(g, start)
    total = g.total_multiplicity()
    if total > limit:
        raise ValueError(f"walk of length {total} exceeds the limit {limit}")
    # Element by element: materializing each `block * reps` first costs
    # more peak memory than the stepwise splice did.
    blocks = (repeat(block, reps) for block, reps in runs)
    walk = list(chain.from_iterable(chain.from_iterable(blocks)))
    if len(walk) != total + 1 or walk[0] != start or walk[-1] != start:
        raise AssertionError("splicing failed on a validated edge set")
    walk.pop()
    return tuple(walk)


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
            # Balance guarantees every vertex entered has a live out-arc.
            path, i = _trace(succ, v0)
            cycle = path[i:]
            count = _use(succ, cycle)
            low = cycle.index(min(cycle))
            cycles.append((tuple(cycle[low:] + cycle[:low]), count))
            if len(cycles) > len(g.mult):
                raise AssertionError("peeling failed on a balanced multigraph")
    return tuple(cycles)
