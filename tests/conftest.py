"""Shared builders and reference oracles for the test suite.

The oracles here are deliberately naive (exhaustive enumeration) so they can
anchor the clever implementations: transport_brute enumerates every integer
flow matrix with the requested margins, random_tree draws uniformly via
Prufer decoding (prufer_tree), rooted_shapes lists every rooted tree shape
once, and closed_walk_multigraph builds balanced connected multigraphs from
literal closed walks.
"""

import functools
import heapq
import random

from mvtsp import (
    INF,
    DirectedMultigraph,
    DirectedTree,
    TransportProblem,
    TransportSolution,
)


def rand_cost(n, rng, hi=20, inf_prob=0.0):
    """Random cost matrix as nested tuples; no feasibility guarantee."""
    return tuple(
        tuple(
            INF if rng.random() < inf_prob else rng.randint(0, hi)
            for _ in range(n)
        )
        for _ in range(n)
    )


def _bounded_compositions(total, bounds):
    """All nonnegative integer vectors summing to total with x[j] <= bounds[j]."""
    if not bounds:
        if total == 0:
            yield ()
        return
    head = bounds[0]
    for x in range(min(total, head) + 1):
        for rest in _bounded_compositions(total - x, bounds[1:]):
            yield (x,) + rest


def transport_brute(prob: TransportProblem):
    """Minimum transport cost by exhausting flow matrices, or None.

    Arcs with infinite cost are unusable; None means every matrix with the
    given margins needs one.
    """
    n = len(prob.supply)
    best = None

    def rows(i, rem, acc):
        nonlocal best
        if best is not None and acc >= best:
            return
        if i == n:
            if best is None or acc < best:
                best = acc
            return
        bounds = tuple(
            0 if prob.cost[i][j] == INF else rem[j] for j in range(n)
        )
        for x in _bounded_compositions(prob.supply[i], bounds):
            extra = sum(x[j] * prob.cost[i][j] for j in range(n) if x[j])
            rows(
                i + 1,
                tuple(rem[j] - x[j] for j in range(n)),
                acc + extra,
            )

    rows(0, tuple(prob.demand), 0)
    return best


def check_duals(prob: TransportProblem, sol: TransportSolution):
    """Assert margins, cost consistency, dual feasibility and slackness."""
    n = len(prob.supply)
    flow = dict(sol.flow.mult)
    for i in range(n):
        assert sol.flow.out_degree(i) == prob.supply[i]
        assert sol.flow.in_degree(i) == prob.demand[i]
    total = 0
    for (i, j), units in flow.items():
        assert units > 0
        assert prob.cost[i][j] != INF
        total += units * prob.cost[i][j]
    assert total == sol.cost
    for i in range(n):
        for j in range(n):
            if prob.cost[i][j] == INF:
                continue
            reduced = prob.cost[i][j] - sol.pi_source[i] + sol.pi_sink[j]
            assert reduced >= 0, f"negative reduced cost on {i}->{j}"
            if flow.get((i, j), 0) > 0:
                assert reduced == 0, f"slack arc {i}->{j} carries flow"


def random_tree(n, rng: random.Random) -> DirectedTree:
    """Uniform labeled tree (Prufer decode), directed away from root 0."""
    if n == 1:
        return DirectedTree(0, {})
    return prufer_tree([rng.randrange(n) for _ in range(n - 2)], 0)


def prufer_tree(seq, root) -> DirectedTree:
    """The labeled tree on len(seq) + 2 vertices with Prufer sequence `seq`,
    directed away from `root`."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    undirected = {v: set() for v in range(n)}
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        undirected[leaf].add(v)
        undirected[v].add(leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    undirected[a].add(b)
    undirected[b].add(a)
    parent = {}
    seen = {root}
    queue = [root]
    while queue:
        u = queue.pop()
        for w in undirected[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                queue.append(w)
    return DirectedTree(root, parent)


@functools.cache
def _shapes(m):
    """Every rooted tree shape on m vertices, once each: a shape is the
    tuple of its root's child shapes, listed in a fixed canonical order."""
    if m == 1:
        return ((),)
    catalog = [(s, kid) for s in range(1, m) for kid in _shapes(s)]
    out = []

    def grow(rest, start, kids):
        # Children are drawn from `catalog` at nondecreasing positions, so
        # each multiset of child shapes is built exactly once.
        if rest == 0:
            out.append(tuple(kids))
            return
        for j in range(start, len(catalog)):
            size, kid = catalog[j]
            if size > rest:
                break
            grow(rest - size, j, kids + [kid])

    grow(m - 1, 0, [])
    return tuple(out)


def rooted_shapes(m):
    """Every rooted tree shape on m vertices, once each, as a DirectedTree
    rooted at 0 whose vertices are numbered in the order they are placed."""
    for shape in _shapes(m):
        parent = {}
        stack = [(0, shape)]
        while stack:
            v, kids = stack.pop()
            for kid in kids:
                child = len(parent) + 1
                parent[child] = v
                stack.append((child, kid))
        yield DirectedTree(0, parent)


def closed_walk_multigraph(n, rng: random.Random, extra=4) -> DirectedMultigraph:
    """Balanced connected multigraph induced by a random closed walk that
    visits every vertex (consecutive repeats become self-loops)."""
    walk = list(range(n))
    rng.shuffle(walk)
    walk.extend(rng.randrange(n) for _ in range(extra))
    mult = {}
    for t in range(len(walk)):
        arc = (walk[t], walk[(t + 1) % len(walk)])
        mult[arc] = mult.get(arc, 0) + 1
    return DirectedMultigraph(n, mult)
