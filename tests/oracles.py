"""Exhaustive references the solver is checked against; no solve runs them.

- `enumerate_trees` lists every tree of a degree profile with its cost.
  It repeatedly attaches the lowest-index unattached leaf to every
  admissible parent in index order; a parent is admissible while it has
  outdegree left, and the root only while it has two, since its last edge
  goes to the last unattached vertex.  That rule is what makes every
  emitted edge set a tree.  The `dp` recurrence tries parents in the same
  order and keeps the first cheapest, so the first cheapest tree listed
  here is the one `dp` (and `dc2` up to six cities) returns.
- `perfectly_balanced_partition` splits a tree into sides of at most
  ceil(m/2) vertices whose crossing edges all leave at most floor(log2 m)
  boundary vertices on the root's side, which stays connected.  It is the
  constructive witness behind the boundary cap of the `dc2` tree solver:
  its split is one `dc2` enumerates with the root on the near side
  whenever the boundary also fits `dc2`'s cap of s1 - 2 (s1 the near
  side's size), which holds at m = 7 and from m = 9 on, so restricting the
  recursion to such splits loses no optimum there.  At m = 8 the witness
  can miss that cap; `test_opttree.py::test_every_tree_has_a_split_dc2_tries`
  checks over every rooted tree shape that some root-near split fits it
  from m = 7 on.  At m = 6 one shape has none, so `dc2` leaves six slots
  to the `dp` recurrence.
- `extract_spanning_tree` reads a spanning tree out of a tour edge set,
  and `is_valid_tour_edgeset` checks an edge set against the quotas.
- `min_tree_dp` is the one-profile form of `DpTreeSolver`, with the
  `(tree, cost)` signature of `min_tree_dc2`.
- `brute_psaraftis` finds the optimal tour cost by Psaraftis's dynamic
  program over (remaining visit vector, current city) states, and
  `brute_permutation` by scanning every distinct visit order; neither
  shares code with the profile sweep.  `_psaraftis_walk` and
  `_permutation_walk` also return an optimal walk from a given start.
- `splice_walk` is Hierholzer's splicing one arc per step, always to the
  smallest live target: the walk `eulerian_expand` returns, built the
  slow way.
- `count_feasible` counts the feasible outdegree profiles on n vertices in
  closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Iterator

from mvtsp import (
    INF,
    Cost,
    DirectedMultigraph,
    DirectedTree,
    DpTreeSolver,
    Instance,
    undirected_connected,
)
from mvtsp.core import check_tour_edgeset
from mvtsp.degseq import checked_profile, compositions
from mvtsp.euler import _successors


def min_tree_dp(
    dout: tuple[int, ...], root: int, inst: Instance
) -> tuple[DirectedTree | None, Cost]:
    solver = DpTreeSolver(inst, root)
    return solver.tree(dout), solver.solve(dout)


def is_valid_tour_edgeset(g: DirectedMultigraph, inst: Instance) -> bool:
    """Check the tour characterization: out- and in-degree of every vertex
    equal its visit quota, and the underlying undirected graph is connected.

    For n == 1 connectivity is vacuous, so k_0 self-loops qualify.
    """
    if g.n != inst.n:
        return False
    for v in range(inst.n):
        if g.out_degree(v) != inst.k[v] or g.in_degree(v) != inst.k[v]:
            return False
    return undirected_connected(inst.n, g.mult.keys())


# ---------------------------------------------------------------------------
# tree enumeration


def _realizations(
    dout: tuple[int, ...], root: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield the edge tuples of all trees over slots 0..m-1 directed away
    from `root` with outdegrees `dout`, a profile `is_feasible` accepts.

    `free` is the bitmask of non-root slots still without a parent and
    `dout` the outdegrees left.
    """
    m = len(dout)

    def attach(free: int, dout, edges) -> Iterator[tuple[tuple[int, int], ...]]:
        if free.bit_count() == 1:
            yield edges + ((root, free.bit_length() - 1),)
            return
        leaf = next(s for s in range(m) if (free >> s) & 1 and dout[s] == 0)
        rest = free ^ (1 << leaf)
        for par in range(m):
            if par == leaf or dout[par] < 1 + (par == root):
                continue
            yield from attach(
                rest,
                dout[:par] + (dout[par] - 1,) + dout[par + 1 :],
                edges + ((par, leaf),),
            )

    yield from attach(((1 << m) - 1) ^ (1 << root), dout, ())


def enumerate_trees(
    dout: tuple[int, ...], root: int, inst: Instance
) -> Iterator[tuple[DirectedTree, Cost]]:
    """Yield every tree directed away from `root` over the instance's cities
    with outdegrees `dout`, with its cost, in the deterministic order of the
    leaf-attachment recursion."""
    dout = checked_profile(dout, inst.n, root)
    if inst.n == 1:
        yield DirectedTree(root, {}), 0
        return
    for edges in _realizations(dout, root):
        cost: Cost = 0
        for p, c in edges:
            d = inst.cost[p][c]
            if d == INF:
                cost = INF
                break
            cost += d
        yield DirectedTree(root, {c: p for p, c in edges}), cost


def extract_spanning_tree(g: DirectedMultigraph, root: int) -> DirectedTree:
    """Extract a spanning tree directed away from `root` from a valid tour
    edge set, by breadth-first search with smallest-index parents.

    Rejects inputs that are not balanced and connected with every vertex
    covered (such multigraphs support no tour for any quota vector).
    """
    n = g.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} outside 0..{n - 1}")
    check_tour_edgeset(g)
    targets: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in g.mult:
        if u != v:
            targets[u].append(v)
    for lst in targets:
        lst.sort()
    parent: dict[int, int] = {}
    visited = {root}
    layer = [root]
    while layer:
        next_layer: list[int] = []
        for u in sorted(layer):
            for v in targets[u]:
                if v not in visited:
                    visited.add(v)
                    parent[v] = u
                    next_layer.append(v)
        layer = next_layer
    if len(visited) != n:
        # Balanced + connected implies strong connectivity, so this branch
        # would mean the validation above is wrong.
        raise AssertionError("directed search failed to span a valid edge set")
    return DirectedTree(root, parent)


# ---------------------------------------------------------------------------
# balanced partitions


@dataclass(frozen=True)
class BalancedPartition:
    """A two-sided split of a tree's vertices with its boundary vertices.

    Every tree edge with one endpoint per side touches a boundary vertex,
    and all boundary vertices lie in `v1`.
    """

    v1: frozenset[int]
    v2: frozenset[int]
    boundary: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.v1 & self.v2:
            raise ValueError("sides overlap")
        if not self.v1 or not self.v2:
            raise ValueError("both sides must be nonempty")
        if not set(self.boundary) <= self.v1:
            raise ValueError("boundary vertices must lie in v1")


def perfectly_balanced_partition(tree: DirectedTree) -> BalancedPartition:
    """Split a tree into sides of size at most ceil(n/2), with all crossing
    edges covered by at most floor(log2 n) boundary vertices in `v1`.

    One descent from the root, with `need = n // 2` vertices still to move
    into `v2`: each vertex on the way moves its children's whole subtrees,
    largest first with ties to the smaller label, while each fits in
    `need`, and the descent enters the first child that does not fit.  A
    vertex that moved a subtree is a boundary vertex.  Each but the last
    moves more than it leaves in `need`, so there are at most floor(log2 n)
    of them.  Every crossing edge joins a boundary vertex to a moved
    subtree's root, and `v1` keeps every ancestor of its vertices, so it
    holds the root and is connected.
    """
    n = len(tree.vertices)
    if n < 2:
        raise ValueError("partition needs at least two vertices")
    children: dict[int, list[int]] = {v: [] for v in tree.vertices}
    for p, c in tree.edges():
        children[p].append(c)
    order = [tree.root]
    for v in order:
        order.extend(children[v])
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[tree.parent[v]] += size[v]
    need = n // 2
    moved: list[int] = []
    boundary: list[int] = []
    v = tree.root
    while need:
        before = len(moved)
        for c in sorted(children[v], key=lambda u: (-size[u], u)):
            if size[c] > need:
                break
            moved.append(c)
            need -= size[c]
        if len(moved) > before:
            boundary.append(v)
        v = c  # the first child that did not fit, unless need is now 0
    for u in moved:
        moved.extend(children[u])
    far = frozenset(moved)
    return BalancedPartition(frozenset(order) - far, far, tuple(boundary))


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


def count_feasible(n: int) -> int:
    """Number of feasible outdegree vectors on n vertices, in closed form."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return 1
    return comb(2 * n - 3, n - 1)


def splice_walk(g: DirectedMultigraph, start: int) -> tuple[int, ...]:
    """The closed walk from `start` that `eulerian_expand` returns, spliced
    one arc per step; `g` must be a valid tour edge set."""
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
    return tuple(trail[:-1])
