"""Directed spanning trees: enumeration, extraction, balanced partitions.

Trees are always directed away from their root.  The enumeration works on a
degree profile (an outdegree tuple over the cities 0..n-1 plus the root;
indegrees are implied) and repeatedly attaches the lowest-index unattached
leaf to every admissible parent in index order; a parent is admissible
while it has outdegree left, and the root only while it has two, since its
last edge goes to the last unattached vertex.  That rule is what makes
every emitted edge set a tree.  The cheapest tree of a profile comes
from `mvtsp.opttree`, which returns None instead of a tree when every tree
of the profile has infinite cost.

`perfectly_balanced_partition` splits an undirected tree into sides of at
most ceil(m/2) vertices whose crossing edges all touch at most ceil(log2 m)
boundary vertices.  It is the constructive witness behind the boundary cap
of the `dc2` tree solver: every tree has such a split, so restricting the
recursion to them loses no optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from types import MappingProxyType
from typing import Iterator, Mapping

from .core import INF, Cost, DirectedMultigraph, Instance, check_tour_edgeset
from .degseq import checked_profile


@dataclass(frozen=True)
class DirectedTree:
    """A tree directed away from `root`, stored as a child-to-parent map.

    The root has no entry in `parent`.  Vertices are whatever labels the
    parent map mentions; for whole-instance trees that is 0..n-1.
    """

    root: int
    parent: Mapping[int, int]

    def __post_init__(self) -> None:
        parent = dict(self.parent)
        if self.root in parent:
            raise ValueError("root cannot have a parent")
        vertices = set(parent) | {self.root}
        for child, par in parent.items():
            if par not in vertices:
                raise ValueError(f"parent {par} of {child} is not a tree vertex")
        # Every chain must reach the root without revisiting a vertex.
        ok: set[int] = {self.root}
        for child in parent:
            chain = []
            v = child
            while v not in ok:
                chain.append(v)
                if v not in parent or len(chain) > len(parent):
                    raise ValueError(f"vertex {child} is not connected to the root")
                v = parent[v]
            ok.update(chain)
        object.__setattr__(self, "parent", MappingProxyType(parent))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.parent) | {self.root}))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All (parent, child) pairs, sorted by child."""
        return tuple((self.parent[c], c) for c in sorted(self.parent))

    def out_degree(self, v: int) -> int:
        return sum(1 for p in self.parent.values() if p == v)

    def as_multigraph(self, n: int) -> DirectedMultigraph:
        counts: dict[tuple[int, int], int] = {}
        for p, c in self.edges():
            counts[(p, c)] = counts.get((p, c), 0) + 1
        return DirectedMultigraph(n, counts)


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
# balanced partitions of undirected trees


def _undirected_adjacency(tree: DirectedTree) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in tree.vertices}
    for p, c in tree.edges():
        adj[p].append(c)
        adj[c].append(p)
    for lst in adj.values():
        lst.sort()
    return adj


def _centroid(adj: Mapping[int, list[int]], verts: set[int]) -> int:
    """Centroid of the induced subtree on `verts`: the vertex minimizing the
    largest component left after its removal (ties to the smallest index)."""
    start = min(verts)
    order = [start]
    parent = {start: None}
    for v in order:
        for w in adj[v]:
            if w in verts and w not in parent:
                parent[w] = v
                order.append(w)
    size = {v: 1 for v in order}
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    total = len(order)
    best = None
    for v in order:
        heaviest = total - size[v]
        for w in adj[v]:
            if w in verts and parent.get(w) == v:
                heaviest = max(heaviest, size[w])
        key = (heaviest, v)
        if best is None or key < best:
            best = key
    return best[1]


def _component(
    adj: Mapping[int, list[int]], verts: set[int], start: int, banned: set[int]
) -> set[int]:
    comp = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w in verts and w not in banned and w not in comp:
                comp.add(w)
                frontier.append(w)
    return comp


def _components_around(
    adj: Mapping[int, list[int]], verts: set[int], center: int
) -> list[set[int]]:
    """Components of the induced subtree after removing `center`, sorted by
    decreasing size with ties to the smallest contained vertex."""
    comps = []
    claimed: set[int] = set()
    for nb in adj[center]:
        if nb in verts and nb not in claimed:
            comp = _component(adj, verts, nb, {center})
            comps.append(comp)
            claimed |= comp
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def _tree_path(
    adj: Mapping[int, list[int]], verts: set[int], a: int, b: int
) -> list[int]:
    parent = {a: None}
    frontier = [a]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in adj[v]:
                if w in verts and w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def perfectly_balanced_partition(tree: DirectedTree) -> BalancedPartition:
    """Split a tree into sides of size at most ceil(n/2), with all crossing
    edges covered by at most ceil(log2 n) boundary vertices in `v1`.

    Starting from the whole centroid split, the search walks into the last
    moved subtree whenever the far side overshoots, peeling path vertices
    and their hanging subtrees back to the near side; a single-vertex move
    can never overshoot, so the first time the sides fit the bound the
    current walk vertex closes the boundary.
    """
    verts = set(tree.vertices)
    n = len(verts)
    if n < 2:
        raise ValueError("partition needs at least two vertices")
    adj = _undirected_adjacency(tree)
    target = ceil(n / 2)
    far: set[int] = set()
    boundary: list[int] = []

    def balanced() -> bool:
        return max(len(far), n - len(far)) <= target

    def result() -> BalancedPartition:
        return BalancedPartition(
            frozenset(verts - far), frozenset(far), tuple(boundary)
        )

    c = _centroid(adj, verts)
    boundary.append(c)
    sub: set[int] | None = None
    for comp in _components_around(adj, verts, c):
        far |= comp
        if balanced():
            return result()
        if len(far) >= n - len(far):
            sub = set(comp)
            break
    if sub is None:
        raise AssertionError("centroid pass left the far side in minority")

    for _ in range(n):
        anchor = boundary[-1]
        vstar = _centroid(adj, sub)
        walk = _tree_path(adj, sub | {anchor}, anchor, vstar)[1:]
        descended = False
        for q in walk:
            far.discard(q)
            sub.discard(q)
            if balanced():
                boundary.append(q)
                return result()
            hanging = []
            main: set[int] | None = None
            for comp in _components_around(adj, sub | {q}, q):
                if vstar in comp:
                    main = comp
                else:
                    hanging.append(comp)
            for branch in hanging:
                far -= branch
                sub -= branch
                if balanced():
                    boundary.append(q)
                    return result()
                if n - len(far) >= len(far):
                    # Overshot: the near side took the majority without
                    # hitting balance.  Put the branch back and recurse on it.
                    far |= branch
                    sub |= branch
                    boundary.append(q)
                    sub = set(branch)
                    descended = True
                    break
            if descended:
                break
            if main is None and q != vstar:
                raise AssertionError("walk lost the centroid branch")
        if not descended:
            raise AssertionError("balance walk exhausted a subtree")
    raise AssertionError("balance descent failed to terminate")
