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

`perfectly_balanced_partition` splits a tree into sides of at most
ceil(m/2) vertices whose crossing edges all leave at most floor(log2 m)
boundary vertices on the root's side, which stays connected.  It is the
constructive witness behind the boundary cap of the `dc2` tree solver:
its split is one `dc2` enumerates with the root on the near side whenever
the boundary also fits `dc2`'s cap of s1 - 2 (s1 the near side's size),
which holds at m = 7 and from m = 9 on, so restricting the recursion to
such splits loses no optimum there.  At m = 6 and 8 the witness can miss
that cap, and `dc2` may need a split with the root far;
`test_opttree.py::test_every_tree_has_a_split_dc2_tries` checks by brute
force that one always exists.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# balanced partitions


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
