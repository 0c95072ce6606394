"""Cheapest directed spanning tree for a fixed degree profile.

A profile is an outdegree tuple `dout` over the cities 0..n-1 plus the
root (indegrees are implied: zero at the root, one elsewhere); find a
minimum-cost tree realizing it.  Two exact strategies with different
space/time trade-offs:

- `DpTreeSolver`: dynamic programming over the outdegrees left, removing
  one leaf at a time.  States recur across degree profiles, so it keeps
  one shared memo for a whole sweep of profiles at a fixed root.
- `min_tree_dc2`: divide and conquer over splits with the root on the
  near side, both sides at most ceil(m/2) and up to ceil(log2 m) boundary
  vertices.  A split is described by its take vector, the number of edges
  each near vertex sends across it; the boundary is the vertices that send
  any.  The far side sees one alias per boundary vertex, glued into a
  single tree problem by a zero-cost virtual hub whose edges are dropped
  when the halves are merged.  Pieces of at most `_DC2_BASE` slots are
  solved by the `dp` recurrence on a memo dropped on return, so no memo
  outlives a leaf: its point is memory polynomial in n.

A profile with no finite-cost tree gets None from `DpTreeSolver.tree` and
(None, inf) from `min_tree_dc2`.  `min_tree_dc2` also takes an exclusive
upper bound `ub`, which its branch and bound starts from; (None, inf) then
means "no tree below `ub`", and any answer below it is the one an
unbounded search gives.
A sweep passes the incumbent total less a lower bound on the profile's
transport completion.  In a sweep only the winning profile needs its tree:
`DpTreeSolver.solve` returns the cost alone and `DpTreeSolver.tree` reads
the tree back from the memo, while `dc2` keeps the tree its recursion
builds anyway.  Every public entry point raises ValueError on a profile
that `is_feasible` rejects or that does not span the instance, and every
tree either backend returns has passed the same check: one parent for each
non-root vertex, and the profile's outdegrees.
"""

from __future__ import annotations

from .core import INF, Cost, Instance
from .degseq import checked_profile, compositions
from .trees import DirectedTree

#: Largest subproblem the boundary-set scheme hands to the `dp` recurrence.
#: From seven vertices on, every tree has a balanced split with the root on
#: its near side whose far side (real remainder + hub + aliases) is strictly
#: smaller, so above this size the recursion both shrinks and stays
#: complete.  One six-vertex shape has no such split.
#: `test_opttree.py::test_every_tree_has_a_split_dc2_tries` checks
#: both claims over every rooted tree shape.
_DC2_BASE = 6

#: A solved subproblem: ((parent, child) edges in its own slots, total cost),
#: or None when no tree costs less than its bound.
Result = tuple[tuple[tuple[int, int], ...], Cost] | None


def _submatrix(dist, idxs) -> tuple[tuple[Cost, ...], ...]:
    return tuple(tuple(dist[a][b] for b in idxs) for a in idxs)


def _checked_tree(dout, root: int, edges) -> DirectedTree:
    """Build the tree on (parent, child) `edges`, checking that every
    non-root vertex gets exactly one parent and that the outdegrees are
    `dout`."""
    n = len(dout)
    parent = {c: p for p, c in edges}
    if len(edges) != n - 1 or parent.keys() != set(range(n)) - {root}:
        raise AssertionError("tree edges do not give each vertex one parent")
    tree = DirectedTree(root, parent)
    for v, d in enumerate(dout):
        if tree.out_degree(v) != d:
            raise AssertionError("tree does not realize the profile")
    return tree


# ---------------------------------------------------------------------------
# dynamic programming

# The one recurrence behind `dp` and the `dc2` leaves.  A state is the
# outdegree tuple `dout` left, in which a vertex already removed as a leaf
# holds -1; the memo maps it to (cheapest cost, parent of its leaf).
# `left` counts the non-root vertices still in the tree, which is also the
# sum of the non-negative entries of `dout`; it follows from `dout`, so it
# is not part of the key.  The only base case is `left == 0`, at cost 0.
# The leaf is `dout.index(0)`, the lowest-index non-root vertex with no
# outdegree left, because the root keeps an out-edge while any other vertex
# is left: it starts with one (`checked_profile` at each entry point,
# `dc2`'s near side keeping one root edge, its hub sending k >= 1), and the
# recurrence takes the root's last edge only at `left == 1`, where the root
# holds the one edge left and is the only parent.  Parents are tried in
# index order, keeping the first cheapest: `enumerate_trees` in
# `tests/oracles.py` lists trees in the same order, so both settle ties on
# the same tree.


def _dp_value(
    d, root: int, memo: dict, dout: tuple[int, ...], left: int
) -> Cost:
    if left == 0:
        return 0
    hit = memo.get(dout)
    if hit is not None:
        return hit[0]
    leaf = dout.index(0)
    rest = list(dout)
    rest[leaf] = -1
    best: Cost = INF
    best_par = -1
    for par, k in enumerate(rest):
        if k <= 0 or (par == root and k == 1 and left > 1):
            continue
        w = d[par][leaf]
        if w == INF:
            continue
        rest[par] = k - 1
        total = w + _dp_value(d, root, memo, tuple(rest), left - 1)
        rest[par] = k
        if total < best:
            best = total
            best_par = par
    memo[dout] = (best, best_par)
    return best


def _dp_edges(memo: dict, dout: tuple[int, ...]) -> list[tuple[int, int]]:
    """(parent, child) edges of the tree behind a finite `_dp_value` of the
    whole profile `dout`, read back from its memo in attachment order."""
    edges = []
    for _ in range(len(dout) - 1):
        leaf = dout.index(0)
        par = memo[dout][1]
        edges.append((par, leaf))
        rest = list(dout)
        rest[leaf] = -1
        rest[par] -= 1
        dout = tuple(rest)
    return edges


class DpTreeSolver:
    """Shared-memo optimal-tree solver for many degree profiles at one root.

    The memo is keyed by the outdegree tuple left, with -1 at each vertex
    already removed as a leaf; profiles sweep overlapping state spaces, so
    reusing one solver across a whole enumeration computes every state at
    most once.  `solve` returns only the cheapest cost; `tree` reads the
    tree behind it back from the memo, so a sweep builds a tree for its
    winning profile alone.
    """

    def __init__(self, inst: Instance, root: int) -> None:
        if not 0 <= root < inst.n:
            raise ValueError(f"root {root} outside 0..{inst.n - 1}")
        self.n = inst.n
        self.root = root
        self.d = inst.cost
        self.memo: dict[tuple[int, ...], tuple[Cost, int]] = {}

    def solve(self, dout: tuple[int, ...]) -> Cost:
        """Cheapest cost of a tree realizing `dout`; inf if none is finite."""
        dout = checked_profile(dout, self.n, self.root)
        return _dp_value(self.d, self.root, self.memo, dout, len(dout) - 1)

    def tree(self, dout: tuple[int, ...]) -> DirectedTree | None:
        """The cheapest tree realizing `dout`, or None when none is finite."""
        dout = checked_profile(dout, self.n, self.root)
        if _dp_value(self.d, self.root, self.memo, dout, len(dout) - 1) == INF:
            return None
        edges = _dp_edges(self.memo, dout)
        return _checked_tree(dout, self.root, edges)


# ---------------------------------------------------------------------------
# divide and conquer, boundary sets and virtual hub

# A subproblem is (dout, root, dist) over its own slots 0..m-1, with `dist`
# its distance matrix, and its tree comes back in those slots: a split maps
# each side's edges back through the list of slots that built the side.
# The recursion prunes by cost: a call carries an exclusive upper bound and
# returns the cheapest tree strictly below it, or None.  A non-None return
# is therefore the exact optimum; a None return only certifies "nothing
# below the bound".


def _lower_bound(dout, root: int, dist) -> Cost:
    """Admissible bound: each out-edge costs at least its row's cheapest
    off-diagonal arc, each in-edge its column's; take the larger total."""
    m = len(dout)
    out_total: Cost = 0
    in_total: Cost = 0
    for s in range(m):
        if dout[s]:
            lo = min((dist[s][t] for t in range(m) if t != s), default=INF)
            if lo == INF:
                return INF
            out_total += lo * dout[s]
        if s != root:
            lo = min((dist[t][s] for t in range(m) if t != s), default=INF)
            if lo == INF:
                return INF
            in_total += lo
    return max(out_total, in_total)


def _hub_side(
    dist, far: list[int], bnd: list[int]
) -> tuple[tuple[Cost, ...], ...]:
    """Distance matrix of the far side, whose slots are its real vertices,
    then the hub, then one alias per boundary vertex.

    The hub roots the far side and pins the intended wiring: an alias can
    take its in-edge only from the hub, the hub sends edges to aliases
    only, and every other arc into a hub or alias is infinite.  Any
    finite-cost tree on this matrix therefore uses the hub edges exactly as
    the merge assumes, at zero cost.
    """
    k = len(bnd)

    def row(v: int) -> tuple[Cost, ...]:  # a real vertex's or an alias's
        return tuple(dist[v][w] for w in far) + (INF,) * (1 + k)

    hub = (INF,) * (len(far) + 1) + (0,) * k
    return tuple(map(row, far)) + (hub,) + tuple(map(row, bnd))


def _solve_dc2(dout: tuple[int, ...], root: int, dist, ub: Cost) -> Result:
    """Boundary-set recursion on balanced halves.

    Every split keeps the root on its near side and is required to shrink
    both children: the near side has at most ceil(m/2) slots, and the far
    side (s2 real slots + hub + k aliases) stays below m because k is
    capped at s1 - 2.  Once m >= 7 every tree has a balanced, connected,
    root-near side with that small a boundary, and pieces of at most six
    slots are solved exactly by the `dp` recurrence, so the cap loses no
    optimum.

    Candidates are tried split by split (near-side bitmask ascending), then
    by take vector in lexicographic order; a candidate replaces the
    incumbent only when strictly cheaper.  The take vector's caps leave the
    root an edge inside the near side, so both sides' profiles are feasible
    by construction.
    """
    m = len(dout)
    if m <= _DC2_BASE:
        memo: dict = {}
        cost = _dp_value(dist, root, memo, dout, m - 1)
        if cost >= ub:
            return None
        return tuple(_dp_edges(memo, dout)), cost
    if _lower_bound(dout, root, dist) >= ub:
        return None
    best: Result = None
    bound = ub
    half = (m + 1) // 2
    kcap_all = (m - 1).bit_length()
    for mask in range(1, 1 << m):
        s1 = mask.bit_count()
        s2 = m - s1
        if not (mask >> root) & 1 or s1 > half or s2 > half:
            continue
        near = [s for s in range(m) if (mask >> s) & 1]
        far = [s for s in range(m) if not (mask >> s) & 1]
        eo = sum(dout[s] for s in near) - s1 + 1
        if eo < 0:
            continue
        kcap = min(kcap_all, s1 - 2)
        dist1 = _submatrix(dist, near)
        root1 = near.index(root)
        caps = [dout[s] for s in near]
        caps[root1] -= 1  # the root keeps an edge inside the near side
        # take[i]: the edges near[i] sends across the split.  The boundary
        # is the vertices that send any; the hub, slot s2, roots the far
        # side and feeds each boundary vertex's alias.
        for take in compositions(eo, caps):
            picks = [i for i in range(s1) if take[i]]
            k = len(picks)
            if not 1 <= k <= kcap:
                continue
            r1 = _solve_dc2(
                tuple(dout[s] - t for s, t in zip(near, take)),
                root1,
                dist1,
                bound,
            )
            if r1 is None:
                continue
            bnd = [near[i] for i in picks]
            dout2 = (*(dout[s] for s in far), k, *(take[i] for i in picks))
            r2 = _solve_dc2(dout2, s2, _hub_side(dist, far, bnd), bound - r1[1])
            if r2 is None:
                continue
            # The hub's slot maps to nothing: its edges are dropped.
            slots2 = far + [None] + bnd
            edges = tuple((near[p], near[c]) for p, c in r1[0]) + tuple(
                (slots2[p], slots2[c]) for p, c in r2[0] if p != s2
            )
            best = (edges, r1[1] + r2[1])
            bound = best[1]
    return best


def min_tree_dc2(
    dout: tuple[int, ...], root: int, inst: Instance, ub: Cost = INF
) -> tuple[DirectedTree | None, Cost]:
    """Divide-and-conquer solve on balanced halves with boundary sets;
    (None, inf) when no tree costs less than the exclusive bound `ub`
    (with the default, when no tree is finite).

    Below `ub` the answer does not depend on it: the search returns the
    first cheapest tree in its order (split, then take vector; see
    `_solve_dc2`), whatever bound it started from, and a tighter bound
    only cuts branches sooner.  Both children of every split are strictly
    smaller than their parent, so the recursion terminates with depth at
    most n and polynomial memory.
    """
    dout = checked_profile(dout, inst.n, root)
    best = _solve_dc2(dout, root, inst.cost, ub)
    if best is None:
        return None, INF
    edges, cost = best
    return _checked_tree(dout, root, edges), cost
