"""Cheapest directed spanning tree for a fixed degree profile.

A profile is an outdegree tuple `dout` over the cities 0..n-1 plus the
root (indegrees are implied: zero at the root, one elsewhere); find a
minimum-cost tree realizing it.  Two exact strategies with different
space/time trade-offs:

- `DpTreeSolver`: dynamic programming over the outdegrees left, removing
  one leaf at a time.  States recur across degree profiles, so it keeps
  one shared memo for a whole sweep of profiles at a fixed root, mapping
  one int code per state to its cost.
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
`DpTreeSolver.solve` returns the cost alone, and `DpTreeSolver.tree` reruns
the same recurrence over the memo, keeping each chosen parent's edge.  A
`dc2` leaf reads its tree back the same way, once its cost is below the
bound; the splits above it keep the trees they build.  Every public entry
point raises ValueError on a profile that `is_feasible` rejects or that
does not span the instance, and every tree either backend returns has
passed the same check: one parent for each non-root vertex, and the
profile's outdegrees.
"""

from __future__ import annotations

from functools import cache
from operator import mul

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
# outdegrees left, -1 at a vertex already removed as a leaf, held in one list
# `dout` that is changed and restored around each recursive call.  Its memo
# key (`_code`) is one int with digit `dout[v] + 1` at place `(n + 1)**v`; no
# digit passes n, because the non-negative entries sum to `left`, the
# non-root vertices still in the tree, which is at most n - 1.  Removing
# `leaf` under `par` lowers the key by `pw[leaf] + pw[par]`.  The memo maps
# each state with `left > 0` to its cheapest cost alone; callers probe it
# before recursing, and the child of a `left == 1` state, at cost 0, is never
# stored.  The leaf is `dout.index(0)`, the lowest-index non-root vertex with
# no outdegree left, because the root keeps an out-edge while any other
# vertex is left: it starts with one (`checked_profile` at each entry point,
# `dc2`'s near side keeping one root edge, its hub sending k >= 1), and the
# recurrence takes the root's last edge only at `left == 1`, where it is the
# only parent.  Parents are tried in index order, keeping the first cheapest,
# as `enumerate_trees` in `tests/oracles.py` lists trees, so both settle ties
# on the same tree.  Given `edges`, a state with a finite cost then appends
# its chosen edge and descends into that child; the loop has memoised every
# child it tried by then, so a read-back adds no state and changes no cost.


@cache
def _places(n: int) -> tuple[int, ...]:
    return tuple((n + 1) ** v for v in range(n))


def _code(dout, pw) -> int:
    return sum(map(mul, dout, pw)) + sum(pw)


def _dp_value(
    d, root: int, memo: dict, pw, dout: list[int], code: int, left: int, edges=None
) -> Cost:
    """Cost of the state `dout`, coded `code`; with `edges`, also append the
    (parent, child) edges of its cheapest tree when that cost is finite."""
    leaf = dout.index(0)
    dout[leaf] = -1
    rest = code - pw[leaf]
    best: Cost = INF
    best_par = -1
    for par, k in enumerate(dout):
        if k <= 0 or (par == root and k == 1 and left > 1):
            continue
        w = d[par][leaf]
        if w == INF:
            continue
        if left > 1:
            child = rest - pw[par]
            sub = memo.get(child)
            if sub is None:
                dout[par] = k - 1
                sub = _dp_value(d, root, memo, pw, dout, child, left - 1)
                dout[par] = k
            w += sub
        if w < best:
            best = w
            best_par = par
    if edges is not None and best < INF:
        edges.append((best_par, leaf))
        if left > 1:
            dout[best_par] -= 1
            _dp_value(d, root, memo, pw, dout, rest - pw[best_par], left - 1, edges)
            dout[best_par] += 1
    dout[leaf] = 0
    memo[code] = best
    return best


def _dp_cost(d, root: int, memo: dict, dout: tuple[int, ...], edges=None) -> Cost:
    """Cheapest cost of a tree realizing the profile `dout`; with `edges`, the
    top state is recomputed, not read from `memo`, to append the tree's edges."""
    left = len(dout) - 1
    if left == 0:
        return 0
    pw = _places(len(dout))
    code = _code(dout, pw)
    cost = None if edges is not None else memo.get(code)
    if cost is None:
        cost = _dp_value(d, root, memo, pw, list(dout), code, left, edges)
    return cost


class DpTreeSolver:
    """Shared-memo optimal-tree solver for many degree profiles at one root.

    `memo` maps the int code of each visited state with a vertex left to
    its cheapest cost alone; profiles sweep overlapping state spaces, so
    reusing one solver across a whole enumeration computes every state at
    most once.  `solve` returns only the cheapest cost; `tree` reruns the
    recurrence down the cheapest choices, adding no state for a profile
    already solved, so a sweep builds a tree for its winning profile alone.
    """

    def __init__(self, inst: Instance, root: int) -> None:
        if not 0 <= root < inst.n:
            raise ValueError(f"root {root} outside 0..{inst.n - 1}")
        self.n = inst.n
        self.root = root
        self.d = inst.cost
        self.memo: dict[int, Cost] = {}

    def solve(self, dout: tuple[int, ...]) -> Cost:
        """Cheapest cost of a tree realizing `dout`; inf if none is finite."""
        dout = checked_profile(dout, self.n, self.root)
        return _dp_cost(self.d, self.root, self.memo, dout)

    def tree(self, dout: tuple[int, ...]) -> DirectedTree | None:
        """The cheapest tree realizing `dout`, or None when none is finite."""
        dout = checked_profile(dout, self.n, self.root)
        edges: list[tuple[int, int]] = []
        if _dp_cost(self.d, self.root, self.memo, dout, edges) == INF:
            return None
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
        cost = _dp_cost(dist, root, memo, dout)
        if cost >= ub:
            return None
        tree: list[tuple[int, int]] = []
        _dp_cost(dist, root, memo, dout, tree)
        return tuple(tree), cost
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
