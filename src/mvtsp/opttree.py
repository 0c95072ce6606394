"""Cheapest directed spanning tree for a fixed degree profile.

A profile is an outdegree tuple `dout` over the cities 0..n-1 plus the
root (indegrees are implied: zero at the root, one elsewhere); find a
minimum-cost tree realizing it.  Two exact strategies with different
space/time trade-offs:

- `min_tree_dp`: dynamic programming over (vertex subset, remaining
  outdegrees).  States recur across degree profiles, so `DpTreeSolver`
  keeps one shared memo for a whole sweep of profiles at a fixed root.
- `min_tree_dc2`: divide and conquer over splits with both sides at most
  ceil(m/2) and up to ceil(log2 m) boundary vertices.  A split is described
  by its take vector, the number of edges each near vertex sends across it;
  the boundary is the vertices that send any, plus the one whose in-edge
  crosses when the root is far.  The far side sees one alias per boundary
  vertex, glued into a single tree problem by a zero-cost virtual hub whose
  edges are dropped when the halves are merged.  Pieces of at most
  `_DC2_BASE` slots are solved by the `dp` recurrence on a memo dropped on
  return, so no memo outlives a leaf: its point is memory polynomial in n.

Both return (tree, cost), or (None, inf) when no tree realizing the profile
has finite cost.  `min_tree_dc2` also takes an exclusive upper bound `ub`,
which its branch and bound starts from; (None, inf) then means "no tree
below `ub`", and any answer below it is the one an unbounded search gives.
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

#: Memo key of the dynamic program: (vertex-subset bitmask, outdegree tuple).
DpKey = tuple[int, tuple[int, ...]]

#: Label of the virtual hub gluing far-side aliases; never a real vertex.
GLUE = -1

#: Largest subproblem the boundary-set scheme hands to the `dp` recurrence.
#: Splits of six or more vertices always admit a balanced witness whose far
#: side (real remainder + hub + aliases) is strictly smaller, so above this
#: size the recursion both shrinks and stays complete;
#: `test_opttree.py::test_every_tree_has_a_split_dc2_tries` checks that
#: claim by brute force.
_DC2_BASE = 5

#: A solved subproblem: (edge tuple in original labels, total cost), or None
#: when no finite-cost tree realizes the profile.
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

# The one recurrence behind `dp` and the `dc2` leaves.  A state is a vertex
# subset `mask` (always holding the root) with its outdegrees left, `dout`;
# the memo maps it to (cheapest cost, parent of its leaf).  The leaf is the
# lowest-index non-root vertex with no outdegree left, and parents are tried
# in index order, keeping the first cheapest: `enumerate_trees` lists trees
# in the same order, so both settle ties on the same tree.


def _leaf(root: int, mask: int, dout: tuple[int, ...]) -> int:
    return next(
        v
        for v in range(len(dout))
        if (mask >> v) & 1 and v != root and dout[v] == 0
    )


def _dp_value(
    d, root: int, memo: dict, mask: int, dout: tuple[int, ...]
) -> Cost:
    key = (mask, dout)
    hit = memo.get(key)
    if hit is not None:
        return hit[0]
    if mask.bit_count() == 2:
        other = next(
            v for v in range(len(dout)) if (mask >> v) & 1 and v != root
        )
        cost = d[root][other]
        memo[key] = (cost, root)
        return cost
    leaf = _leaf(root, mask, dout)
    best: Cost = INF
    best_par = -1
    child_mask = mask ^ (1 << leaf)
    for par in range(len(dout)):
        if not (mask >> par) & 1 or par == leaf or dout[par] == 0:
            continue
        if par == root and dout[par] < 2:
            continue
        w = d[par][leaf]
        if w == INF:
            continue
        child = _dp_value(
            d,
            root,
            memo,
            child_mask,
            dout[:par] + (dout[par] - 1,) + dout[par + 1 :],
        )
        total = w + child
        if total < best:
            best = total
            best_par = par
    memo[key] = (best, best_par)
    return best


def _dp_cost(d, root: int, memo: dict, dout: tuple[int, ...]) -> Cost:
    """Cheapest cost of a tree over every vertex of `d`, directed away from
    `root`, with outdegrees `dout`; inf if none is finite."""
    n = len(dout)
    return _dp_value(d, root, memo, (1 << n) - 1, dout) if n > 1 else 0


def _dp_edges(
    root: int, memo: dict, dout: tuple[int, ...]
) -> list[tuple[int, int]]:
    """(parent, child) edges of the tree behind a finite `_dp_cost`, read
    back from its memo in attachment order."""
    mask = (1 << len(dout)) - 1
    edges = []
    while mask.bit_count() > 1:
        leaf = _leaf(root, mask, dout)
        par = memo[(mask, dout)][1]
        edges.append((par, leaf))
        dout = dout[:par] + (dout[par] - 1,) + dout[par + 1 :]
        mask ^= 1 << leaf
    return edges


class DpTreeSolver:
    """Shared-memo optimal-tree solver for many degree profiles at one root.

    The memo is keyed by (vertex-subset bitmask, outdegree tuple); profiles
    sweep overlapping state spaces, so reusing one solver across a whole
    enumeration computes every state at most once.  `solve` returns only
    the cheapest cost; `tree` reads the tree behind it back from the memo,
    so a sweep builds a tree for its winning profile alone.
    """

    def __init__(self, inst: Instance, root: int) -> None:
        if not 0 <= root < inst.n:
            raise ValueError(f"root {root} outside 0..{inst.n - 1}")
        self.n = inst.n
        self.root = root
        self.d = inst.cost
        self.memo: dict[DpKey, tuple[Cost, int]] = {}

    def solve(self, dout: tuple[int, ...]) -> Cost:
        """Cheapest cost of a tree realizing `dout`; inf if none is finite."""
        dout = checked_profile(dout, self.n, self.root)
        return _dp_cost(self.d, self.root, self.memo, dout)

    def tree(self, dout: tuple[int, ...]) -> DirectedTree | None:
        """The cheapest tree realizing `dout`, or None when none is finite."""
        dout = checked_profile(dout, self.n, self.root)
        if _dp_cost(self.d, self.root, self.memo, dout) == INF:
            return None
        edges = _dp_edges(self.root, self.memo, dout)
        return _checked_tree(dout, self.root, edges)


def min_tree_dp(
    dout: tuple[int, ...], root: int, inst: Instance
) -> tuple[DirectedTree | None, Cost]:
    """One-shot dynamic-programming solve, (None, inf) when no tree is
    finite; see DpTreeSolver for sweeps."""
    solver = DpTreeSolver(inst, root)
    return solver.tree(dout), solver.solve(dout)


# ---------------------------------------------------------------------------
# divide and conquer, boundary sets and virtual hub

# A subproblem is (labels, dout, root, dist) over local slots: `labels[s]`
# is the original vertex behind slot s (GLUE for a virtual hub) and `dist`
# the local distance matrix.  The recursion prunes by cost: a call carries
# an exclusive upper bound and returns the cheapest tree strictly below it,
# or None.  A non-None return is therefore the exact optimum; a None return
# only certifies "nothing below the bound".


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
    labels, dist, far: list[int], bnd: tuple[int, ...], carrier: int | None
) -> tuple[tuple[int, ...], tuple[tuple[Cost, ...], ...]]:
    """Labels and distances of the far side: real vertices, then the hub,
    then one alias per boundary vertex.

    The hub pins the intended wiring: every alias except the indegree
    carrier must take its sole in-edge from the hub (real in-arcs are
    infinite), the carrier alone feeds the hub, and hub/real as well as
    alias/alias arcs are all infinite.  Any finite-cost tree on this matrix
    therefore uses the hub edges exactly as the merge assumes, at zero cost.
    """
    r = len(far)
    k = len(bnd)
    m2 = r + 1 + k
    labels2 = (
        tuple(labels[s] for s in far) + (GLUE,) + tuple(labels[s] for s in bnd)
    )
    rows = []
    for a in range(m2):
        row = [INF] * m2
        if a < r:  # real vertex
            for b in range(r):
                row[b] = dist[far[a]][far[b]]
            for t in range(k):
                if bnd[t] == carrier:
                    row[r + 1 + t] = dist[far[a]][bnd[t]]
        elif a == r:  # hub
            for t in range(k):
                if bnd[t] != carrier:
                    row[r + 1 + t] = 0
        else:  # alias of bnd[a - r - 1]
            t = a - r - 1
            for b in range(r):
                row[b] = dist[bnd[t]][far[b]]
            if bnd[t] == carrier:
                row[r] = 0
        rows.append(tuple(row))
    return labels2, tuple(rows)


def _solve_dc2(
    labels: tuple[int, ...], dout: tuple[int, ...], root: int, dist, ub: Cost
) -> Result:
    """Boundary-set recursion on balanced halves.

    Every split is required to shrink both children: the near side has at
    most ceil(m/2) slots, and the far side (s2 real slots + hub + k aliases)
    stays below m because k is capped at s1 - 2.  A balanced partition with
    that small a boundary always exists once m >= 6, and pieces of at most
    five slots are solved exactly by the `dp` recurrence, so the cap loses
    no optimum.

    Candidates are tried split by split (near-side bitmask ascending), then
    by carrier in slot order, then by take vector in lexicographic order;
    a candidate replaces the incumbent only when strictly cheaper.  The
    take vector's caps leave the near side's root an edge of its own, so
    both sides' profiles are feasible by construction.
    """
    m = len(labels)
    if m <= _DC2_BASE:
        memo: dict[DpKey, tuple[Cost, int]] = {}
        cost = _dp_cost(dist, root, memo, dout)
        if cost >= ub:
            return None
        edges = _dp_edges(root, memo, dout)
        return tuple((labels[p], labels[c]) for p, c in edges), cost
    if _lower_bound(dout, root, dist) >= ub:
        return None
    best: Result = None
    bound = ub
    half = (m + 1) // 2
    kcap_all = (m - 1).bit_length()
    for mask in range(1, 1 << m):
        s1 = mask.bit_count()
        s2 = m - s1
        if s2 == 0 or s1 > half or s2 > half:
            continue
        near = [s for s in range(m) if (mask >> s) & 1]
        far = [s for s in range(m) if not (mask >> s) & 1]
        eo = sum(dout[s] for s in near) - s1 + 1
        if eo < 0:
            continue
        # The near side needs an edge in exactly when the root is far.
        ei = 1 - ((mask >> root) & 1)
        kcap = min(kcap_all, s1 - 2)
        labels1 = tuple(labels[s] for s in near)
        dist1 = _submatrix(dist, near)
        for carrier in near if ei else (None,):
            # With the root near, it roots the near side and the hub roots
            # the far side; with it far, the carrier, whose in-edge crosses
            # the split, roots the near side and the far side keeps the root.
            top = root if carrier is None else carrier
            if dout[top] == 0:
                continue
            root1 = near.index(top)
            root2 = s2 if carrier is None else far.index(root)
            caps = [dout[s] for s in near]
            caps[root1] -= 1  # the near side's root keeps an edge inside
            # take[i]: the edges near[i] sends across the split.  Boundary
            # vertices are those that send any, and the carrier.
            for take in compositions(eo, caps):
                picks = [
                    i for i in range(s1) if take[i] or near[i] == carrier
                ]
                k = len(picks)
                if not 1 <= k <= kcap:
                    continue
                r1 = _solve_dc2(
                    labels1,
                    tuple(dout[s] - t for s, t in zip(near, take)),
                    root1,
                    dist1,
                    bound,
                )
                if r1 is None:
                    continue
                bnd = tuple(near[i] for i in picks)
                labels2, dist2 = _hub_side(labels, dist, far, bnd, carrier)
                # Every alias but the carrier's takes its in-edge from the
                # hub; the carrier's alias alone sends one edge to the hub.
                dout2 = (
                    tuple(dout[s] for s in far)
                    + (k - ei,)
                    + tuple(take[i] + (near[i] == carrier) for i in picks)
                )
                r2 = _solve_dc2(labels2, dout2, root2, dist2, bound - r1[1])
                if r2 is None:
                    continue
                edges = r1[0] + tuple(
                    e for e in r2[0] if e[0] != GLUE and e[1] != GLUE
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
    first cheapest tree in its order (split, then carrier, then take
    vector; see `_solve_dc2`), whatever bound it started from, and a
    tighter bound only cuts branches sooner.  Both children of every
    split are strictly smaller than their parent, so the recursion
    terminates with depth at most n and polynomial memory.
    """
    n = inst.n
    dout = checked_profile(dout, n, root)
    best = _solve_dc2(tuple(range(n)), dout, root, inst.cost, ub)
    if best is None:
        return None, INF
    edges, cost = best
    return _checked_tree(dout, root, edges), cost
