import math
import random

import pytest

from mvtsp import (
    INF,
    DirectedTree,
    DpTreeSolver,
    Instance,
    enumerate_feasible,
    min_tree_dc2,
)
from mvtsp.cli import generate_instance
from conftest import rand_cost, rooted_shapes
from oracles import enumerate_trees, min_tree_dp


def uncapped(n):
    return (n - 1,) * n


def enum_min(dout, root, inst):
    return min(cost for _, cost in enumerate_trees(dout, root, inst))


def check_realizes(tree, dout, root):
    assert tree.root == root
    for v, d in enumerate(dout):
        assert tree.out_degree(v) == d
    assert set(tree.vertices) == set(range(len(dout)))


BACKENDS = [min_tree_dp, min_tree_dc2]


def test_two_cities_single_edge():
    inst = Instance(((0, 4), (6, 0)), (1, 1))
    for backend in BACKENDS:
        tree, cost = backend((1, 0), 0, inst)
        assert cost == 4
        assert tree.edges() == ((0, 1),)


def test_infeasible_sequence_rejected():
    inst = Instance(((0, 1), (1, 0)), (1, 1))
    for backend in BACKENDS:
        with pytest.raises(ValueError):
            backend((0, 1), 0, inst)
        with pytest.raises(ValueError):
            backend((1, 0, 0), 0, inst)  # more vertices than the instance
        with pytest.raises(ValueError):
            backend((1, 0), 2, inst)  # root outside the instance
    with pytest.raises(ValueError):
        DpTreeSolver(inst, 1).solve((1, 0))  # the root needs an out-edge


def test_unusable_matrix_returns_infinite_fallback():
    inst = Instance(
        ((0, INF, INF), (INF, 0, INF), (INF, INF, 0)), (1, 1, 1)
    )
    for dout in enumerate_feasible(uncapped(3)):
        for backend in BACKENDS:
            tree, cost = backend(dout, 0, inst)
            assert math.isinf(cost)
            assert tree is None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_backends_match_enumeration(n):
    rng = random.Random(500 + n)
    for trial in range(6):
        inst = Instance(rand_cost(n, rng, inf_prob=0.15), tuple([1] * n))
        for dout in enumerate_feasible(uncapped(n)):
            want = enum_min(dout, 0, inst)
            for backend in BACKENDS:
                tree, cost = backend(dout, 0, inst)
                assert cost == want, (backend.__name__, dout, trial)
                if math.isinf(cost):
                    assert tree is None
                else:
                    check_realizes(tree, dout, 0)
                    assert cost == sum(
                        inst.cost[p][c] for p, c in tree.edges()
                    )


def test_backends_match_enumeration_n6_sampled():
    rng = random.Random(66)
    inst = Instance(rand_cost(6, rng, inf_prob=0.1), tuple([1] * 6))
    sample = random.Random(7).sample(list(enumerate_feasible(uncapped(6))), 25)
    for dout in sample:
        want = enum_min(dout, 0, inst)
        for backend in BACKENDS:
            assert backend(dout, 0, inst)[1] == want


def test_seven_and_eight_city_three_way_agreement():
    for n, picks in ((7, 6), (8, 3)):
        rng = random.Random(80 + n)
        inst = Instance(rand_cost(n, rng, inf_prob=0.05), tuple([1] * n))
        sample = rng.sample(list(enumerate_feasible(uncapped(n))), picks)
        solver = DpTreeSolver(inst, 0)
        for dout in sample:
            assert min_tree_dc2(dout, 0, inst)[1] == solver.solve(dout)


def test_dc2_splits_match_dp_at_every_root():
    # Seven cities are above the dc2 leaf size, so every answer here comes
    # from splits, each with the root on its near side.
    rng = random.Random(17)
    inst = Instance(rand_cost(7, rng, hi=3, inf_prob=0.1), tuple([1] * 7))
    for root in range(7):
        solver = DpTreeSolver(inst, root)
        profiles = list(enumerate_feasible(uncapped(7), root))
        for dout in rng.sample(profiles, 12):
            assert min_tree_dc2(dout, root, inst)[1] == solver.solve(dout)


@pytest.mark.parametrize("n, per_root", [(7, 3), (8, 2)])
def test_dc2_matches_dp_at_every_root_with_ties(n, per_root):
    # At seven cities every split leaves two `dp` leaves; at eight, a far
    # side of seven slots (real vertices, the hub and its aliases) splits
    # again.  Costs in 0..3 tie many trees of a profile, so the tree kept
    # below a bound must not depend on the bound.
    rng = random.Random(18)
    inst = Instance(rand_cost(n, rng, hi=3, inf_prob=0.1), tuple([1] * n))
    for root in range(n):
        solver = DpTreeSolver(inst, root)
        profiles = list(enumerate_feasible(uncapped(n), root))
        for dout in rng.sample(profiles, per_root):
            opt = solver.solve(dout)
            tree, cost = min_tree_dc2(dout, root, inst)
            assert cost == opt, (dout, root)
            if math.isinf(opt):
                assert tree is None
                continue
            check_realizes(tree, dout, root)
            assert cost == sum(inst.cost[p][c] for p, c in tree.edges())
            assert min_tree_dc2(dout, root, inst, opt) == (None, INF)
            got, bounded = min_tree_dc2(dout, root, inst, opt + 1)
            assert bounded == opt and got.edges() == tree.edges()


def _has_dc2_split(tree, m):
    """True when some split of `tree` meets `_solve_dc2`'s rules, so its
    cheapest tree can be found through the split."""
    half = (m + 1) // 2
    log_cap = math.ceil(math.log2(m))
    edges = tree.edges()
    for mask in range(1, (1 << m) - 1):
        s1 = mask.bit_count()
        if not mask >> tree.root & 1 or s1 > half or m - s1 > half:
            continue
        inside = [(p, c) for p, c in edges if mask >> p & mask >> c & 1]
        # Connected: a forest on s1 vertices with s1 - 1 edges is one tree.
        if len(inside) != s1 - 1:
            continue
        if not any(p == tree.root for p, _ in inside):
            continue  # the root keeps an edge inside the near side
        boundary = {p for p, c in edges if mask >> p & 1 and not mask >> c & 1}
        if 1 <= len(boundary) <= min(log_cap, s1 - 2):
            return True
    return False


def _shape(tree, v=None):
    """Canonical form of the rooted shape of `tree` below `v`."""
    v = tree.root if v is None else v
    kids = [c for c, p in tree.parent.items() if p == v]
    return tuple(sorted(_shape(tree, c) for c in kids))


#: The one six-vertex shape without a root-near split:
#: root -> x, x -> {y, z}, y -> y', z -> z'.
SIX_SLOT_EDGES = ((0, 1), (1, 2), (1, 3), (2, 4), (3, 5))


def test_every_tree_has_a_split_dc2_tries():
    # `_DC2_BASE` rests on this: above six slots every tree, so every
    # cheapest tree, survives some split `_solve_dc2` enumerates.  The
    # split property does not depend on labels, so one tree per rooted
    # shape covers every tree and root.  From nine on, the balanced
    # partition is such a split (test_trees.py); seven and eight rest on
    # this check alone.
    for m in range(7, 13):
        for tree in rooted_shapes(m):
            assert _has_dc2_split(tree, m), tree.edges()
    failing = [t for t in rooted_shapes(6) if not _has_dc2_split(t, 6)]
    want = DirectedTree(0, {c: p for p, c in SIX_SLOT_EDGES})
    assert [_shape(t) for t in failing] == [_shape(want)]


def test_six_slot_tree_without_a_root_near_split():
    # Only this tree realizes the profile at cost 0.  No root-near split
    # reaches it, so a dc2 that split six slots would miss it; the `dp`
    # leaf finds it.
    cost = [[0 if a == b else 1 for b in range(6)] for a in range(6)]
    for p, c in SIX_SLOT_EDGES:
        cost[p][c] = 0
    inst = Instance(tuple(map(tuple, cost)), (1,) * 6)
    tree, total = min_tree_dc2((1, 2, 1, 1, 0, 0), 0, inst)
    assert total == 0
    assert tree.edges() == SIX_SLOT_EDGES


def test_shared_memo_equals_fresh_solves():
    rng = random.Random(11)
    inst = Instance(rand_cost(5, rng), tuple([1] * 5))
    shared = DpTreeSolver(inst, 0)
    for dout in enumerate_feasible(uncapped(5)):
        assert shared.solve(dout) == min_tree_dp(dout, 0, inst)[1]
    assert len(shared.memo) == 84


@pytest.mark.parametrize(
    "inst, root, states",
    [
        # dp-sweep's seed-0 instance: n = 9, every quota 2.
        (generate_instance(9, 4, 20, 0.0, 0, 2), 0, 9273),
        (generate_instance(8, 4, seed=1), 3, 2272),
    ],
    ids=["dp-sweep-seed0", "n8-root3"],
)
def test_sweep_visits_a_pinned_number_of_dp_states(inst, root, states):
    # One state per distinct tuple of outdegrees left; a change to the
    # state, the leaf or the root's reserved edge moves these counts.
    solver = DpTreeSolver(inst, root)
    for dout in enumerate_feasible(inst.k, root):
        solver.solve(dout)
    assert len(solver.memo) == states


def test_dc2_matches_dp_on_sampled_seven_city_profiles():
    rng = random.Random(12)
    inst = Instance(rand_cost(7, rng, inf_prob=0.1), tuple([1] * 7))
    solver = DpTreeSolver(inst, 0)
    for dout in rng.sample(list(enumerate_feasible(uncapped(7))), 80):
        assert min_tree_dc2(dout, 0, inst)[1] == solver.solve(dout)


def test_dc2_bound_changes_nothing_below_it():
    rng = random.Random(13)
    inst = Instance(rand_cost(7, rng, inf_prob=0.1), tuple([1] * 7))
    for dout in rng.sample(list(enumerate_feasible(uncapped(7))), 25):
        tree, opt = min_tree_dc2(dout, 0, inst)
        for ub in (0, opt, opt + 1, INF):
            got, cost = min_tree_dc2(dout, 0, inst, ub)
            if ub > opt:
                assert cost == opt and got.edges() == tree.edges()
            else:
                assert (got, cost) == (None, INF)


def test_virtual_labels_never_leak():
    rng = random.Random(14)
    inst = Instance(rand_cost(7, rng), tuple([1] * 7))
    tree, cost = min_tree_dc2((2, 1, 1, 1, 1, 0, 0), 0, inst)
    assert all(0 <= v < 7 for v in tree.vertices)
    assert not math.isinf(cost)


def test_nonzero_root_and_active_subset():
    rng = random.Random(15)
    inst = Instance(rand_cost(6, rng), tuple([1] * 6))
    dout = (1, 0, 0, 1, 2, 1)
    want = enum_min(dout, 4, inst)
    for backend in BACKENDS:
        tree, cost = backend(dout, 4, inst)
        assert cost == want
        check_realizes(tree, dout, 4)


def test_single_vertex_profiles():
    inst = Instance(((3,),), (2,))
    for backend in BACKENDS:
        tree, cost = backend((0,), 0, inst)
        assert cost == 0
        assert tree.edges() == ()


def test_backends_break_ties_like_enumeration():
    # Costs in {0, 1} tie most profiles between many trees; the DP, its use
    # at the dc2 leaves, and enumeration must all keep the same first one.
    rng = random.Random(16)
    for n in (2, 3, 4, 5, 6):
        for trial in range({5: 4, 6: 2}.get(n, 6)):
            cost = rand_cost(n, rng, hi=1, inf_prob=0.2)
            inst = Instance(cost, tuple([1] * n))
            for root in range(n):
                for dout in enumerate_feasible(uncapped(n), root):
                    first, want = min(
                        enumerate_trees(dout, root, inst),
                        key=lambda pair: pair[1],
                    )
                    edges = None if math.isinf(want) else first.edges()
                    for backend in BACKENDS:
                        tree, cost = backend(dout, root, inst)
                        assert cost == want
                        got = None if tree is None else tree.edges()
                        assert got == edges, (backend.__name__, dout, root)
