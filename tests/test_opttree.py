import math
import random
from itertools import product

import pytest

from mvtsp import (
    INF,
    DpTreeSolver,
    Instance,
    enumerate_feasible,
    enumerate_trees,
    min_tree_dc2,
    min_tree_dp,
)
from conftest import prufer_tree, rand_cost, random_tree


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
    # Six cities are above the dc2 leaf size, so every answer here comes
    # from splits; the root lands on either side of them.
    rng = random.Random(17)
    inst = Instance(rand_cost(6, rng, hi=3, inf_prob=0.1), tuple([1] * 6))
    for root in range(6):
        solver = DpTreeSolver(inst, root)
        profiles = list(enumerate_feasible(uncapped(6), root))
        for dout in rng.sample(profiles, 12):
            assert min_tree_dc2(dout, root, inst)[1] == solver.solve(dout)


def test_dc2_matches_dp_at_every_root_with_ties_at_seven_cities():
    # At seven cities a far side with three real slots, the hub and an
    # alias is split again.  Costs in 0..3 tie many trees of a profile, so
    # the tree kept below a bound must not depend on the bound.
    rng = random.Random(18)
    inst = Instance(rand_cost(7, rng, hi=3, inf_prob=0.1), tuple([1] * 7))
    for root in range(7):
        solver = DpTreeSolver(inst, root)
        profiles = list(enumerate_feasible(uncapped(7), root))
        for dout in rng.sample(profiles, 3):
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
        if s1 > half or m - s1 > half:
            continue
        inside = [(p, c) for p, c in edges if mask >> p & mask >> c & 1]
        entering = [c for p, c in edges if mask >> c & 1 and not mask >> p & 1]
        root_near = mask >> tree.root & 1
        # Connected: a forest on s1 vertices with s1 - 1 edges is one tree.
        if len(inside) != s1 - 1 or len(entering) != 1 - root_near:
            continue
        top = tree.root if root_near else entering[0]
        if not any(p == top for p, _ in inside):
            continue  # the near side's root keeps an edge inside it
        boundary = {p for p, c in edges if mask >> p & 1 and not mask >> c & 1}
        if not root_near:
            boundary.add(top)  # the carrier, whose in-edge crosses
        if 1 <= len(boundary) <= min(log_cap, s1 - 2):
            return True
    return False


def test_every_tree_has_a_split_dc2_tries():
    # `_DC2_BASE` rests on this: above five slots every tree, so every
    # cheapest tree, survives some split `_solve_dc2` enumerates.  At seven
    # slots and from nine on, the balanced partition is such a split
    # (test_trees.py); here splits with the root on either side count.
    for seq in product(range(6), repeat=4):
        for root in range(6):
            assert _has_dc2_split(prufer_tree(seq, root), 6), (seq, root)
    rng = random.Random(610)
    for m in range(7, 11):
        for _ in range(25):
            tree = random_tree(m, rng)
            assert _has_dc2_split(tree, m), tree.edges()


def test_shared_memo_equals_fresh_solves():
    rng = random.Random(11)
    inst = Instance(rand_cost(5, rng), tuple([1] * 5))
    shared = DpTreeSolver(inst, 0)
    for dout in enumerate_feasible(uncapped(5)):
        assert shared.solve(dout) == min_tree_dp(dout, 0, inst)[1]
    assert len(shared.memo) > 0


def test_bounded_cache_changes_nothing():
    rng = random.Random(12)
    inst = Instance(rand_cost(6, rng, inf_prob=0.1), tuple([1] * 6))
    solver = DpTreeSolver(inst, 0)
    for dout in enumerate_feasible(uncapped(6)):
        assert min_tree_dc2(dout, 0, inst)[1] == solver.solve(dout)


def test_dc2_bound_changes_nothing_below_it():
    rng = random.Random(13)
    inst = Instance(rand_cost(6, rng, inf_prob=0.1), tuple([1] * 6))
    for dout in enumerate_feasible(uncapped(6)):
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
    for n in (2, 3, 4, 5):
        for trial in range(6 if n < 5 else 4):
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
