import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from mvtsp import (
    INF,
    DirectedMultigraph,
    DirectedTree,
    Instance,
    enumerate_feasible,
)
from conftest import closed_walk_multigraph, rand_cost, random_tree
from oracles import (
    enumerate_trees,
    extract_spanning_tree,
    perfectly_balanced_partition,
)


def test_directed_tree_basics():
    t = DirectedTree(0, {1: 0, 2: 0, 3: 1})
    assert t.vertices == (0, 1, 2, 3)
    assert t.edges() == ((0, 1), (0, 2), (1, 3))
    assert t.out_degree(0) == 2
    assert t.out_degree(3) == 0
    g = t.as_multigraph(4)
    assert dict(g.mult) == {(0, 1): 1, (0, 2): 1, (1, 3): 1}


def test_directed_tree_rejects_cycles_and_orphans():
    with pytest.raises(ValueError):
        DirectedTree(0, {1: 2, 2: 1})  # cycle never reaching the root
    with pytest.raises(ValueError):
        DirectedTree(0, {0: 1, 1: 0})  # root cannot have a parent
    with pytest.raises(ValueError):
        DirectedTree(0, {1: 1})  # self-parent


def test_single_vertex_tree():
    t = DirectedTree(5, {})
    assert t.vertices == (5,)
    assert t.edges() == ()


@pytest.mark.parametrize("n, trees", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
def test_tree_enumeration_matches_cayley(n, trees):
    """Sum over all degree sequences equals the rooted labeled tree count."""
    inst = Instance(tuple(tuple(1 for _ in range(n)) for _ in range(n)),
                    tuple(1 for _ in range(n)))
    seen = set()
    for dout in enumerate_feasible((n - 1,) * n):
        for tree, cost in enumerate_trees(dout, 0, inst):
            assert cost == n - 1
            key = tree.edges()
            assert key not in seen, "tree constructed twice"
            seen.add(key)
            for v, d in enumerate(dout):
                assert tree.out_degree(v) == d
    assert len(seen) == trees == n ** (n - 2)


def test_enumeration_marks_unusable_trees_infinite():
    inst = Instance(((0, INF, 1), (1, 0, 1), (1, 1, 0)), (1, 1, 1))
    costs = [cost for _, cost in enumerate_trees((2, 0, 0), 0, inst)]
    # the only realization uses both root arcs, one of which is banned
    assert costs == [INF]


def test_extract_two_cities():
    g = DirectedMultigraph(2, {(0, 1): 1, (1, 0): 1})
    assert extract_spanning_tree(g, 0).edges() == ((0, 1),)


def test_extract_three_cycle():
    g = DirectedMultigraph(3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    assert extract_spanning_tree(g, 0).edges() == ((0, 1), (1, 2))


def test_extract_prefers_smaller_parent():
    g = DirectedMultigraph(
        4, {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): 1, (3, 0): 2}
    )
    tree = extract_spanning_tree(g, 0)
    assert tree.edges() == ((0, 1), (0, 2), (1, 3))


def test_extract_rejects_invalid_edge_sets():
    with pytest.raises(ValueError):
        extract_spanning_tree(DirectedMultigraph(2, {(0, 1): 2, (1, 0): 1}), 0)
    with pytest.raises(ValueError):
        extract_spanning_tree(
            DirectedMultigraph(3, {(0, 1): 1, (1, 0): 1}), 0
        )  # vertex 2 uncovered
    with pytest.raises(ValueError):
        extract_spanning_tree(
            DirectedMultigraph(4, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1}), 0
        )  # two separate islands


@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_extract_is_pointwise_subgraph(n, seed):
    g = closed_walk_multigraph(n, random.Random(seed))
    tree = extract_spanning_tree(g, 0)
    tg = tree.as_multigraph(n)
    for arc, m in tg.mult.items():
        assert g.mult.get(arc, 0) >= m
    # residual degrees stay nonnegative by construction; spot-check totals
    assert g.total_multiplicity() - tg.total_multiplicity() >= 0


def test_perfectly_balanced_eight_path():
    t = DirectedTree(0, {i: i - 1 for i in range(1, 8)})
    part = perfectly_balanced_partition(t)
    assert max(len(part.v1), len(part.v2)) <= 4
    assert 1 <= len(part.boundary) <= 3


def _crossing_edges(tree, part):
    for p, c in tree.edges():
        if (p in part.v1) != (c in part.v1):
            yield p, c


@pytest.mark.parametrize("n", [5, 16, 33, 64])
def test_partition_properties_random_trees(n):
    rng = random.Random(1234 + n)
    for _ in range(60):
        tree = random_tree(n, rng)
        pp = perfectly_balanced_partition(tree)
        assert max(len(pp.v1), len(pp.v2)) <= math.ceil(n / 2)
        assert len(pp.boundary) <= math.ceil(math.log2(n))
        assert all(
            p in pp.boundary or c in pp.boundary
            for p, c in _crossing_edges(tree, pp)
        )
        assert pp.v1 | pp.v2 == set(tree.vertices)
        # v1 is the near side of a split dc2 enumerates with the root near.
        assert tree.root in pp.v1
        assert all(tree.parent[v] in pp.v1 for v in pp.v1 - {tree.root})
        if n >= 9:
            cap = min(math.ceil(math.log2(n)), len(pp.v1) - 2)
            assert len(pp.boundary) <= cap


def test_enumeration_order_is_deterministic():
    inst = Instance(tuple(tuple(1 for _ in range(5)) for _ in range(5)),
                    (1, 1, 1, 1, 1))
    dout = next(enumerate_feasible((4,) * 5))
    first = [t.edges() for t, _ in islice(enumerate_trees(dout, 0, inst), 5)]
    second = [t.edges() for t, _ in islice(enumerate_trees(dout, 0, inst), 5)]
    assert first == second
