import math
import random

import pytest
from hypothesis import given, strategies as st

from mvtsp import (
    INF,
    MAX_VALUE,
    DirectedMultigraph,
    Instance,
    multigraph_cost,
    multigraph_sum,
    undirected_connected,
)
from conftest import closed_walk_multigraph
from oracles import is_valid_tour_edgeset


def test_instance_normalizes_and_counts():
    inst = Instance([[0, 2], [3, 1]], [1, 2])
    assert inst.n == 2
    assert inst.cost == ((0, 2), (3, 1))
    assert inst.k == (1, 2)
    assert inst.total_visits == 3


def test_instance_accepts_inf_costs():
    inst = Instance(((0, INF), (1, 0)), (1, 1))
    assert inst.cost[0][1] == INF


@pytest.mark.parametrize(
    "cost, k",
    [
        ([[0, 1]], [1, 1]),  # not square
        ([[0, 1], [1, 0]], [1]),  # k length mismatch
        ([[0, -1], [1, 0]], [1, 1]),  # negative cost
        ([[0, 1.5], [1, 0]], [1, 1]),  # non-integer finite cost
        ([[0, True], [1, 0]], [1, 1]),  # bool is not a cost
        ([[0, 1], [1, 0]], [0, 1]),  # quota below one
        ([[0, 1], [1, 0]], [1, -2]),
        ([[0, MAX_VALUE + 1], [1, 0]], [1, 1]),  # beyond the cost cap
        ([], []),  # empty instance
        ([[0, float("-inf")], [1, 0]], [1, 1]),  # only +inf forbids an arc
        ([[0, float("nan")], [1, 0]], [1, 1]),
    ],
)
def test_instance_rejects_bad_input(cost, k):
    with pytest.raises((ValueError, OverflowError)):
        Instance(cost, k)


def test_multigraph_degrees_and_edges():
    g = DirectedMultigraph(3, {(0, 1): 2, (1, 0): 1, (1, 2): 1, (2, 1): 1, (2, 2): 3})
    assert g.out_degree(0) == 2 and g.in_degree(0) == 1
    assert g.out_degree(1) == 2 and g.in_degree(1) == 3
    assert g.out_degree(2) == 4 and g.in_degree(2) == 4
    assert tuple(g.edges()) == ((0, 1, 2), (1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 2, 3))
    assert g.total_multiplicity() == 8


def test_multigraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        DirectedMultigraph(2, {(0, 2): 1})
    with pytest.raises(ValueError):
        DirectedMultigraph(2, {(0, 1): 0})
    with pytest.raises(ValueError):
        DirectedMultigraph(2, {(0, 1): -3})


def test_multigraph_sum_adds_multiplicities():
    a = DirectedMultigraph(2, {(0, 1): 1, (1, 0): 2})
    b = DirectedMultigraph(2, {(1, 0): 5, (1, 1): 1})
    total = multigraph_sum(a, b)
    assert dict(total.mult) == {(0, 1): 1, (1, 0): 7, (1, 1): 1}


def test_multigraph_cost_and_overflow():
    inst = Instance(((1, 2), (3, 0)), (2, 2))
    g = DirectedMultigraph(2, {(0, 1): 2, (1, 0): 2})
    assert multigraph_cost(g, inst) == 2 * 2 + 3 * 2
    inf_inst = Instance(((1, INF), (3, 0)), (2, 2))
    assert multigraph_cost(g, inf_inst) == INF
    big = Instance(((0, MAX_VALUE), (MAX_VALUE, 0)), (10, 10))
    huge = DirectedMultigraph(2, {(0, 1): 10, (1, 0): 10})
    with pytest.raises(OverflowError):
        multigraph_cost(huge, big)


def test_undirected_connected_cases():
    assert undirected_connected(1, [])
    assert undirected_connected(1, [(0, 0)])
    assert undirected_connected(2, [(1, 0)])
    assert not undirected_connected(2, [])
    # self-loops do not connect anything
    assert not undirected_connected(2, [(0, 0), (1, 1)])
    # direction is ignored
    assert undirected_connected(3, [(2, 0), (2, 1)])
    assert not undirected_connected(3, [(0, 1)])


def test_valid_tour_edgeset():
    inst = Instance(((0, 1), (1, 0)), (2, 2))
    good = DirectedMultigraph(2, {(0, 1): 2, (1, 0): 2})
    assert is_valid_tour_edgeset(good, inst)
    unbalanced = DirectedMultigraph(2, {(0, 1): 2, (1, 0): 1})
    assert not is_valid_tour_edgeset(unbalanced, inst)
    loops_only = DirectedMultigraph(2, {(0, 0): 2, (1, 1): 2})
    assert not is_valid_tour_edgeset(loops_only, inst)


def test_valid_tour_edgeset_single_city():
    inst = Instance(((5,),), (3,))
    g = DirectedMultigraph(1, {(0, 0): 3})
    assert is_valid_tour_edgeset(g, inst)
    assert not is_valid_tour_edgeset(DirectedMultigraph(1, {(0, 0): 2}), inst)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 8))
def test_closed_walks_are_valid_tours(n, seed, extra):
    """Any closed walk covering all vertices induces a tour edge set for the
    quota vector it realizes."""
    g = closed_walk_multigraph(n, random.Random(seed), extra)
    k = tuple(g.out_degree(v) for v in range(n))
    inst = Instance(tuple(tuple(1 for _ in range(n)) for _ in range(n)), k)
    assert is_valid_tour_edgeset(g, inst)
    assert multigraph_cost(g, inst) == g.total_multiplicity()
    assert math.isinf(INF)
