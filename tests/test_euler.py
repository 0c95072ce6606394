"""Closed-walk expansion and cycle-decomposition checks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mvtsp import (
    DirectedMultigraph,
    ExpansionLimitExceeded,
    cycle_certificate,
    eulerian_expand,
)
from conftest import closed_walk_multigraph


def induced_counts(walk):
    counts = {}
    for t in range(len(walk)):
        arc = (walk[t], walk[(t + 1) % len(walk)])
        counts[arc] = counts.get(arc, 0) + 1
    return counts


def test_triangle_walks():
    g = DirectedMultigraph(3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    assert eulerian_expand(g, 0) == (0, 1, 2)
    assert eulerian_expand(g, 1) == (1, 2, 0)
    assert eulerian_expand(g, 2) == (2, 0, 1)


def test_self_loops_only():
    g = DirectedMultigraph(1, {(0, 0): 3})
    assert eulerian_expand(g, 0) == (0, 0, 0)


def test_shuttle_with_multiplicity():
    g = DirectedMultigraph(2, {(0, 1): 2, (1, 0): 2})
    assert eulerian_expand(g, 0) == (0, 1, 0, 1)


def test_expand_round_trip_random():
    rng = random.Random(4821)
    for trial in range(40):
        n = rng.randint(1, 8)
        g = closed_walk_multigraph(n, rng, extra=rng.randint(0, 6))
        start = rng.randrange(n)
        walk = eulerian_expand(g, start)
        assert len(walk) == g.total_multiplicity()
        assert walk[0] == start
        assert induced_counts(walk) == dict(g.mult)


def test_expansion_limit():
    g = DirectedMultigraph(2, {(0, 1): 2, (1, 0): 2})
    with pytest.raises(ExpansionLimitExceeded) as exc:
        eulerian_expand(g, 0, limit=3)
    assert exc.value.total == 4
    assert exc.value.limit == 3
    assert eulerian_expand(g, 0, limit=4) == (0, 1, 0, 1)


def test_expand_rejects_bad_inputs():
    unbalanced = DirectedMultigraph(2, {(0, 1): 2, (1, 0): 1})
    with pytest.raises(ValueError):
        eulerian_expand(unbalanced, 0)
    missing_vertex = DirectedMultigraph(3, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        eulerian_expand(missing_vertex, 0)
    two_islands = DirectedMultigraph(
        4, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1}
    )
    with pytest.raises(ValueError):
        eulerian_expand(two_islands, 0)
    ok = DirectedMultigraph(2, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        eulerian_expand(ok, 2)
    with pytest.raises(ValueError):
        eulerian_expand(ok, -1)


def rebuild(cycles):
    counts = {}
    for cycle, mult in cycles:
        for t in range(len(cycle)):
            arc = (cycle[t], cycle[(t + 1) % len(cycle)])
            counts[arc] = counts.get(arc, 0) + mult
    return counts


def test_certificate_rebuilds_exactly():
    rng = random.Random(977)
    for trial in range(40):
        n = rng.randint(1, 8)
        g = closed_walk_multigraph(n, rng, extra=rng.randint(0, 6))
        cycles = cycle_certificate(g)
        assert rebuild(cycles) == dict(g.mult)
        assert len(cycles) <= len(g.mult)
        for cycle, mult in cycles:
            assert mult >= 1
            assert cycle[0] == min(cycle)
            assert len(set(cycle)) == len(cycle)


def test_certificate_handles_disconnected_graphs():
    g = DirectedMultigraph(4, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1})
    cycles = cycle_certificate(g)
    assert rebuild(cycles) == dict(g.mult)
    assert sorted(c for c, _ in cycles) == [(0, 1), (2, 3)]


def test_certificate_compresses_giant_multiplicities():
    big = 10**12
    g = DirectedMultigraph(2, {(0, 1): big, (1, 0): big})
    cycles = cycle_certificate(g)
    assert cycles == (((0, 1), big),)


def test_certificate_with_giant_self_loops():
    big = 10**12
    g = DirectedMultigraph(3, {(0, 0): big, (0, 1): 1, (1, 2): 1, (2, 0): 1})
    cycles = cycle_certificate(g)
    assert rebuild(cycles) == dict(g.mult)
    assert ((0,), big) in cycles


def test_certificate_rejects_unbalanced():
    g = DirectedMultigraph(2, {(0, 1): 3, (1, 0): 1})
    with pytest.raises(ValueError):
        cycle_certificate(g)


# Exact-output references, written the slow way: every step and every peel
# rescans the whole edge map for the smallest live target.


def smallest_live_target(left, v):
    return min(w for (u, w), m in left.items() if u == v and m > 0)


def reference_walk(mult, start):
    left = dict(mult)
    trail, stack = [], [start]
    while stack:
        v = stack[-1]
        if any(u == v and m > 0 for (u, _), m in left.items()):
            w = smallest_live_target(left, v)
            left[(v, w)] -= 1
            stack.append(w)
        else:
            trail.append(stack.pop())
    return tuple(reversed(trail[1:]))


def reference_certificate(mult):
    left = dict(mult)
    cycles = []
    while any(left.values()):
        path = [min(u for (u, _), m in left.items() if m > 0)]
        while (nxt := smallest_live_target(left, path[-1])) not in path:
            path.append(nxt)
        cycle = path[path.index(nxt) :]
        arcs = [(v, cycle[(t + 1) % len(cycle)]) for t, v in enumerate(cycle)]
        count = min(left[arc] for arc in arcs)
        for arc in arcs:
            left[arc] -= count
        low = cycle.index(min(cycle))
        cycles.append((tuple(cycle[low:] + cycle[:low]), count))
    return tuple(cycles)


@st.composite
def tour_edgesets(draw):
    """A connected balanced multigraph on n <= 6 vertices: one closed walk
    through every vertex plus up to two more closed walks."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    spine = draw(st.permutations(range(n))) + draw(st.lists(vertex, max_size=4))
    loops = st.tuples(st.lists(vertex, min_size=1, max_size=4), st.integers(1, 3))
    walks = [(spine, 1), *draw(st.lists(loops, max_size=2))]
    return DirectedMultigraph(n, rebuild(walks))


@st.composite
def balanced_multigraphs(draw):
    """Closed walks with counts up to 10**12 on n <= 6 vertices; the union
    may leave vertices bare and be disconnected."""
    n = draw(st.integers(1, 6))
    walk = st.lists(st.integers(0, n - 1), min_size=1, max_size=5)
    walks = st.lists(st.tuples(walk, st.integers(1, 10**12)), min_size=1, max_size=4)
    return DirectedMultigraph(n, rebuild(draw(walks)))


@settings(max_examples=150, deadline=None)
@given(tour_edgesets())
def test_walk_matches_the_rescanning_reference(g):
    for start in range(g.n):
        assert eulerian_expand(g, start) == reference_walk(g.mult, start)


@settings(max_examples=150, deadline=None)
@given(balanced_multigraphs())
def test_certificate_matches_the_rescanning_reference(g):
    assert cycle_certificate(g) == reference_certificate(g.mult)
