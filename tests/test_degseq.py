from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from mvtsp import compositions, enumerate_feasible, is_feasible
from oracles import count_feasible


def uncapped(n):
    """Caps no profile on n vertices can exceed."""
    return (n - 1,) * n


def test_distribute_two_bins():
    assert list(compositions(2, (2, 2))) == [(0, 2), (1, 1), (2, 0)]


def test_distribute_zero_total():
    assert list(compositions(0, (0, 0, 0))) == [(0, 0, 0)]


@given(st.integers(0, 7), st.integers(1, 5))
@settings(max_examples=60)
def test_distribute_is_exact_and_ordered(total, bins):
    seqs = list(compositions(total, (total,) * bins))
    assert len(seqs) == comb(total + bins - 1, bins - 1)
    assert all(sum(s) == total and len(s) == bins for s in seqs)
    assert all(min(s) >= 0 for s in seqs)
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


CAPS = st.one_of(st.integers(0, 7), st.just(10**12))


@given(st.integers(0, 8), st.lists(CAPS, max_size=5))
@settings(max_examples=150)
def test_compositions_match_a_brute_force_in_order(total, caps):
    brute = [
        x
        for x in product(*(range(min(c, total) + 1) for c in caps))
        if sum(x) == total
    ]
    assert list(compositions(total, caps)) == brute


def test_compositions_reject_negative_input():
    with pytest.raises(ValueError):
        next(compositions(-1, (2, 2)))
    with pytest.raises(ValueError):
        next(compositions(1, (2, -1)))


@st.composite
def quotas(draw):
    n = draw(st.integers(1, 7), label="n")
    return tuple(
        draw(st.one_of(st.integers(1, n), st.just(10**12)), label=f"cap{v}")
        for v in range(n)
    )


@given(quotas())
@settings(max_examples=150, deadline=None)
def test_capped_walk_is_the_filtered_uncapped_walk(caps):
    n = len(caps)
    for root in range(n):
        want = [
            p
            for p in enumerate_feasible(uncapped(n), root)
            if all(p[v] <= caps[v] for v in range(n))
        ]
        assert list(enumerate_feasible(caps, root)) == want, root


def test_feasible_sequences_for_three_cities():
    douts = list(enumerate_feasible(uncapped(3)))
    assert douts == [(1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert list(enumerate_feasible((1, 1, 1))) == [(1, 0, 1), (1, 1, 0)]


def test_single_city_sequence():
    assert list(enumerate_feasible((5,))) == [(0,)]
    assert count_feasible(1) == 1


@pytest.mark.parametrize("n", range(2, 11))
def test_sequence_counts(n):
    assert count_feasible(n) == comb(2 * n - 3, n - 1)
    seen = set()
    total = 0
    for dout in enumerate_feasible(uncapped(n)):
        total += 1
        seen.add(dout)
        if total <= 50 or n <= 6:
            assert is_feasible(dout, 0)
    assert total == count_feasible(n)
    assert len(seen) == total


def test_nonzero_root_keeps_shape():
    douts = set(enumerate_feasible(uncapped(4), root=2))
    assert all(d[2] >= 1 for d in douts)
    assert all(sum(d) == 3 for d in douts)
    assert len(douts) == count_feasible(4)


def test_degree_sequence_validation():
    assert not is_feasible((1, -1, 3), 0)  # negative outdegree
    assert not is_feasible((1, 1, 0), 3)  # root outside the vertices
    assert not is_feasible((1, 1, 0), -1)
    assert not is_feasible((), 0)  # no vertices at all
    with pytest.raises(ValueError):
        next(enumerate_feasible((2, 2, 2), root=3))


def test_is_feasible_rules():
    assert is_feasible((2, 0, 0), 0)
    assert is_feasible((0, 0, 2), 2)
    assert not is_feasible((0, 1, 1), 0)  # root without out-edge
    assert not is_feasible((1, 1, 1), 0)  # sum too large
    assert is_feasible((0,), 0)  # lone root
