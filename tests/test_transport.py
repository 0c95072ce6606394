import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mvtsp import (
    INF,
    CostMatrix,
    TransportInfeasible,
    TransportProblem,
    solve_transport,
)
from conftest import check_duals, transport_brute


def test_problem_validation():
    TransportProblem((1, 0), (0, 1), ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        TransportProblem((1, 0), (1, 1), ((1, 2), (3, 4)))  # totals differ
    with pytest.raises(ValueError):
        TransportProblem((1,), (1, 0), ((1, 2),))  # shape mismatch
    with pytest.raises(ValueError):
        TransportProblem((1, 0), (0, 1), ((1, -2), (3, 4)))
    with pytest.raises(ValueError):
        TransportProblem((-1, 2), (0, 1), ((1, 2), (3, 4)))


def test_empty_shipment():
    prob = TransportProblem((0,), (0,), ((5,),))
    sol = solve_transport(prob)
    assert sol.cost == 0
    assert dict(sol.flow.mult) == {}
    check_duals(prob, sol)


def test_single_arc():
    prob = TransportProblem((3,), (3,), ((7,),))
    sol = solve_transport(prob)
    assert sol.cost == 21
    assert dict(sol.flow.mult) == {(0, 0): 3}
    check_duals(prob, sol)


def test_two_by_two_prefers_cheap_diagonal():
    prob = TransportProblem((2, 3), (2, 3), ((1, 10), (10, 1)))
    sol = solve_transport(prob)
    assert sol.cost == 2 * 1 + 3 * 1
    check_duals(prob, sol)


def test_forced_expensive_arc():
    # supply at 0 exceeds demand at 0, so one unit must cross
    prob = TransportProblem((3, 1), (2, 2), ((0, 9), (9, 0)))
    sol = solve_transport(prob)
    assert sol.cost == 9
    check_duals(prob, sol)


def test_infeasible_when_blocked_by_inf():
    prob = TransportProblem((2, 0), (0, 2), ((0, INF), (INF, 0)))
    with pytest.raises(TransportInfeasible):
        solve_transport(prob)


def test_inf_arcs_avoided_when_possible():
    prob = TransportProblem((2, 2), (2, 2), ((INF, 1), (1, INF)))
    sol = solve_transport(prob)
    assert sol.cost == 4
    assert (0, 0) not in sol.flow.mult
    check_duals(prob, sol)


def _margin_vectors(n, cap):
    return list(product(range(cap + 1), repeat=n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matches_exhaustive_oracle(n):
    """Sample margin pairs and costs; compare against full flow enumeration."""
    rng = random.Random(20_000 + n)
    vectors = _margin_vectors(n, 3)
    for _ in range(120):
        supply = rng.choice(vectors)
        matching = [d for d in vectors if sum(d) == sum(supply)]
        demand = rng.choice(matching)
        cost = tuple(
            tuple(INF if rng.random() < 0.15 else rng.randint(0, 9)
                  for _ in range(n))
            for _ in range(n)
        )
        prob = TransportProblem(supply, demand, cost)
        expected = transport_brute(prob)
        if expected is None:
            with pytest.raises(TransportInfeasible):
                solve_transport(prob)
        else:
            sol = solve_transport(prob)
            assert sol.cost == expected
            check_duals(prob, sol)


def test_bulk_supplies_scale_linearly():
    cost = ((2, 5, 7), (4, 1, 9), (8, 3, 0))
    base_supply, base_demand = (1, 2, 1), (2, 1, 1)
    base = solve_transport(TransportProblem(base_supply, base_demand, cost))
    for scale in (10, 10**6, 10**12):
        scaled = solve_transport(
            TransportProblem(
                tuple(s * scale for s in base_supply),
                tuple(d * scale for d in base_demand),
                cost,
            )
        )
        assert scaled.cost == base.cost * scale


def test_bulk_run_is_fast_and_dual_clean():
    rng = random.Random(7)
    n = 6
    cost = tuple(tuple(rng.randint(0, 50) for _ in range(n)) for _ in range(n))
    supply = tuple(rng.randint(10**11, 10**12) for _ in range(n))
    total = sum(supply)
    cut = sorted(rng.randint(0, total) for _ in range(n - 1))
    demand = tuple(
        b - a for a, b in zip((0, *cut), (*cut, total))
    )
    prob = TransportProblem(supply, demand, cost)
    sol = solve_transport(prob)
    check_duals(prob, sol)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_random_duals_hold(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    vectors = _margin_vectors(n, 2)
    supply = rng.choice(vectors)
    matching = [d for d in vectors if sum(d) == sum(supply)]
    demand = rng.choice(matching)
    cost = tuple(
        tuple(rng.randint(0, 12) for _ in range(n)) for _ in range(n)
    )
    prob = TransportProblem(supply, demand, cost)
    sol = solve_transport(prob)
    check_duals(prob, sol)


def _solve_or_none(prob, warm=None):
    try:
        return solve_transport(prob, warm)
    except TransportInfeasible:
        return None


@st.composite
def warm_chains(draw):
    """A random n <= 5 matrix with inf arcs, then a chain of margin pairs
    with supply and demand both moving from step to step."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(0, 12), st.just(INF))
    row = st.lists(entry, min_size=n, max_size=n)
    cost = draw(st.lists(row, min_size=n, max_size=n))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        supply = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        # Deal the same total into the sinks, unit by unit.
        demand = [0] * n
        for _ in range(sum(supply)):
            demand[draw(st.integers(0, n - 1))] += 1
        steps.append((tuple(supply), tuple(demand)))
    return CostMatrix(cost), steps


@given(warm_chains())
@settings(max_examples=150, deadline=None)
def test_warm_start_matches_cold_solve(chain):
    cost, steps = chain
    prev = None
    for supply, demand in steps:
        prob = TransportProblem(supply, demand, cost)
        cold = _solve_or_none(prob)
        warm = _solve_or_none(prob, prev)
        assert (warm is None) == (cold is None)
        if warm is None:
            continue  # as in the sweep, the last feasible solution stays
        assert warm.cost == cold.cost
        check_duals(prob, warm)
        prev = warm


def test_warm_start_from_another_matrix_raises():
    prob = TransportProblem((2, 1), (1, 2), ((1, 5), (5, 1)))
    warm = solve_transport(prob)
    # An equal matrix built separately is the same matrix ...
    same = TransportProblem((1, 2), (2, 1), ((1, 5), (5, 1)))
    assert solve_transport(same, warm).cost == solve_transport(same).cost
    # ... a different one is refused rather than answered wrongly.
    other = TransportProblem((1, 2), (2, 1), ((1, 5), (0, 1)))
    with pytest.raises(ValueError, match="this cost matrix"):
        solve_transport(other, warm)


@given(warm_chains())
@settings(max_examples=150, deadline=None)
def test_potentials_bound_every_margin_pair_of_the_matrix(chain):
    cost, steps = chain
    cold = [_solve_or_none(TransportProblem(s, d, cost)) for s, d in steps]
    # Potentials as the sweep holds them too: each solve warm from the last.
    warm, prev = [], None
    for supply, demand in steps:
        sol = _solve_or_none(TransportProblem(supply, demand, cost), prev)
        if sol is not None:
            warm.append(sol)
            prev = sol
    for p in warm + [sol for sol in cold if sol is not None]:
        for (supply, demand), q in zip(steps, cold):
            if q is not None:
                assert p.bound(supply, demand) <= q.cost
    for (supply, demand), p in zip(steps, cold):
        if p is not None:
            assert p.bound(supply, demand) == p.cost  # strong duality


def test_warm_start_with_uncertified_potentials_raises():
    cost = CostMatrix(((1, 5), (5, 1)))
    cold = solve_transport(TransportProblem((2, 1), (1, 2), cost))
    nxt = TransportProblem((1, 2), (2, 1), cost)
    # Potentials shifted by a constant still certify the flow.
    shifted = replace(
        cold,
        pi_source=tuple(p + 7 for p in cold.pi_source),
        pi_sink=tuple(p + 7 for p in cold.pi_sink),
    )
    assert solve_transport(nxt, shifted).cost == solve_transport(nxt).cost
    zeroed = replace(cold, pi_source=(0, 0), pi_sink=(0, 0))
    with pytest.raises(ValueError, match="not tight on its flow"):
        solve_transport(nxt, zeroed)
    lifted = replace(cold, pi_source=(cold.pi_source[0] + 9, cold.pi_source[1]))
    with pytest.raises(ValueError, match="not dual-feasible"):
        solve_transport(nxt, lifted)


def test_zeroed_warm_potentials_never_answer_wrongly():
    """Cold solutions with their potentials zeroed either still certify
    their flow, and the warm solve agrees with a cold one, or raise."""
    rng = random.Random(31)
    raised = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        cost = CostMatrix(
            tuple(tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(n))
        )
        vectors = _margin_vectors(n, 3)
        problems = []
        for _ in range(2):
            supply = rng.choice(vectors)
            demand = rng.choice([d for d in vectors if sum(d) == sum(supply)])
            problems.append(TransportProblem(supply, demand, cost))
        first, second = problems
        zeroed = replace(
            solve_transport(first), pi_source=(0,) * n, pi_sink=(0,) * n
        )
        try:
            sol = solve_transport(second, zeroed)
        except ValueError:
            raised += 1
            assert any(cost[i][j] > 0 for i, j in zeroed.flow.mult)
        else:
            assert sol.cost == solve_transport(second).cost
    assert raised > 0
