"""Metamorphic properties of the optimum: relabelling the cities, scaling
the arc costs and shifting them must move the optimum predictably, and
moving the root must not move it at all."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mvtsp import INF, Infeasible, Instance, SolverConfig, solve

ALGS = ("dp", "dc2")


def optimum(inst, alg):
    """The optimal cost, or None when no finite tour exists."""
    try:
        return solve(inst, SolverConfig(algorithm=alg)).cost
    except Infeasible:
        return None


@st.composite
def instances(draw):
    n = draw(st.integers(1, 5), label="n")
    k = tuple(draw(st.integers(1, 3), label=f"k{i}") for i in range(n))
    rng = random.Random(draw(st.integers(0, 10**6), label="seed"))
    inf_prob = draw(st.sampled_from([0.0, 0.2, 0.4]), label="inf_prob")
    cost = tuple(
        tuple(INF if rng.random() < inf_prob else rng.randint(0, 20) for _ in range(n))
        for _ in range(n)
    )
    return Instance(cost, k)


def mapped(inst, f):
    return Instance(
        tuple(tuple(c if c == INF else f(c) for c in row) for row in inst.cost),
        inst.k,
    )


@settings(max_examples=60, deadline=None)
@given(instances(), st.randoms(use_true_random=False))
def test_relabelling_cities_keeps_the_optimum(inst, rnd):
    perm = list(range(inst.n))
    rnd.shuffle(perm)
    cost = [[0] * inst.n for _ in range(inst.n)]
    k = [0] * inst.n
    for i in range(inst.n):
        k[perm[i]] = inst.k[i]
        for j in range(inst.n):
            cost[perm[i]][perm[j]] = inst.cost[i][j]
    relabelled = Instance(cost, k)
    for alg in ALGS:
        assert optimum(relabelled, alg) == optimum(inst, alg), (alg, perm)


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(0, 7))
def test_scaling_finite_arcs_scales_the_optimum(inst, c):
    scaled = mapped(inst, lambda w: c * w)
    for alg in ALGS:
        base = optimum(inst, alg)
        assert optimum(scaled, alg) == (None if base is None else c * base), alg


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(0, 7))
def test_shifting_finite_arcs_adds_the_shift_per_visit(inst, c):
    # Every tour uses exactly sum(k) arcs.
    shifted = mapped(inst, lambda w: w + c)
    for alg in ALGS:
        base = optimum(inst, alg)
        want = None if base is None else base + c * inst.total_visits
        assert optimum(shifted, alg) == want, alg


@settings(max_examples=60, deadline=None)
@given(instances())
def test_the_root_does_not_change_the_optimum(inst):
    # A tour passes every city, so any of them can start it; the sweep's
    # profiles and its root's reserved out-edge move with the root.
    costs = {}
    for alg in ALGS:
        for root in range(inst.n):
            cfg = SolverConfig(algorithm=alg, root=root)
            try:
                costs[alg, root] = solve(inst, cfg).cost
            except Infeasible:
                costs[alg, root] = None
    assert len(set(costs.values())) == 1, costs
