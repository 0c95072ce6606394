"""End-to-end solver agreement, infeasibility reporting, and config knobs."""

import contextlib
import logging
import random
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtsp import (
    INF,
    MAX_VALUE,
    DpTreeSolver,
    Infeasible,
    Instance,
    SolverConfig,
    TransportInfeasible,
    TransportProblem,
    enumerate_feasible,
    eulerian_expand,
    min_tree_dc2,
    multigraph_cost,
    multigraph_sum,
    solve,
    solve_transport,
)
import mvtsp.core
import mvtsp.solvers
import mvtsp.transport
import mvtsp.trees
from mvtsp.cli import generate_instance
from mvtsp.solvers import ALGORITHMS
from oracles import (
    _psaraftis_walk,
    _permutation_walk,
    brute_permutation,
    brute_psaraftis,
    is_valid_tour_edgeset,
    min_tree_dp,
)

ORACLES = {
    "brute_psaraftis": brute_psaraftis,
    "brute_permutation": brute_permutation,
}


def check_solution(inst, sol):
    assert is_valid_tour_edgeset(sol.edges, inst)
    assert multigraph_cost(sol.edges, inst) == sol.cost
    if sol.expansion is not None:
        assert len(sol.expansion) == inst.total_visits
        walk = sol.expansion
        counts = {}
        for t in range(len(walk)):
            arc = (walk[t], walk[(t + 1) % len(walk)])
            counts[arc] = counts.get(arc, 0) + 1
        assert counts == dict(sol.edges.mult)


def test_all_algorithms_agree_on_small_instances():
    cases = [(2, 4), (3, 2), (4, 2)]
    for n, k_max in cases:
        for trial in range(8):
            inst = generate_instance(
                n, k_max, cost_max=15, inf_prob=0.1, seed=1000 * n + trial
            )
            costs = {name: oracle(inst) for name, oracle in ORACLES.items()}
            for alg in ALGORITHMS:
                sol = solve(inst, SolverConfig(algorithm=alg))
                check_solution(inst, sol)
                costs[alg] = sol.cost
            assert len(set(costs.values())) == 1, costs


def test_infeasible_carries_best_tree_bound():
    # Finite trees exist (cheapest costs 2) but no closed tour does.
    cost = (
        (INF, 1, INF),
        (INF, INF, 1),
        (INF, INF, INF),
    )
    inst = Instance(cost, (1, 1, 1))
    for alg in ALGORITHMS:
        with pytest.raises(Infeasible) as exc:
            solve(inst, SolverConfig(algorithm=alg))
        assert exc.value.best_bound == 2
    for oracle in ORACLES.values():
        assert oracle(inst) == INF


def test_infeasible_without_any_finite_tree():
    inst = Instance(((INF, INF), (INF, INF)), (1, 1))
    for alg in ALGORITHMS:
        with pytest.raises(Infeasible) as exc:
            solve(inst, SolverConfig(algorithm=alg))
        assert exc.value.best_bound is None


def test_single_city_self_loops():
    inst = Instance(((7,),), (5,))
    for alg in ALGORITHMS:
        sol = solve(inst, SolverConfig(algorithm=alg))
        assert sol.cost == 35
        assert sol.edges.mult == {(0, 0): 5}
        assert sol.expansion == (0, 0, 0, 0, 0)
    for walk in (_psaraftis_walk, _permutation_walk):
        assert walk(inst, 0) == (35, (0, 0, 0, 0, 0))


def test_single_city_infinite_loop_is_infeasible():
    inst = Instance(((INF,),), (3,))
    for alg in ALGORITHMS:
        with pytest.raises(Infeasible):
            solve(inst, SolverConfig(algorithm=alg))
    for oracle in ORACLES.values():
        assert oracle(inst) == INF


def test_expansion_threshold_controls_walk_materialization():
    inst = generate_instance(4, 3, seed=42)
    total = inst.total_visits
    for alg in ALGORITHMS:
        roomy = solve(inst, SolverConfig(algorithm=alg, expansion_threshold=total))
        assert roomy.expansion is not None
        assert len(roomy.expansion) == total
        tight = solve(
            inst, SolverConfig(algorithm=alg, expansion_threshold=total - 1)
        )
        assert tight.expansion is None
        assert tight.cost == roomy.cost == brute_psaraftis(inst)


def test_nonzero_root_same_cost_walk_starts_there():
    inst = generate_instance(4, 2, seed=9)
    base = solve(inst, SolverConfig(algorithm="dp", root=0))
    for root in (1, 2, 3):
        sol = solve(inst, SolverConfig(algorithm="dp", root=root))
        assert sol.cost == base.cost
        assert sol.expansion[0] == root
        check_solution(inst, sol)


def test_every_solve_carries_a_transport_certificate():
    inst = generate_instance(3, 2, seed=5)
    for alg in ALGORITHMS:
        sol = solve(inst, SolverConfig(algorithm=alg))
        cert = sol.certificate
        assert cert is not None
        assert cert.cost <= sol.cost == brute_psaraftis(inst)
        assert len(cert.pi_source) == inst.n
        assert len(cert.pi_sink) == inst.n


def test_cost_matrix_is_checked_once_when_the_instance_is_built(monkeypatch):
    inst = generate_instance(6, 3, inf_prob=0.2, seed=3)
    checked = Counter()
    check_cost = mvtsp.core.check_cost

    def counting(value, what="cost"):
        checked[what] += 1
        return check_cost(value, what)

    # Wrap the check under every name a module of the package binds it to.
    for name, module in list(sys.modules.items()):
        bound = getattr(module, "check_cost", None)
        if name.split(".")[0] == "mvtsp" and bound is check_cost:
            monkeypatch.setattr(module, "check_cost", counting)
    sol = solve(inst, SolverConfig(algorithm="dp"))
    assert sol.certificate is not None
    assert sum(checked.values()) == 0, checked.most_common(3)
    # The wrapper does see the check: a plain matrix is checked entry by entry.
    Instance([list(row) for row in inst.cost], inst.k)
    assert sum(checked.values()) == inst.n**2


BIG = 2**62

#: The optimum fits the 2**63 - 1 cap, but some losing profiles'
#: completions cost 2**63.
LOSERS_OVERFLOW = Instance(((BIG, 1, 1), (BIG, BIG, 1), (0, BIG, 0)), (2, 1, 1))

#: Every tour costs more than 2**63 - 1.
OPTIMUM_OVERFLOWS = Instance(((1, INF, 0), (1, BIG, 0), (1, BIG, 1)), (2, 2, 1))


# The oracles return bare costs and so check the expected optima themselves.
@pytest.mark.parametrize("alg", ALGORITHMS + tuple(ORACLES))
def test_overflowing_losing_profiles_do_not_abort_the_sweep(alg):
    if alg in ORACLES:
        assert ORACLES[alg](LOSERS_OVERFLOW) == 4611686018427387906
        return
    sol = solve(LOSERS_OVERFLOW, SolverConfig(algorithm=alg))
    assert sol.cost == 4611686018427387906 == brute_psaraftis(LOSERS_OVERFLOW)
    check_solution(LOSERS_OVERFLOW, sol)


@pytest.mark.parametrize("alg", ALGORITHMS + tuple(ORACLES))
def test_optimum_above_the_cap_raises(alg):
    if alg in ORACLES:
        cost = ORACLES[alg](OPTIMUM_OVERFLOWS)
        assert cost != INF and cost > MAX_VALUE
        return
    with pytest.raises(OverflowError):
        solve(OPTIMUM_OVERFLOWS, SolverConfig(algorithm=alg))


def test_dp_solve_builds_only_the_winning_tree(monkeypatch):
    built = 0
    post_init = mvtsp.trees.DirectedTree.__post_init__

    def counting(tree):
        nonlocal built
        built += 1
        post_init(tree)

    monkeypatch.setattr(mvtsp.trees.DirectedTree, "__post_init__", counting)
    inst = generate_instance(7, 3, inf_prob=0.2, seed=3)
    sol = solve(inst, SolverConfig(algorithm="dp"))
    check_solution(inst, sol)
    assert built == 1


def test_dp_solve_skips_transports_the_bound_rules_out(monkeypatch, caplog):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        mvtsp.solvers,
        "solve_transport",
        counting("transport", mvtsp.solvers.solve_transport),
    )
    monkeypatch.setattr(
        mvtsp.solvers.DpTreeSolver,
        "solve",
        counting("tree", mvtsp.solvers.DpTreeSolver.solve),
    )
    inst = generate_instance(8, 4, seed=2, k_fixed=2)
    with caplog.at_level(logging.DEBUG, logger="mvtsp.solvers"):
        sol = solve(inst, SolverConfig(algorithm="dp"))
    check_solution(inst, sol)
    # The walk builds only the profiles within the quotas, one tree call each.
    within_quota = sum(
        1 for dout in enumerate_feasible((7,) * 8) if max(dout) <= 2
    )
    assert within_quota == 623
    # Without the bound: 624, one per profile plus the winner.
    assert calls["transport"] <= 60
    (record,) = [r for r in caplog.records if r.msg.startswith("swept")]
    swept, transports, pruned, _ = record.args
    assert swept == calls["tree"] == within_quota
    assert transports + 1 == calls["transport"]  # plus the winner's re-solve
    assert pruned > 0 and transports + pruned == swept


def test_dp_solve_evaluates_the_transport_bound_once_per_transport(
    monkeypatch, caplog
):
    # The sweep prices a profile by one dot product with the last
    # transport's source potentials; `bound` runs only after a transport.
    calls = 0
    bound = mvtsp.transport.TransportSolution.bound

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return bound(*args, **kwargs)

    monkeypatch.setattr(mvtsp.transport.TransportSolution, "bound", counting)
    inst = generate_instance(8, 4, seed=2, k_fixed=2)
    with caplog.at_level(logging.DEBUG, logger="mvtsp.solvers"):
        check_solution(inst, solve(inst, SolverConfig(algorithm="dp")))
    (record,) = [r for r in caplog.records if r.msg.startswith("swept")]
    transports = record.args[1]
    # 33 transport solves with the winner's cold re-solve.  Pricing each of
    # the 623 profiles by `bound` would make about 620 calls.
    assert transports == 32
    assert 0 < calls <= transports


def test_dc2_leaves_stay_out_of_the_dp_call_site(monkeypatch, caplog):
    # `DpTreeSolver.solve` is the dp backend's call site and
    # `mvtsp.solvers.min_tree_dc2` the dc2 one, one call per swept profile,
    # and dp reads a single tree back, the winner's.  The dc2 leaves run the
    # dp recurrence without passing through either dp site, so a trace of a
    # site sees its own backend's calls alone.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in (
        (mvtsp.solvers.DpTreeSolver, "solve"),
        (mvtsp.solvers.DpTreeSolver, "tree"),
        (mvtsp.solvers, "min_tree_dc2"),
    ):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    inst = generate_instance(7, 1, seed=5)
    for alg, expected in (
        ("dc2", lambda swept: {"min_tree_dc2": swept}),
        ("dp", lambda swept: {"solve": swept, "tree": 1}),
    ):
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="mvtsp.solvers"):
            check_solution(inst, solve(inst, SolverConfig(algorithm=alg)))
        (record,) = [r for r in caplog.records if r.msg.startswith("swept")]
        assert record.args[0] > 0
        assert calls == expected(record.args[0]), alg


def reference_sweep(inst, alg, root):
    """The sweep with no bound: the uncapped profiles filtered by quota, each
    one's tree, then a cold transport; the first strictly cheapest total
    wins.  Returns the winning (total, tree, transport solution), or None,
    and the cheapest finite tree cost seen."""
    n, k = inst.n, inst.k
    demand = tuple(k[v] - (v != root) for v in range(n))
    best = cheapest_tree = None
    for dout in enumerate_feasible((n - 1,) * n, root):
        supply = tuple(k[v] - dout[v] for v in range(n))
        if min(supply) < 0:
            continue
        tree, tree_cost = {"dp": min_tree_dp, "dc2": min_tree_dc2}[alg](
            dout, root, inst
        )
        if tree_cost == INF:
            continue
        if cheapest_tree is None or tree_cost < cheapest_tree:
            cheapest_tree = tree_cost
        try:
            tsol = solve_transport(TransportProblem(supply, demand, inst.cost))
        except TransportInfeasible:
            continue
        if best is None or tree_cost + tsol.cost < best[0]:
            best = (tree_cost + tsol.cost, tree, tsol)
    return best, cheapest_tree


def draw_instance(data):
    """A small instance (n <= 5, quotas <= 3, some INF arcs) and a root."""
    n = data.draw(st.integers(1, 5), label="n")
    k = tuple(data.draw(st.integers(1, 3), label=f"k{i}") for i in range(n))
    inf_prob = data.draw(st.sampled_from([0.0, 0.2, 0.5]), label="inf_prob")
    root = data.draw(st.integers(0, n - 1), label="root")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    inst = Instance(
        tuple(
            tuple(INF if rng.random() < inf_prob else rng.randint(0, 9)
                  for _ in range(n))
            for _ in range(n)
        ),
        k,
    )
    return inst, root


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bounded_sweep_matches_the_unbounded_reference(data):
    inst, root = draw_instance(data)
    n = inst.n
    for alg in ALGORITHMS:
        best, cheapest_tree = reference_sweep(inst, alg, root)
        cfg = SolverConfig(algorithm=alg, root=root)
        if best is None:
            with pytest.raises(Infeasible) as exc:
                solve(inst, cfg)
            assert exc.value.best_bound == cheapest_tree
            continue
        total, tree, tsol = best
        sol = solve(inst, cfg)
        edges = multigraph_sum(tree.as_multigraph(n), tsol.flow)
        assert (sol.cost, sol.edges, sol.certificate) == (total, edges, tsol)
        assert sol.expansion == eulerian_expand(
            edges, root, cfg.expansion_threshold
        )


def reference_counts(inst, root):
    """The sweep's (swept, transports, pruned) counts, recomputed.

    After the first feasible transport, a profile is pruned when its tree
    costs at least the incumbent less the last feasible transport's
    weak-duality bound on the profile's own margins; before it, only an
    infinite tree is skipped, uncounted.  Each transport starts warm from
    the last feasible one.  A price that errs upward only prunes less and
    leaves every optimum in place, so only these counts can catch it.
    """
    n, k = inst.n, inst.k
    demand = tuple(k[v] - (v != root) for v in range(n))
    trees = DpTreeSolver(inst, root)
    best = last = None
    swept = transports = pruned = 0
    for dout in enumerate_feasible(k, root):
        swept += 1
        supply = tuple(k[v] - dout[v] for v in range(n))
        tree_cost = trees.solve(dout)
        if best is None:
            if tree_cost == INF:
                continue
        elif tree_cost >= best - last.bound(supply, demand):
            pruned += 1
            continue
        transports += 1
        try:
            last = solve_transport(
                TransportProblem(supply, demand, inst.cost), last
            )
        except TransportInfeasible:
            continue
        total = tree_cost + last.cost
        best = total if best is None else min(best, total)
    return swept, transports, pruned


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sweep_counts_match_the_bounded_reference(data):
    inst, root = draw_instance(data)
    expected = reference_counts(inst, root)
    for alg in ALGORITHMS:
        with mock.patch.object(mvtsp.solvers.log, "debug") as debug:
            with contextlib.suppress(Infeasible):
                solve(inst, SolverConfig(algorithm=alg, root=root))
        # The "swept" line: (swept, transports, pruned, best index).
        assert debug.call_args.args[1:4] == expected, alg


@pytest.mark.parametrize(
    "kwargs",
    [
        {"algorithm": "simplex"},
        {"root": -1},
        {"algorithm": "dc"},
        {"expansion_threshold": -1},
        {"algorithm": "enum"},
        {"algorithm": "brute_psaraftis"},
        {"root": 1.0},
        {"root": True},
        {"expansion_threshold": 2.5},
        {"expansion_threshold": MAX_VALUE + 1},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_solve_rejects_root_outside_instance():
    inst = generate_instance(3, 1, seed=0)
    with pytest.raises(ValueError):
        solve(inst, SolverConfig(algorithm="dp", root=3))
    with pytest.raises(ValueError):
        solve(inst, SolverConfig(algorithm="dc2", root=5))


def test_brute_force_guards():
    big_states = Instance(tuple(tuple(1 for _ in range(9)) for _ in range(9)), (9,) * 9)
    with pytest.raises(ValueError):
        brute_psaraftis(big_states)
    long_walk = Instance(((1,),), (11,))
    with pytest.raises(ValueError):
        brute_permutation(long_walk)


def test_brute_oracles_return_inf_when_stuck():
    inst = Instance(((INF, 1), (INF, INF)), (1, 1))
    assert brute_psaraftis(inst) == INF
    assert brute_permutation(inst) == INF


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dp_matches_visit_state_oracle(data):
    n = data.draw(st.integers(2, 4), label="n")
    k = tuple(data.draw(st.integers(1, 2), label=f"k{i}") for i in range(n))
    seed = data.draw(st.integers(0, 10**6), label="seed")
    rng = random.Random(seed)
    cost = tuple(
        tuple(INF if rng.random() < 0.2 else rng.randint(0, 9) for _ in range(n))
        for _ in range(n)
    )
    inst = Instance(cost, k)
    oracle = brute_psaraftis(inst)
    try:
        sol = solve(inst, SolverConfig(algorithm="dp"))
    except Infeasible:
        assert oracle == INF
    else:
        assert sol.cost == oracle
        check_solution(inst, sol)
