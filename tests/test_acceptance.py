"""Whole-package acceptance checks.

Each test here covers one headline guarantee end to end: oracle agreement
across every algorithm, combinatorial counts, subsolver equivalences,
certificate validity, quota-independent scaling, and time and memory
envelopes.  Budgets are generous multiples of measured times on commodity
hardware; exact-equality checks have tolerance zero by design.
"""

import math
import random
import time
import tracemalloc

import pytest

from mvtsp import (
    INF,
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
    solve,
    solve_transport,
)
from mvtsp.cli import format_instance, format_solution, generate_instance, main
from mvtsp.euler import cycle_certificate
from conftest import (
    check_duals,
    closed_walk_multigraph,
    random_tree,
    transport_brute,
)
from oracles import (
    brute_permutation,
    brute_psaraftis,
    count_feasible,
    enumerate_trees,
    extract_spanning_tree,
    perfectly_balanced_partition,
)

ALL_ALGORITHMS = ("dp", "dc2")


def test_oracle_equivalence_across_algorithms():
    plan = {2: 95, 3: 75, 4: 60, 5: 45, 6: 30}
    assert sum(plan.values()) >= 300
    for n, count in plan.items():
        for trial in range(count):
            inst = generate_instance(
                n, 4, cost_max=20, inf_prob=0.1, seed=10_000 * n + trial
            )
            expected = brute_psaraftis(inst)
            for algorithm in ALL_ALGORITHMS:
                sol = solve(inst, SolverConfig(algorithm=algorithm))
                assert sol.cost == expected, (n, trial, algorithm)


def test_permutation_level_ground_truth():
    cases = [(2, 4), (3, 2), (4, 2)]
    checked = 0
    for n, k_max in cases:
        for trial in range(35):
            inst = generate_instance(
                n, k_max, cost_max=20, inf_prob=0.1, seed=20_000 * n + trial
            )
            assert inst.total_visits <= 8
            expected = brute_permutation(inst)
            assert brute_psaraftis(inst) == expected
            assert solve(inst, SolverConfig(algorithm="dp")).cost == expected
            checked += 1
    assert checked >= 100


def test_profile_and_tree_counts():
    for n in range(2, 11):
        streamed = sum(1 for _ in enumerate_feasible((n - 1,) * n, 0))
        assert count_feasible(n) == math.comb(2 * n - 3, n - 1) == streamed
    for n in range(2, 8):
        unit = Instance(
            tuple(tuple(1 for _ in range(n)) for _ in range(n)), (1,) * n
        )
        total = sum(
            1
            for dout in enumerate_feasible((n - 1,) * n, 0)
            for _ in enumerate_trees(dout, 0, unit)
        )
        assert total == n ** (n - 2)


def rand_matrix(n, rng, inf_prob=0.15):
    return tuple(
        tuple(
            INF if rng.random() < inf_prob else rng.randint(0, 20)
            for _ in range(n)
        )
        for _ in range(n)
    )


def test_tree_optimizer_equivalence():
    for n in range(2, 7):
        rng = random.Random(300 + n)
        profiles = list(enumerate_feasible((n - 1,) * n, 0))
        for trial in range(20):
            inst = Instance(rand_matrix(n, rng), (1,) * n)
            solver = DpTreeSolver(inst, 0)
            for dout in profiles:
                best_enum = min(
                    cost for _, cost in enumerate_trees(dout, 0, inst)
                )
                assert solver.solve(dout) == best_enum, (n, trial, dout)
    for n, picks in ((7, 40), (8, 10)):
        rng = random.Random(300 + n)
        profiles = rng.sample(list(enumerate_feasible((n - 1,) * n, 0)), picks)
        for dout in profiles:
            inst = Instance(rand_matrix(n, rng), (1,) * n)
            dp_cost = DpTreeSolver(inst, 0).solve(dout)
            assert min_tree_dc2(dout, 0, inst)[1] == dp_cost, (n, dout)


def random_margins(n, rng, cap=3):
    while True:
        supply = tuple(rng.randint(0, cap) for _ in range(n))
        demand = tuple(rng.randint(0, cap) for _ in range(n))
        if sum(supply) == sum(demand):
            return supply, demand


def test_transport_matches_exhaustive_brute():
    rng = random.Random(5150)
    solved = 0
    for trial in range(240):
        n = rng.randint(1, 3)
        supply, demand = random_margins(n, rng)
        cost = tuple(
            tuple(
                INF if rng.random() < 0.15 else rng.randint(0, 9)
                for _ in range(n)
            )
            for _ in range(n)
        )
        prob = TransportProblem(supply, demand, cost)
        expected = transport_brute(prob)
        try:
            sol = solve_transport(prob)
        except TransportInfeasible:
            assert expected is None, (trial, supply, demand)
            continue
        assert expected == sol.cost, (trial, supply, demand)
        check_duals(prob, sol)
        solved += 1
    assert solved >= 100


def test_giant_quota_cost_and_k_independence():
    def timed(quota):
        inst = Instance(
            tuple(tuple(3 for _ in range(5)) for _ in range(5)), (quota,) * 5
        )
        best = math.inf
        cost = None
        for _ in range(5):
            started = time.perf_counter()
            sol = solve(inst, SolverConfig(algorithm="dc2"))
            best = min(best, time.perf_counter() - started)
            cost = sol.cost
        return cost, best

    huge_cost, huge_wall = timed(10**12)
    assert huge_cost == 15 * 10**12
    assert huge_wall < 10.0
    small_cost, small_wall = timed(10)
    assert small_cost == 150
    # 20ms absolute slack keeps sub-hundredth-second timer noise from
    # deciding the ratio; it is negligible at any scale that matters.
    assert huge_wall <= 2.0 * small_wall + 0.02


def crossing_edges_touch_boundary(tree, part):
    for child, parent in tree.parent.items():
        in1, in2 = parent in part.v1, child in part.v1
        if in1 != in2:
            assert parent in part.boundary or child in part.boundary


def test_partition_guarantees_on_random_trees():
    for n in (5, 16, 33, 64):
        rng = random.Random(700 + n)
        for trial in range(500):
            tree = random_tree(n, rng)
            bp = perfectly_balanced_partition(tree)
            assert max(len(bp.v1), len(bp.v2)) <= math.ceil(n / 2)
            assert len(bp.boundary) <= math.ceil(math.log2(n))
            crossing_edges_touch_boundary(tree, bp)
            assert bp.v1 | bp.v2 == set(tree.vertices)
            assert not bp.v1 & bp.v2


def test_solution_validity_and_round_trips(tmp_path):
    # solve outputs of every algorithm, including a quota far beyond any
    # explicit walk, must pass the independent file-level verifier
    runs = [
        (generate_instance(n, 3, inf_prob=0.1, seed=800 + n), algorithm)
        for n, algorithm in zip((4, 6, 3, 4), ALL_ALGORITHMS * 2)
    ]
    optima = [brute_psaraftis(inst) for inst, _ in runs]
    giant = Instance(
        tuple(tuple(2 + ((i + j) % 3) for j in range(4)) for i in range(4)),
        (10**9,) * 4,
    )
    runs.append((giant, "dc2"))
    for idx, (inst, algorithm) in enumerate(runs):
        sol = solve(inst, SolverConfig(algorithm=algorithm))
        if idx < len(optima):
            assert sol.cost == optima[idx], (idx, algorithm)
        inst_path = tmp_path / f"inst{idx}.txt"
        sol_path = tmp_path / f"sol{idx}.txt"
        inst_path.write_text(format_instance(inst))
        sol_path.write_text(
            format_solution(sol, cycle_certificate(sol.edges))
        )
        code = main(
            ["verify", "--instance", str(inst_path), "--solution", str(sol_path)]
        )
        assert code == 0, (idx, algorithm)
        assert multigraph_cost(sol.edges, inst) == sol.cost

        tree = extract_spanning_tree(sol.edges, 0)
        residual = dict(sol.edges.mult)
        for child, parent in tree.parent.items():
            residual[(parent, child)] -= 1
            assert residual[(parent, child)] >= 0, (idx, parent, child)
        assert all(m >= 0 for m in residual.values())

        if sol.expansion is not None:
            walk = sol.expansion
            counts = {}
            for t in range(len(walk)):
                arc = (walk[t], walk[(t + 1) % len(walk)])
                counts[arc] = counts.get(arc, 0) + 1
            assert counts == dict(sol.edges.mult)

    rng = random.Random(8321)
    for trial in range(60):
        g = closed_walk_multigraph(rng.randint(1, 8), rng, extra=rng.randint(0, 5))
        start = rng.randrange(g.n)
        walk = eulerian_expand(g, start)
        counts = {}
        for t in range(len(walk)):
            arc = (walk[t], walk[(t + 1) % len(walk)])
            counts[arc] = counts.get(arc, 0) + 1
        assert counts == dict(g.mult)


def test_scaling_time_and_memory_envelopes():
    inst9 = generate_instance(9, 1, k_fixed=4, seed=9100)
    started = time.perf_counter()
    sol9 = solve(inst9, SolverConfig(algorithm="dp"))
    assert time.perf_counter() - started < 180.0
    assert sol9.cost == multigraph_cost(sol9.edges, inst9)

    # The quota profile steers how many degree profiles the sweep visits,
    # not how much memory either backend holds per profile: dc2's footprint
    # is recursion-shaped and stays flat, while dp's state table swells with
    # the quota ceiling.  Unit quotas keep the dc2 run inside the time
    # budget; quota 2 at the same n gives dp a honest-sized table.
    lean = generate_instance(10, 1, k_fixed=1, seed=10100)
    tracemalloc.start()
    frugal = solve(lean, SolverConfig(algorithm="dc2"))
    _, frugal_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert frugal_peak < 100 * 1024 * 1024
    assert solve(lean, SolverConfig(algorithm="dp")).cost == frugal.cost

    inst10 = generate_instance(10, 1, k_fixed=2, seed=10100)
    tracemalloc.start()
    solve(inst10, SolverConfig(algorithm="dp"))
    _, hungry_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert hungry_peak > 2 * frugal_peak
