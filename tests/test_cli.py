"""File formats, the instance generator, and the command line front end."""

import random
import tracemalloc
from collections import Counter

import pytest

import mvtsp.cli
from mvtsp import INF, Infeasible, Instance, SolverConfig, solve
from mvtsp.cli import (
    FormatError,
    format_instance,
    format_solution,
    generate_instance,
    main,
    parse_instance,
    parse_solution,
)
from mvtsp.euler import cycle_certificate


def test_instance_round_trip():
    rng = random.Random(31337)
    for trial in range(20):
        n = rng.randint(1, 6)
        cost = tuple(
            tuple(
                INF if rng.random() < 0.2 else rng.randint(0, 50)
                for _ in range(n)
            )
            for _ in range(n)
        )
        k = tuple(rng.randint(1, 9) for _ in range(n))
        inst = Instance(cost, k)
        assert parse_instance(format_instance(inst)) == inst


def test_instance_comments_and_blank_lines():
    text = """
    # a tiny instance
    2
    1 2   # quotas
    0 inf
    3 1
    """
    inst = parse_instance(text)
    assert inst.n == 2
    assert inst.k == (1, 2)
    assert inst.cost == ((0, INF), (3, 1))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty instance"),
        ("x", "expected an integer"),
        ("0\n", "must be positive"),
        ("2\n1\n0 1\n1 0\n", "expected 2 visit quotas"),
        ("2\n1 1\n0 1 2\n1 0\n", "expected 2 costs"),
        ("2\n1 1\n0 x\n1 0\n", "line 3"),
        ("2\n1 1\n0 1\n", "unexpected end of file"),
        ("2\n1 1\n0 1\n1 0\n5\n", "trailing data"),
        ("2\n1 1\n0 -4\n1 0\n", "cost[0][1] -4 outside"),
        ("1\n0\n0\n", "k[0] 0 outside"),
        ("2\n1 1_0\n0 1\n1 0\n", "expected an integer, got '1_0'"),
        ("2\n1 1\n0 +1\n1 0\n", "expected an integer, got '+1'"),
        ("2\n1 1\n0 1\n\u0663 0\n", "got '\u0663'"),
        ("2\n1 1\n0 --4\n1 0\n", "got '--4'"),
        ("2\n1 1\n0 -\n1 0\n", "got '-'"),
    ],
)
def test_instance_parse_errors(text, fragment):
    with pytest.raises(FormatError) as exc:
        parse_instance(text)
    assert fragment in str(exc.value)


def test_solution_round_trip():
    inst = generate_instance(4, 3, inf_prob=0.1, seed=11)
    sol = solve(inst, SolverConfig())
    cycles = cycle_certificate(sol.edges)
    text = format_solution(sol, cycles)
    back = parse_solution(text)
    assert back["cost"] == sol.cost
    assert back["edges"] == dict(sol.edges.mult)
    assert back["cycles"] == cycles
    assert back["tour"] == sol.expansion


def test_solution_without_optional_sections():
    text = "cost 5\nedge 0 1 1\nedge 1 0 1\n"
    back = parse_solution(text)
    assert back["cost"] == 5
    assert back["cycles"] is None
    assert back["tour"] is None


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("edge 0 1 1\n", "no cost line"),
        ("cost 1\ncost 2\n", "duplicate cost"),
        ("cost 1\nedge 0 1\n", "edge takes"),
        ("cost 1\nedge 0 1 1\nedge 0 1 2\n", "duplicate edge"),
        ("cost 1\ncycle 3\n", "cycle takes"),
        ("cost 1\ntour 0 1\ntour 1 0\n", "duplicate tour"),
        ("cost 1\nwidget 4\n", "unknown record"),
        ("cost 1 2\n", "cost takes one value"),
        ("cost 1_0\n", "expected an integer, got '1_0'"),
        ("cost 1\nedge 0 1 +1\n", "expected an integer, got '+1'"),
        ("cost 1\ntour 0 \u0663\n", "got '\u0663'"),
    ],
)
def test_solution_parse_errors(text, fragment):
    with pytest.raises(FormatError) as exc:
        parse_solution(text)
    assert fragment in str(exc.value)


def test_generator_is_deterministic_and_feasible():
    a = generate_instance(5, 3, inf_prob=0.5, seed=7)
    b = generate_instance(5, 3, inf_prob=0.5, seed=7)
    assert a == b
    assert a != generate_instance(5, 3, inf_prob=0.5, seed=8)
    for seed in range(6):
        inst = generate_instance(4, 3, inf_prob=0.9, seed=seed)
        solve(inst, SolverConfig(algorithm="dp"))


def test_generator_k_fixed_and_validation():
    inst = generate_instance(3, 5, k_fixed=2, seed=1)
    assert inst.k == (2, 2, 2)
    with pytest.raises(ValueError):
        generate_instance(0, 3)
    with pytest.raises(ValueError):
        generate_instance(3, 0)
    with pytest.raises(ValueError):
        generate_instance(3, 2, inf_prob=1.5)


def run_pipeline(tmp_path, gen_args, solve_args=()):
    inst_path = tmp_path / "instance.txt"
    sol_path = tmp_path / "solution.txt"
    assert main(["gen", "--output", str(inst_path), *gen_args]) == 0
    code = main(
        ["solve", "--input", str(inst_path), "--output", str(sol_path), *solve_args]
    )
    return inst_path, sol_path, code


def test_solve_then_verify_pipeline(tmp_path, capsys):
    inst_path, sol_path, code = run_pipeline(
        tmp_path, ["--n", "4", "--k-max", "3", "--seed", "3"]
    )
    assert code == 0
    assert main(["verify", "--instance", str(inst_path), "--solution", str(sol_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok:") == 8


def test_solver_flags(tmp_path):
    inst_path, sol_path, code = run_pipeline(
        tmp_path,
        ["--n", "4", "--k-max", "2", "--seed", "5"],
        ["--algorithm", "dc2", "--root", "2"],
    )
    assert code == 0
    back = parse_solution(sol_path.read_text())
    assert back["tour"][0] == 2
    reference = solve(parse_instance(inst_path.read_text()), SolverConfig())
    assert back["cost"] == reference.cost


def test_solve_defaults_to_dp_at_every_size(tmp_path, monkeypatch):
    # Thirteen cities is past any size rule; the config must still ask for
    # dp, which is SolverConfig's default too.  The stub skips the solve.
    asked = []

    def recording_solve(inst, cfg):
        asked.append((inst.n, cfg.algorithm))
        raise Infeasible("not solved here")

    monkeypatch.setattr(mvtsp.cli, "solve", recording_solve)
    inst_path = tmp_path / "instance.txt"
    assert main(["gen", "--n", "13", "--seed", "1", "--output", str(inst_path)]) == 0
    assert main(["solve", "--input", str(inst_path)]) == 2
    assert asked == [(13, "dp")] == [(13, SolverConfig().algorithm)]


def test_expand_threshold_flag_drops_tour(tmp_path):
    inst_path, sol_path, code = run_pipeline(
        tmp_path,
        ["--n", "3", "--k-max", "2", "--seed", "2"],
        ["--expand-threshold", "0"],
    )
    assert code == 0
    back = parse_solution(sol_path.read_text())
    assert back["tour"] is None
    assert main(["verify", "--instance", str(inst_path), "--solution", str(sol_path)]) == 0


def test_solve_reports_infeasible_with_exit_2(tmp_path, capsys):
    inst_path = tmp_path / "instance.txt"
    inst_path.write_text("2\n1 1\ninf inf\ninf inf\n")
    assert main(["solve", "--input", str(inst_path)]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_main_returns_1_on_bad_input(tmp_path, capsys):
    assert main(["solve", "--input", str(tmp_path / "missing.txt")]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("not an instance\n")
    assert main(["solve", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def corrupt(sol_path, old, new):
    sol_path.write_text(sol_path.read_text().replace(old, new, 1))


def test_verify_catches_corruptions(tmp_path, capsys):
    inst_path, sol_path, _ = run_pipeline(
        tmp_path, ["--n", "3", "--k-max", "2", "--seed", "4"]
    )
    pristine = sol_path.read_text()
    back = parse_solution(pristine)

    corrupt(sol_path, f"cost {back['cost']}", f"cost {back['cost'] + 1}")
    assert main(["verify", "--instance", str(inst_path), "--solution", str(sol_path)]) == 1
    assert "FAIL: stated cost matches the edges" in capsys.readouterr().out

    (u, v), m = next(iter(back["edges"].items()))
    sol_path.write_text(pristine)
    corrupt(sol_path, f"edge {u} {v} {m}", f"edge {u} {v} {m + 1}")
    assert main(["verify", "--instance", str(inst_path), "--solution", str(sol_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL: degrees match the visit quotas" in out

    sol_path.write_text(pristine)
    tour_line = next(
        line for line in pristine.splitlines() if line.startswith("tour ")
    )
    corrupt(sol_path, tour_line, tour_line + " 0")
    assert main(["verify", "--instance", str(inst_path), "--solution", str(sol_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL: tour has one step per visit" in out

    sol_path.write_text(pristine)
    cycle_line = next(
        line for line in pristine.splitlines() if line.startswith("cycle ")
    )
    count = int(cycle_line.split()[1])
    corrupt(sol_path, f"cycle {count} ", f"cycle {count + 1} ")
    assert main(["verify", "--instance", str(inst_path), "--solution", str(sol_path)]) == 1
    assert "FAIL: cycles rebuild the edge multiset" in capsys.readouterr().out


def test_verify_rejects_a_tour_over_a_forbidden_arc(tmp_path, capsys):
    inst_path = tmp_path / "instance.txt"
    inst_path.write_text("2\n1 1\n0 inf\n1 0\n")
    assert main(["solve", "--input", str(inst_path)]) == 2
    sol_path = tmp_path / "solution.txt"
    # The stated cost equals what the edges cost, and both are infinite.
    sol_path.write_text("cost inf\nedge 0 1 1\nedge 1 0 1\n")
    capsys.readouterr()
    assert main(
        ["verify", "--instance", str(inst_path), "--solution", str(sol_path)]
    ) == 1
    out = capsys.readouterr().out
    assert "ok: stated cost matches the edges" in out
    assert "FAIL: edges use only finite arcs" in out


# Each pair's counts still add up to the edge multiplicities.
@pytest.mark.parametrize(
    "cycles", ["cycle 2 0 1\ncycle -1 0 1", "cycle 1 0 1\ncycle 0 0 1"]
)
def test_verify_rejects_cycle_counts_below_one(tmp_path, capsys, cycles):
    inst_path = tmp_path / "instance.txt"
    inst_path.write_text("2\n1 1\n0 1\n1 0\n")
    sol_path = tmp_path / "solution.txt"
    sol_path.write_text(
        f"cost 2\nedge 0 1 1\nedge 1 0 1\n{cycles}\ntour 0 1\n"
    )
    assert main(
        ["verify", "--instance", str(inst_path), "--solution", str(sol_path)]
    ) == 1
    out = capsys.readouterr().out
    assert "FAIL: cycles rebuild the edge multiset" in out
    assert out.count("ok:") == 7


def test_gen_writes_to_stdout(capsys):
    assert main(["gen", "--n", "3", "--seed", "1"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert inst.n == 3


def test_bench_emits_csv(tmp_path):
    csv_path = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--algorithms",
            "dp,dc2",
            "--n",
            "2",
            "3",
            "--seeds",
            "0",
            "1",
            "--output",
            str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "algorithm,n,k_max,seed,wall_s,peak_kb,cost"
    assert len(lines) == 1 + 2 * 2 * 2
    costs = {}
    for line in lines[1:]:
        algorithm, n, _, seed, wall_s, peak_kb, cost = line.split(",")
        assert float(wall_s) >= 0
        assert int(peak_kb) >= 0
        costs.setdefault((n, seed), set()).add(cost)
    assert all(len(values) == 1 for values in costs.values())


def test_bench_refuses_the_solve_algorithm_flag(capsys):
    # bench runs only what --algorithms names, so solve's --algorithm is
    # refused rather than read as an abbreviation of it.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--algorithms", "dp", "--algorithm", "dc2", "--n", "3"])
    assert exc.value.code != 0
    assert "--algorithm dc2" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["enum", "brute_permutation"])
def test_usage_errors_exit_1_not_the_infeasible_code(capsys, algorithm):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", "x", "--algorithm", algorithm])
    assert exc.value.code == 1
    assert f"invalid choice: '{algorithm}'" in capsys.readouterr().err


def test_bench_checks_every_algorithm_before_the_first_solve(monkeypatch, capsys):
    calls = 0

    def counting_solve(inst, cfg):
        nonlocal calls
        calls += 1
        return solve(inst, cfg)

    monkeypatch.setattr(mvtsp.cli, "solve", counting_solve)
    argv = ["bench", "--algorithms", "dp,bogus", "--n", "4", "5", "--seeds", "0", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert calls == 0
    assert "unknown algorithm 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sizes, root, message",
    [(["7", "3"], "5", "root 5 outside 0..2"), (["4", "0"], "0", "n 0 below 1")],
)
def test_bench_checks_every_size_before_the_first_solve(
    monkeypatch, capsys, sizes, root, message
):
    calls = 0

    def counting_solve(inst, cfg):
        nonlocal calls
        calls += 1
        return solve(inst, cfg)

    monkeypatch.setattr(mvtsp.cli, "solve", counting_solve)
    argv = ["bench", "--algorithms", "dp", "--n", *sizes, "--root", root]
    assert main(argv) == 1
    assert calls == 0
    assert message in capsys.readouterr().err


def test_bench_times_an_untraced_solve(tmp_path, monkeypatch):
    # tracemalloc slows solving about tenfold, so every row's wall time must
    # come from a solve with tracing off.
    untraced = Counter()

    def recording_solve(inst, cfg):
        if not tracemalloc.is_tracing():
            untraced[(cfg.algorithm, inst)] += 1
        return solve(inst, cfg)

    monkeypatch.setattr(mvtsp.cli, "solve", recording_solve)
    csv_path = tmp_path / "bench.csv"
    argv = ["bench", "--algorithms", "dp,dc2", "--n", "3", "4", "--seeds", "0", "1"]
    assert main(argv + ["--output", str(csv_path)]) == 0
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == 8
    for row in rows:
        algorithm, n, k_max, seed = row.split(",")[:4]
        inst = generate_instance(int(n), int(k_max), seed=int(seed))
        assert untraced[(algorithm, inst)] == 1, row


def test_costs_near_the_cap_through_the_cli(tmp_path, capsys):
    big = 2**62
    fits = tmp_path / "fits.txt"
    fits.write_text(f"3\n2 1 1\n{big} 1 1\n{big} {big} 1\n0 {big} 0\n")
    sol_path = tmp_path / "fits.sol"
    assert main(["solve", "--input", str(fits), "--output", str(sol_path)]) == 0
    assert parse_solution(sol_path.read_text())["cost"] == 4611686018427387906
    assert main(["verify", "--instance", str(fits), "--solution", str(sol_path)]) == 0
    capsys.readouterr()

    # Every tour of this instance costs 2**63 + 2.
    over = tmp_path / "over.txt"
    over.write_text(f"3\n2 2 1\n1 inf 0\n1 {big} 0\n1 {big} 1\n")
    assert main(["solve", "--input", str(over), "--output", str(sol_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    stated = tmp_path / "over.sol"
    stated.write_text(
        "cost 9223372036854775810\n"
        "edge 0 0 1\nedge 0 2 1\nedge 1 0 1\nedge 1 1 1\nedge 2 1 1\n"
    )
    assert main(["verify", "--instance", str(over), "--solution", str(stated)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
