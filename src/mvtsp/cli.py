"""Command line front end: solve, gen, verify, bench.

Instance files are plain text: a line with the city count, a line with the
visit quotas, then the cost matrix row by row; `inf` marks a forbidden arc
and `#` starts a comment.  Solutions are emitted as a cost line, one line
per distinct edge, a cycle-certificate section, and the expanded tour when
it is small enough; `verify` checks such a pair independently.

Exit codes: 0 success, 2 infeasible instance, 1 a usage error, bad input,
failed checks or a cost above 2**63 - 1.
Set MVTSP_LOG=debug|info for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
import tracemalloc
from collections import Counter
from random import Random

from .core import (
    INF,
    Cost,
    DirectedMultigraph,
    Instance,
    TourSolution,
    multigraph_cost,
    undirected_connected,
)
from .euler import cycle_certificate, walk_arcs, walk_runs
from .solvers import ALGORITHMS, Infeasible, SolverConfig, solve

log = logging.getLogger(__name__)


class FormatError(ValueError):
    """A file does not follow the documented layout."""


# ---------------------------------------------------------------------------
# instance and solution formats


def _data_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _parse_int(token: str, where: str) -> int:
    """An optional `-`, then ASCII digits; `int` alone would also take `+`,
    `_` separators and other scripts' digits."""
    digits = token.removeprefix("-")
    try:
        if digits.isascii() and digits.isdigit():
            return int(token)
    except ValueError:  # more digits than `int` converts
        pass
    raise FormatError(f"{where}: expected an integer, got {token!r}")


def _parse_cost(token: str, where: str) -> Cost:
    if token == "inf":
        return INF
    return _parse_int(token, where)


def parse_instance(text: str) -> Instance:
    lines = list(_data_lines(text))
    if not lines:
        raise FormatError("empty instance: no data lines")
    pos = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            raise FormatError(f"unexpected end of file, expected {what}")
        item = lines[pos]
        pos += 1
        return item

    number, line = take("the city count")
    fields = line.split()
    if len(fields) != 1:
        raise FormatError(f"line {number}: expected just the city count")
    n = _parse_int(fields[0], f"line {number}")
    if n < 1:
        raise FormatError(f"line {number}: city count must be positive")
    number, line = take("the visit quotas")
    fields = line.split()
    if len(fields) != n:
        raise FormatError(
            f"line {number}: expected {n} visit quotas, got {len(fields)}"
        )
    quotas = tuple(
        _parse_int(tok, f"line {number}, field {i + 1}")
        for i, tok in enumerate(fields)
    )
    rows = []
    for r in range(n):
        number, line = take(f"cost row {r}")
        fields = line.split()
        if len(fields) != n:
            raise FormatError(
                f"line {number}: expected {n} costs, got {len(fields)}"
            )
        rows.append(
            tuple(
                _parse_cost(tok, f"line {number}, field {i + 1}")
                for i, tok in enumerate(fields)
            )
        )
    if pos != len(lines):
        number, _ = lines[pos]
        raise FormatError(f"line {number}: trailing data after the cost matrix")
    try:
        return Instance(tuple(rows), quotas)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_instance(inst: Instance) -> str:
    out = [str(inst.n), " ".join(str(q) for q in inst.k)]
    for row in inst.cost:
        out.append(" ".join("inf" if c == INF else str(c) for c in row))
    return "\n".join(out) + "\n"


def format_solution(
    sol: TourSolution, cycles: tuple[tuple[tuple[int, ...], int], ...]
) -> str:
    """The solution file: cost, edges, `cycles`, and a `tour` line when
    `sol.expansion` is set.  That line is spelled from `walk_runs` over
    `sol.edges`, one string repetition per run, so only repetition in C
    grows with the visit count.  It equals `sol.expansion` joined vertex by
    vertex when that is `eulerian_expand`'s walk of the edges, as `solve`
    makes it; an expansion of another length raises ValueError."""
    out = [f"cost {sol.cost}"]
    for u, v, m in sol.edges.edges():
        out.append(f"edge {u} {v} {m}")
    for verts, count in cycles:
        out.append("cycle " + " ".join(str(x) for x in (count, *verts)))
    if sol.expansion is not None:
        start = sol.expansion[0]
        runs = walk_runs(sol.edges, start)
        steps = sum(len(block) * reps for block, reps in runs) - 1
        if steps != len(sol.expansion):
            raise ValueError(
                f"expansion has {len(sol.expansion)} steps, the edges' walk {steps}"
            )
        names = [str(v) for v in range(sol.edges.n)]
        text = "".join(
            [(" ".join([names[v] for v in block]) + " ") * reps for block, reps in runs]
        )
        # The runs end with the return to `start`: drop " start " from the end.
        out.append("tour " + text[: -len(names[start]) - 2])
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> dict:
    """Read a solution file into {cost, edges, cycles, tour} (the last two
    may be None)."""
    cost = None
    edges: dict[tuple[int, int], int] = {}
    cycles: list[tuple[tuple[int, ...], int]] = []
    tour: tuple[int, ...] | None = None
    for number, line in _data_lines(text):
        kind, *fields = line.split()
        where = f"line {number}"
        if kind == "cost":
            if cost is not None:
                raise FormatError(f"{where}: duplicate cost line")
            if len(fields) != 1:
                raise FormatError(f"{where}: cost takes one value")
            cost = _parse_cost(fields[0], where)
        elif kind == "edge":
            if len(fields) != 3:
                raise FormatError(f"{where}: edge takes from, to, multiplicity")
            u, v, m = (_parse_int(t, where) for t in fields)
            if (u, v) in edges:
                raise FormatError(f"{where}: duplicate edge {u} {v}")
            edges[(u, v)] = m
        elif kind == "cycle":
            if len(fields) < 2:
                raise FormatError(f"{where}: cycle takes a count and vertices")
            count = _parse_int(fields[0], where)
            verts = tuple(_parse_int(t, where) for t in fields[1:])
            cycles.append((verts, count))
        elif kind == "tour":
            if tour is not None:
                raise FormatError(f"{where}: duplicate tour line")
            # A long tour repeats few distinct tokens: parse each once, in
            # first-seen order, so the first bad token is the one reported.
            value = {t: _parse_int(t, where) for t in dict.fromkeys(fields)}
            tour = tuple(map(value.__getitem__, fields))
        else:
            raise FormatError(f"{where}: unknown record {kind!r}")
    if cost is None:
        raise FormatError("solution has no cost line")
    return {
        "cost": cost,
        "edges": edges,
        "cycles": tuple(cycles) if cycles else None,
        "tour": tour,
    }


# ---------------------------------------------------------------------------
# instance generation


def generate_instance(
    n: int,
    k_max: int,
    cost_max: int = 20,
    inf_prob: float = 0.0,
    seed: int = 0,
    k_fixed: int | None = None,
) -> Instance:
    """Deterministic random instance that always admits a finite tour.

    Costs are uniform integers with an optional chance of inf per arc.  A
    hidden random city cycle is forced finite, plus a self-loop wherever a
    quota exceeds the smallest one: riding the cycle min(k) times and
    looping for the leftover visits is then a finite tour, so feasibility
    is guaranteed for every quota vector.
    """
    if n < 1 or k_max < 1 or cost_max < 0 or not 0.0 <= inf_prob <= 1.0:
        raise ValueError("bad generator parameters")
    rng = Random(seed)
    if k_fixed is not None:
        quotas = tuple([k_fixed] * n)
    else:
        quotas = tuple(rng.randint(1, k_max) for _ in range(n))
    cost = [
        [
            INF if rng.random() < inf_prob else rng.randint(0, cost_max)
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    if n == 1:
        ring = [0, 0]
    else:
        order = list(range(1, n))
        rng.shuffle(order)
        ring = [0] + order + [0]
    low = min(quotas)
    for t in range(len(ring) - 1):
        u, v = ring[t], ring[t + 1]
        if cost[u][v] == INF:
            cost[u][v] = rng.randint(0, cost_max)
    for v in range(n):
        if quotas[v] > low and cost[v][v] == INF:
            cost[v][v] = rng.randint(0, cost_max)
    return Instance(tuple(tuple(row) for row in cost), quotas)


# ---------------------------------------------------------------------------
# subcommands


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_solve(args) -> int:
    inst = parse_instance(_read(args.input))
    cfg = SolverConfig(
        algorithm=args.algorithm,
        root=args.root,
        expansion_threshold=args.expand_threshold,
    )
    started = time.perf_counter()
    try:
        sol = solve(inst, cfg)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    log.info("solved in %.3fs, cost %s", time.perf_counter() - started, sol.cost)
    _write(args.output, format_solution(sol, cycle_certificate(sol.edges)))
    return 0


def cmd_gen(args) -> int:
    inst = generate_instance(
        args.n, args.k_max, args.cost_max, args.inf_prob, args.seed, args.k_fixed
    )
    _write(args.output, format_instance(inst))
    return 0


def cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    sol = parse_solution(_read(args.solution))
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"ok: {name}")
        else:
            failures += 1
            print(f"FAIL: {name}" + (f" ({detail})" if detail else ""))

    try:
        graph = DirectedMultigraph(inst.n, sol["edges"])
    except (ValueError, OverflowError) as exc:
        report("edges are well formed", False, str(exc))
        return 1
    report("edges are well formed", True)

    bad = [
        v
        for v in range(inst.n)
        if graph.out_degree(v) != inst.k[v] or graph.in_degree(v) != inst.k[v]
    ]
    report(
        "degrees match the visit quotas",
        not bad,
        f"vertices {bad}" if bad else "",
    )
    report(
        "edge set is connected",
        undirected_connected(inst.n, graph.mult.keys()),
    )
    recomputed = multigraph_cost(graph, inst)
    report(
        "stated cost matches the edges",
        recomputed == sol["cost"],
        f"stated {sol['cost']}, edges cost {recomputed}",
    )
    report("edges use only finite arcs", recomputed != INF)
    if sol["cycles"] is not None:
        union: Counter[tuple[int, int]] = Counter()
        for verts, count in sol["cycles"]:
            union.update(walk_arcs(verts, count))
        low = min(count for _, count in sol["cycles"])
        report(
            "cycles rebuild the edge multiset",
            union == dict(graph.mult) and low >= 1,
            f"cycle count {low}" if low < 1 else "",
        )
    if sol["tour"] is not None:
        walk = sol["tour"]
        report(
            "tour has one step per visit",
            len(walk) == inst.total_visits,
            f"length {len(walk)}, visits {inst.total_visits}",
        )
        report(
            "tour uses the edge multiset exactly", walk_arcs(walk) == dict(graph.mult)
        )
    return 1 if failures else 0


def cmd_bench(args) -> int:
    # Every size is checked before the first solve, as the names are.
    for n in args.n:
        if n < 1:
            raise ValueError(f"n {n} below 1")
    rows = ["algorithm,n,k_max,seed,wall_s,peak_kb,cost"]
    for algorithm in args.algorithms:
        cfg = SolverConfig(algorithm=algorithm)
        for n in args.n:
            for seed in args.seeds:
                inst = generate_instance(
                    n, args.k_max, args.cost_max, args.inf_prob, seed, args.k_fixed
                )
                # tracemalloc slows Python code about tenfold, so the timed
                # solve runs untraced and a second solve measures memory.
                started = time.perf_counter()
                sol = solve(inst, cfg)
                wall = time.perf_counter() - started
                tracemalloc.start()
                try:
                    solve(inst, cfg)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                rows.append(
                    f"{algorithm},{n},{args.k_max},{seed},"
                    f"{wall:.6f},{peak // 1024},{sol.cost}"
                )
                log.info("bench %s n=%d seed=%d: %.3fs", algorithm, n, seed, wall)
    _write(args.output, "\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other bad input: exit 2 means an
    infeasible instance.  Subcommand parsers are built from the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _algorithm_names(text: str) -> list[str]:
    """Split `bench --algorithms` and check every name before any solve."""
    names = [name.strip() for name in text.split(",")]
    unknown = [name for name in names if name not in ALGORITHMS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {', '.join(map(repr, unknown))}; "
            f"pick from {', '.join(ALGORITHMS)}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mvtsp",
        description="Exact solvers for many-visits tour problems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve", help="solve an instance file")
    sub.add_argument("--input", required=True, help="instance path, - for stdin")
    sub.add_argument("--output", default=None, help="solution path, default stdout")
    sub.add_argument("--algorithm", choices=ALGORITHMS, default=SolverConfig.algorithm)
    sub.add_argument("--root", type=int, default=SolverConfig.root)
    sub.add_argument(
        "--expand-threshold", type=int, default=SolverConfig.expansion_threshold
    )
    sub.set_defaults(handler=cmd_solve)

    sub = commands.add_parser("gen", help="generate a feasible random instance")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k-max", type=int, default=4)
    sub.add_argument("--k-fixed", type=int, default=None)
    sub.add_argument("--cost-max", type=int, default=20)
    sub.add_argument("--inf-prob", type=float, default=0.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output", default=None)
    sub.set_defaults(handler=cmd_gen)

    sub = commands.add_parser("verify", help="check a solution against an instance")
    sub.add_argument("--instance", required=True)
    sub.add_argument("--solution", required=True)
    sub.set_defaults(handler=cmd_verify)

    # No abbreviations: `--algorithm` would otherwise be read as `--algorithms`.
    sub = commands.add_parser(
        "bench", help="time algorithms on generated instances", allow_abbrev=False
    )
    sub.add_argument(
        "--algorithms",
        type=_algorithm_names,
        required=True,
        help="comma-separated names",
    )
    sub.add_argument("--n", type=int, nargs="+", required=True)
    sub.add_argument("--k-max", type=int, default=4)
    sub.add_argument("--k-fixed", type=int, default=None)
    sub.add_argument("--cost-max", type=int, default=20)
    sub.add_argument("--inf-prob", type=float, default=0.0)
    sub.add_argument("--seeds", type=int, nargs="+", default=[0])
    sub.add_argument("--output", default=None)
    sub.set_defaults(handler=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("MVTSP_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
