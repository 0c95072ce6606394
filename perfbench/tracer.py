"""Spans around the calls `mvtsp.cli` and `mvtsp.solvers` make into each layer.

Wrappers are installed on the names the callers look up at call time and
restored on exit; exceptions pass through them unchanged.  A span is
`[name, start, end, parent index, solve id]`; spans stay in memory and are
written out once, when the run ends.  A layer's self time is the time its
spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter
from time import perf_counter

# Span name -> layer.  "cli.main" is the benchmark's own call of
# `mvtsp.cli.main`, the root of every solve.
LAYERS = {
    "cli.main": "cli",
    "cli.parse_instance": "cli",
    "cli.format_solution": "cli",
    "solvers.solve": "solvers",
    "degseq.next": "degseq",
    "opttree.dp": "opttree",
    "opttree.dc2": "opttree",
    "transport.problem": "transport",
    "transport.solve": "transport",
    "euler.expand": "euler",
    "euler.cycle_certificate": "euler",
}

#: Count metrics; each must repeat exactly between runs of one seed.
COUNTS = (
    "degseq.profiles",
    "opttree.calls",
    "opttree.inf",
    "opttree.dp_memo_states",
    "transport.calls",
    "transport.infeasible",
    "transport.flow_arcs",
    "euler.walk_len",
    "euler.cycles",
    "cli.bytes_out",
)


class Tracer:
    """Spans and counts of the traced solves of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._solve = -1
        self._dp_solvers: dict[int, object] = {}

    def timed(self, name: str, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._solve]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def solve(self, main, argv: list[str], output: str) -> int:
        """Run `main(argv)` as one traced solve writing `output`."""
        self._solve += 1
        try:
            return self.timed("cli.main", main, argv)
        finally:
            for solver in self._dp_solvers.values():
                self.counts["opttree.dp_memo_states"] += len(solver.memo)
            self._dp_solvers.clear()
            if os.path.exists(output):
                self.counts["cli.bytes_out"] += os.path.getsize(output)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced call site, restoring the originals on exit.

        A site that no longer exists raises AttributeError here.
        """
        import mvtsp.cli as cli
        import mvtsp.solvers as solvers
        from mvtsp.transport import TransportInfeasible

        def plain(name, fn):
            return lambda *args, **kwargs: self.timed(name, fn, *args, **kwargs)

        def profiles(fn):
            def wrapper(*args, **kwargs):
                it = iter(fn(*args, **kwargs))
                while True:
                    try:
                        ds = self.timed("degseq.next", next, it)
                    except StopIteration:
                        return
                    self.counts["degseq.profiles"] += 1
                    yield ds

            return wrapper

        def tree(name, fn):
            def wrapper(*args, **kwargs):
                result = self.timed(name, fn, *args, **kwargs)
                cost = result[1] if isinstance(result, tuple) else result
                self.counts["opttree.inf"] += cost == float("inf")
                return result

            return wrapper

        def dp_tree(fn):
            inner = tree("opttree.dp", fn)

            def wrapper(solver, *args, **kwargs):
                self._dp_solvers[id(solver)] = solver
                return inner(solver, *args, **kwargs)

            return wrapper

        def transport(fn):
            def wrapper(*args, **kwargs):
                try:
                    sol = self.timed("transport.solve", fn, *args, **kwargs)
                except TransportInfeasible:
                    self.counts["transport.infeasible"] += 1
                    raise
                self.counts["transport.flow_arcs"] += len(sol.flow.mult)
                return sol

            return wrapper

        def counted(name, fn, metric):
            def wrapper(*args, **kwargs):
                result = self.timed(name, fn, *args, **kwargs)
                self.counts[metric] += len(result)
                return result

            return wrapper

        sites = [
            (cli, "parse_instance", lambda f: plain("cli.parse_instance", f)),
            (cli, "solve", lambda f: plain("solvers.solve", f)),
            (
                cli,
                "cycle_certificate",
                lambda f: counted("euler.cycle_certificate", f, "euler.cycles"),
            ),
            (cli, "format_solution", lambda f: plain("cli.format_solution", f)),
            (solvers, "enumerate_feasible", profiles),
            (solvers, "TransportProblem", lambda f: plain("transport.problem", f)),
            (solvers, "solve_transport", transport),
            (solvers.DpTreeSolver, "solve", dp_tree),
            (solvers, "min_tree_dc2", lambda f: tree("opttree.dc2", f)),
            (
                solvers,
                "eulerian_expand",
                lambda f: counted("euler.expand", f, "euler.walk_len"),
            ),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in sites]
        try:
            for (owner, attr, wrap), (_, _, original) in zip(sites, saved):
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def self_times(self) -> Counter:
        """Self seconds summed per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            out[name] += end - start - inner
        return out

    def fired(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every traced solve, unrounded."""
        own = self.self_times()
        fired = self.fired()
        c = self.counts
        opttree_calls = fired["opttree.dp"] + fired["opttree.dc2"]
        out = {name: c[name] for name in COUNTS}
        out.update(
            {
                "opttree.calls": opttree_calls,
                "transport.calls": fired["transport.solve"],
                "transport.s": own["transport.solve"],
                "transport.problem_s": own["transport.problem"],
                "opttree.s": own["opttree.dp"] + own["opttree.dc2"],
                "degseq.s": own["degseq.next"],
                "solvers.tree_ratio": opttree_calls / c["degseq.profiles"]
                if c["degseq.profiles"]
                else 0.0,
                "solvers.self_s": own["solvers.solve"],
                "euler.expand_s": own["euler.expand"],
                "euler.certificate_s": own["euler.cycle_certificate"],
                "cli.parse_s": own["cli.parse_instance"],
                "cli.format_s": own["cli.format_solution"],
                "cli.main_s": own["cli.main"],
            }
        )
        return out

    def layer_seconds(self) -> Counter:
        out: Counter = Counter()
        for name, seconds in self.self_times().items():
            out[LAYERS[name]] += seconds
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tsolve\n")
            for name, start, end, parent, solve in self.spans:
                handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{solve}\n")
