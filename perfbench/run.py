"""Benchmark of `mvtsp solve`, end to end and layer by layer.

    python3 perfbench/run.py --workload dp-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

BENCHMARK.json lists the workloads, metrics and bounds a run is judged by.

Each workload runs in fresh child processes, one at a time, with one thread
(see workloads.py for what each one loads).  Set-up (importing mvtsp, then
generating and writing the instance files) is timed in `SETUPS` children of
its own.  A further child solves the instances in a closed loop through
`mvtsp.cli.main(["solve", ...])`, from instance file to solution file.  The
parent checks every written solution outside the timed region: the checks
of `mvtsp verify`, the transport dual certificate, and the optimum against
the pinned table and, where the workload names one, a second tree backend.

With `--trace 0` the loop runs for `--seconds` of solving and reports the
end-to-end metrics.  Times are scaled to a reference machine speed: each
timing is divided by a fixed calibration loop timed around it (see
CAL_REF_S), because this class of shared host drifts in speed by up to
1.7x over minutes.  The plain wall-clock median is printed beside them.

With `--trace 1` it solves a fixed list of instances, each once untraced
and once traced (tracer.py), and reports the per-layer metrics: seconds
and counts summed over the traced solves, each layer's share of the traced
self time, and the tracing overhead (median of the traced-to-untraced time
ratios, minus 1).  Every count repeats exactly between runs of one seed.

The last line of standard output is one JSON object with keys `correct`,
`attempted`, `failed` and `metrics`.  Exit status: 0 when every solve was
correct, 1 when one was wrong, 2 when the benchmark could not run (no
`src/mvtsp` beside this directory, or a pinned instance changed).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import threading
import time
from hashlib import sha256
from statistics import median

from checks import certificate_problems, read_instance, read_solution, solution_problems
from tracer import LAYERS as SPAN_LAYERS
from workloads import HELD_OUT_SEED, ROOT, WORK, WORKLOADS, load_pins

#: Set-up repetitions per run; `setup_s` is their median.
SETUPS = 7

#: Every run ends within this many seconds, or fails.
RUN_LIMIT_S = 170.0

#: Seconds the calibration loop (child.calibrate) took on the machine this
#: benchmark was written on (2-core Xeon VM at 2.1 GHz, Python 3.11.7).
#: Every reported time t is t * CAL_REF_S / c, with c the calibration
#: measured around it: seconds at that machine's speed, whatever the host's
#: current speed.
CAL_REF_S = 0.025

#: `mvtsp solve`'s default `--expand-threshold`.
EXPAND_LIMIT = 10**6

LAYERS = tuple(dict.fromkeys(SPAN_LAYERS.values()))

# Per-layer metrics reported with --trace 1, in BENCHMARK.json's order.
PER_LAYER = (
    "transport.calls",
    "transport.s",
    "transport.problem_s",
    "transport.infeasible",
    "transport.flow_arcs",
    "opttree.calls",
    "opttree.s",
    "opttree.inf",
    "opttree.dp_memo_states",
    "degseq.profiles",
    "degseq.s",
    "solvers.tree_ratio",
    "solvers.self_s",
    "euler.expand_s",
    "euler.walk_len",
    "euler.certificate_s",
    "euler.cycles",
    "cli.parse_s",
    "cli.format_s",
    "cli.main_s",
    "cli.bytes_out",
) + tuple(f"share.{layer}" for layer in LAYERS) + ("trace.overhead",)

UNITS = {"solves_per_s": "1/s", "peak_rss_mb": "MB", "solvers.tree_ratio": "ratio"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or name.endswith(".s") or name.startswith("solve_s"):
        return "s"
    if name.startswith(("share.", "trace.")):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


class Child:
    """A child process speaking JSON lines, killed if the run overruns."""

    def __init__(self, args: list[str], deadline: float) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def messages(self):
        for line in self.proc.stdout:
            yield json.loads(line)

    def reply(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def close(self, kill: bool = False) -> None:
        """Wait for the child to end (closing its input ends the loop);
        kill it at once when `kill`, or when the run overruns."""
        self.proc.stdin.close()
        if kill:
            self.proc.kill()
        self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"child {self.proc.args[2:]} exited {self.proc.returncode}")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close(kill=exc[0] is not None)
        except BenchError:
            if exc[0] is None:
                raise


class Checker:
    """Checks each written solution; knows every solve's reference optimum."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.pins = load_pins(wl.name)
        self.second: dict[int, object] = {}
        # Generator seed -> (digest, parsed solution without its tour) of a
        # solution file that passed every check.
        self.verified: dict[int, tuple] = {}
        self.attempted = 0
        self.wrong = 0

    def _second_opinion(self, s: int, text: str):
        """Optimum from the workload's second tree backend, once per instance."""
        if s not in self.second:
            sys.path.insert(0, str(ROOT / "src"))
            from mvtsp.cli import parse_instance
            from mvtsp.solvers import SolverConfig, solve

            config = SolverConfig(algorithm=self.wl.reference, expansion_threshold=0)
            self.second[s] = solve(parse_instance(text), config).cost
        return self.second[s]

    def check(self, msg: dict) -> None:
        self.attempted += 1
        s = msg["seed"]
        if msg["rc"] != 0:
            problems = [f"exit status {msg['rc']}"]
        else:
            problems = self._problems(s, msg["certificate"])
        if problems:
            self.wrong += 1
            print(f"wrong: {self.wl.name} instance {s}: {problems}", file=sys.stderr)

    def _problems(self, s: int, certificate: dict | None) -> list[str]:
        text = (WORK / self.wl.name / f"{s}.txt").read_text(encoding="utf-8")
        n, quotas, cost = read_instance(text)
        data = (WORK / self.wl.name / "solution.txt").read_bytes()
        digest = sha256(data).hexdigest()
        known = self.verified.get(s)
        if known is not None and known[0] == digest:
            # Byte for byte a file that passed every check for this instance.
            solution, problems = known[1], []
        else:
            try:
                solution = read_solution(data.decode())
            except ValueError as exc:
                return [f"unreadable solution: {exc}"]
            problems = solution_problems(solution, n, quotas, cost, EXPAND_LIMIT)
        if certificate is None:
            problems.append("no transport certificate")
        else:
            problems += certificate_problems(certificate, n, quotas, cost, solution)
        expected = [self.pins[s]["cost"]]
        if self.wl.reference:
            expected.append(self._second_opinion(s, text))
        if any(solution[0] != e for e in expected):
            problems.append(f"cost {solution[0]}, reference {expected}")
        if not problems:
            self.verified[s] = (digest, solution[:3] + (None,))
        return problems


def measure_setup(wl, seed: int, deadline: float) -> list[float]:
    times = []
    for _ in range(SETUPS):
        with Child(["setup", wl.name, str(seed)], deadline) as child:
            msgs = list(child.messages())
        if len(msgs) != 1:
            raise BenchError(f"{wl.name}: set-up sent {len(msgs)} messages")
        (msg,) = msgs
        if msg["changed"]:
            raise BenchError(
                f"{wl.name}: generate_instance no longer gives the pinned "
                f"instances for generator seeds {msg['changed']}"
            )
        times.append(msg["setup_s"] * CAL_REF_S / msg["cal_s"])
    return times


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    shutil.rmtree(WORK / wl.name, ignore_errors=True)
    try:
        setups = measure_setup(wl, seed, deadline)
        checker = Checker(wl)
        times, walls, cals, final = [], [], [], None
        with Child(["solve", wl.name, str(seed), str(seconds), str(int(trace))], deadline) as child:
            for msg in child.messages():
                if "seed" not in msg:
                    final = msg
                    continue
                checker.check(msg)
                cals.append(msg["cal_s"])
                if msg["solve_s"] is not None:
                    walls.append(msg["solve_s"])
                    times.append(msg["solve_s"] * CAL_REF_S / msg["cal_s"])
                child.reply("next")
        if final is None:
            raise BenchError(f"{wl.name}: the solve loop ended without a result")
    finally:
        shutil.rmtree(WORK / wl.name, ignore_errors=True)

    wrong_frac = checker.wrong / checker.attempted
    if trace:
        scale = CAL_REF_S / median(cals)
        metrics = traced_metrics(final, scale)
        print(
            f"{wl.name} seed {seed} traced: {len(final['traced_s'])} solves; "
            "self-time shares "
            + ", ".join(f"{layer} {metrics['share.' + layer]:.1%}" for layer in LAYERS)
            + f"; layer self times sum to {metrics['trace.accounted_s']:.4f} s "
            f"per solve against an untraced p50 of {median(final['untraced_s']) * scale:.4f} s "
            f"(overhead {metrics['trace.overhead']:+.1%})"
            f" | wrong_frac {wrong_frac:g} ({checker.wrong}/{checker.attempted})"
        )
        metrics = {name: metrics[name] for name in PER_LAYER}
    else:
        metrics = {
            "solves_per_s": len(times) / sum(times),
            "solve_s.p50": median(times),
            "peak_rss_mb": final["rss_kb"] / 1024,
            "setup_s": median(setups),
        }
        print(
            f"{wl.name} seed {seed}: solves_per_s {metrics['solves_per_s']:.4f} 1/s"
            f" | solve_s.p50 {metrics['solve_s.p50']:.4f} s (n={len(times)})"
            f" | peak_rss_mb {metrics['peak_rss_mb']:.1f} MB"
            f" | setup_s {metrics['setup_s']:.4f} s (n={len(setups)})"
            f" | wrong_frac {wrong_frac:g} ({checker.wrong}/{checker.attempted})"
            f" | wall p50 {median(walls):.4f} s, calibration p50 {median(cals):.4f} s"
        )
    return {
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.wrong,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in metrics.items()},
    }


def traced_metrics(final: dict, scale: float) -> dict[str, float]:
    """Per-layer metrics, seconds multiplied by `scale`."""
    metrics = {
        name: value * scale if unit(name) == "s" else value
        for name, value in final["metrics"].items()
    }
    layers = final["layers"]
    total = sum(layers.values())
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layers.get(layer, 0.0) / total
    metrics["trace.overhead"] = median(
        t / u for t, u in zip(final["traced_s"], final["untraced_s"])
    ) - 1
    metrics["trace.accounted_s"] = total * scale / len(final["traced_s"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument(
        "--seed",
        type=int,
        required=True,
        help=f"shuffles the instance pool; keep {HELD_OUT_SEED} out of development",
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mvtsp" / "__init__.py").is_file():
        print(f"error: no src/mvtsp under {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
