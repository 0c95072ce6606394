"""One workload's set-up or solve loop, in a fresh process started by run.py.

    python3 perfbench/child.py setup WORKLOAD SEED
    python3 perfbench/child.py solve WORKLOAD SEED SECONDS TRACE

Both import `mvtsp` from the checkout's `src` directory.  Messages to the
parent are JSON lines on standard output; whatever the program prints goes
to standard error instead.  The solve loop is closed: after each solve the
child waits for the parent to check the written solution before it starts
the next one, so its peak memory is that of the solves alone.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import resource
import sys
import traceback
from hashlib import sha256
from random import Random
from time import perf_counter

from tracer import Tracer
from workloads import POOL, ROOT, WORK, WORKLOADS, load_pins, pool_order

SRC = ROOT / "src"


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed piece of pure
    Python work (Dijkstra from 250 sources on a dense 24-node graph).

    The host's speed drifts by a factor of up to 1.7 over minutes, and
    wall time with it; run.py divides each timing by the calibration
    measured around it.  Nothing here comes from `mvtsp`, so a change to
    the program cannot move it.
    """
    rng = Random(7)
    n = 24
    weight = [[rng.randint(1, 50) for _ in range(n)] for _ in range(n)]
    gc.disable()
    started = perf_counter()
    try:
        for source in range(250):
            dist = {source % n: 0}
            heap = [(0, source % n)]
            done = set()
            while heap:
                d, u = heapq.heappop(heap)
                if u in done:
                    continue
                done.add(u)
                row = weight[u]
                for v in range(n):
                    nd = d + row[v]
                    if nd < dist.get(v, 1 << 60):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        return perf_counter() - started
    finally:
        gc.enable()


def _checked_source(module) -> None:
    if not os.path.abspath(module.__file__).startswith(str(SRC) + os.sep):
        raise SystemExit(f"imported {module.__file__}, not the checkout's copy")


def setup(wl, seed: int, send) -> None:
    """Import mvtsp, then generate and write the pool in run order (timed)."""
    pins = load_pins(wl.name)
    order = pool_order(seed)
    work = WORK / wl.name
    work.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    before = calibrate()
    started = perf_counter()
    import mvtsp.cli as cli

    texts = {}
    for s in order:
        text = cli.format_instance(cli.generate_instance(**wl.generator_args(s)))
        (work / f"{s}.txt").write_text(text, encoding="utf-8")
        texts[s] = text
    elapsed = perf_counter() - started
    cal = (before + calibrate()) / 2
    _checked_source(cli)
    changed = [
        s
        for s, text in texts.items()
        if sha256(text.encode()).hexdigest() != pins[s]["sha256"]
    ]
    send({"setup_s": elapsed, "cal_s": cal, "changed": changed})


def _certificate(sol) -> dict | None:
    cert = sol.certificate if sol is not None else None
    if cert is None:
        return None
    return {
        "cost": cert.cost,
        "flow": [list(e) for e in cert.flow.edges()],
        "pi_source": list(cert.pi_source),
        "pi_sink": list(cert.pi_sink),
    }


def solve_loop(wl, seed: int, seconds: float, trace: bool, send, receive) -> None:
    sys.path.insert(0, str(SRC))
    import mvtsp.cli as cli

    _checked_source(cli)
    work = WORK / wl.name
    output = str(work / "solution.txt")
    order = pool_order(seed)
    # Keep what `mvtsp.cli` got back from `solve`, so the parent can check
    # the transport certificate, which the solution file does not hold.
    results = []
    solve = cli.solve

    def keep(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    cal = [calibrate()]

    def one(s: int, run, timed: bool = True) -> float:
        argv = ["solve", "--input", str(work / f"{s}.txt"), "--output", output]
        argv += ["--algorithm", wl.algorithm]
        results.clear()
        if os.path.exists(output):
            os.remove(output)
        started = perf_counter()
        try:
            rc = run(argv)
        except Exception:  # counted as a wrong solve by the parent
            traceback.print_exc()
            rc = None
        elapsed = perf_counter() - started
        cal.append(calibrate())
        sol = results[-1] if results else None
        send(
            {
                "seed": s,
                "rc": rc,
                "solve_s": elapsed if timed else None,
                "cal_s": (cal[-2] + cal[-1]) / 2,
                "certificate": _certificate(sol),
            }
        )
        results.clear()
        if receive() != "next":
            raise SystemExit("parent stopped the loop")
        return elapsed

    cli.solve = keep
    try:
        # The first solve in a process pays for growing the heap; it is
        # checked but not timed.
        one(order[0], cli.main, timed=False)
        if not trace:
            spent, i = 0.0, 0
            while spent < seconds:
                spent += one(order[i % POOL], cli.main)
                i += 1
            send({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return
        # Each instance is solved untraced and traced back to back, in
        # alternating order, so both see the same machine speed.
        tracer = Tracer()
        untraced, traced = [], []

        def traced_one(s: int) -> None:
            with tracer.installed():
                traced.append(one(s, lambda argv: tracer.solve(cli.main, argv, output)))

        for i in range(wl.trace_solves(seconds)):
            s = order[i % POOL]
            if i % 2:
                traced_one(s)
                untraced.append(one(s, cli.main))
            else:
                untraced.append(one(s, cli.main))
                traced_one(s)
    finally:
        cli.solve = solve
    fired = tracer.fired()
    missing = [name for name in wl.spans if not fired[name]]
    if missing:
        raise SystemExit(
            f"spans never fired on {wl.name}: {missing}; did a call site move?"
        )
    tracer.write(str(WORK / f"spans-{wl.name}-seed{seed}.tsv"))
    layers = tracer.layer_seconds()
    send(
        {
            "metrics": tracer.metrics(),
            "layers": dict(layers),
            "untraced_s": untraced,
            "traced_s": traced,
        }
    )


def main(argv: list[str]) -> None:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    # The program's own prints must not reach the message channel.
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    def receive() -> str:
        return sys.stdin.readline().strip()

    wl = WORKLOADS[name]
    if mode == "setup":
        setup(wl, seed, send)
    else:
        solve_loop(wl, seed, float(argv[3]), argv[4] == "1", send, receive)


if __name__ == "__main__":
    main(sys.argv[1:])
