"""Record `pinned.json`: digest and optimal cost of every pool instance.

    python3 perfbench/record.py

Run it only when a workload is added or changed on purpose; run.py refuses
to run a workload whose generated instances no longer match their digests.
Costs come from the workload's own algorithm and, where it names one, must
agree with its second tree backend.
"""

from __future__ import annotations

import json
import sys
from hashlib import sha256

from workloads import PINS, POOL, ROOT, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

from mvtsp.cli import format_instance, generate_instance  # noqa: E402
from mvtsp.solvers import SolverConfig, solve  # noqa: E402


def optimum(inst, algorithm: str):
    return solve(inst, SolverConfig(algorithm=algorithm, expansion_threshold=0)).cost


def main() -> None:
    pins = {}
    for wl in WORKLOADS.values():
        entries = []
        for s in range(POOL):
            inst = generate_instance(**wl.generator_args(s))
            cost = optimum(inst, wl.algorithm)
            if wl.reference and optimum(inst, wl.reference) != cost:
                raise SystemExit(f"{wl.name} seed {s}: backends disagree")
            digest = sha256(format_instance(inst).encode()).hexdigest()
            entries.append({"seed": s, "sha256": digest, "cost": cost})
        pins[wl.name] = entries
        print(f"{wl.name}: {POOL} instances pinned", flush=True)
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
