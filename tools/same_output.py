"""Fingerprint the solution files a source tree writes, to check that a
change leaves `mvtsp solve` output byte-identical.

    python3 tools/same_output.py SRC_DIR > after.txt

SRC_DIR is a `src/` directory holding the `mvtsp` package.  Run it once on
each tree and compare the outputs with `diff`, or check one tree against
the committed fingerprints:

    python3 tools/same_output.py src | diff -u tools/same_output.txt -

CI runs that check.  A change that means to alter a solution file, such as
which of several equal-cost trees `dc2` keeps, regenerates the file with
`python3 tools/same_output.py src > tools/same_output.txt` and lists the
changed names in CHANGES.md.  Every solve goes through
`mvtsp.cli.main(["solve", ...])`; each output line is the sha256 of one
solve's exit code, standard error and solution file, then its name, and
the last line is the sha256 of all of them.  The set:

- `dp` on the 16-seed pool of every perfbench workload, with the generator
  arguments read from `perfbench/workloads.py`;
- `dc2` on the dc2-tree and walk-io pools;
- `dp` and `dc2` on the n <= 5 seeds of the acceptance test
  `test_oracle_equivalence_across_algorithms`;
- `dc2` on 16 seeds each of n = 6 to 9 with costs in 0..3, arcs infinite
  with probability 0.15 and every quota 1, and on 4 seeds of n = 8 with the
  same costs and every quota 2.  Such small costs tie many trees of a
  profile, so these lines show a change in which tied tree `dc2` keeps; the
  pools above rarely do.  From n = 8 on, a split's far side is large
  enough to split again, and quota 2 gives boundaries of two vertices, so
  these lines also reach nested splits;
- `dp` and `dc2` with `--root n-1` on 16 seeds each of n = 4 and 5, with
  the oracle set's generator arguments.  Every other line solves at root
  0; these show a change in the root's reservation in the sweep and in a
  tour that starts at another city.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: n -> trials of `test_oracle_equivalence_across_algorithms`, up to n = 5.
ORACLE_PLAN = {2: 95, 3: 75, 4: 60, 5: 45}

#: City counts and seeds per count of the tie-heavy `dc2` set.
TIE_SIZES = (6, 7, 8, 9)
TIE_SEEDS = 16

#: City count and seeds of the tie-heavy `dc2` set with every quota 2.
TIE2_SIZE = 8
TIE2_SEEDS = 4

#: City counts and seeds per count of the set solved at root n - 1.
ROOT_SIZES = (4, 5)
ROOT_SEEDS = 16


def cases():
    """Yield (name, generator arguments, `solve` options) for every solve."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import POOL, WORKLOADS

    for wl in WORKLOADS.values():
        algorithms = ["dp"]
        if wl.name in ("dc2-tree", "walk-io"):
            algorithms.append("dc2")
        for algorithm in algorithms:
            for seed in range(POOL):
                args = wl.generator_args(seed)
                flags = ["--algorithm", algorithm]
                yield f"{wl.name}/{seed}/{algorithm}", args, flags
    for n, count in ORACLE_PLAN.items():
        for trial in range(count):
            seed = 10_000 * n + trial
            args = dict(n=n, k_max=4, cost_max=20, inf_prob=0.1, seed=seed)
            for algorithm in ("dp", "dc2"):
                flags = ["--algorithm", algorithm]
                yield f"oracle/{n}/{trial}/{algorithm}", args, flags
    for n in TIE_SIZES:
        for seed in range(TIE_SEEDS):
            args = dict(
                n=n, k_max=4, cost_max=3, inf_prob=0.15, seed=seed, k_fixed=1
            )
            yield f"ties/{n}/{seed}/dc2", args, ["--algorithm", "dc2"]
    for seed in range(TIE2_SEEDS):
        args = dict(
            n=TIE2_SIZE, k_max=4, cost_max=3, inf_prob=0.15, seed=seed, k_fixed=2
        )
        yield f"ties2/{TIE2_SIZE}/{seed}/dc2", args, ["--algorithm", "dc2"]
    for n in ROOT_SIZES:
        for seed in range(ROOT_SEEDS):
            args = dict(n=n, k_max=4, cost_max=20, inf_prob=0.1, seed=seed)
            for algorithm in ("dp", "dc2"):
                flags = ["--algorithm", algorithm, "--root", str(n - 1)]
                yield f"roots/{n}/{seed}/{algorithm}", args, flags


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import mvtsp.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"mvtsp imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    total = sha256()
    count = 0
    with tempfile.TemporaryDirectory() as work:
        instance = Path(work) / "instance.txt"
        solution = Path(work) / "solution.txt"
        for name, args, flags in cases():
            inst = cli.generate_instance(**args)
            instance.write_text(cli.format_instance(inst))
            solution.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(
                    ["solve", "--input", str(instance), "--output", str(solution)]
                    + flags
                )
            digest = sha256(f"{rc}\n{err.getvalue()}\n".encode())
            if solution.exists():
                digest.update(solution.read_bytes())
            print(f"{digest.hexdigest()}  {name}")
            total.update(digest.digest())
            count += 1
    print(f"{total.hexdigest()}  total of {count} solves")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
