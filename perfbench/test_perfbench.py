"""Tests of the benchmark itself: exact counters, loud tracing, honest checks.

    python3 -m pytest -q perfbench

The traced-run tests start the benchmark twice per workload (about a
minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import certificate_problems, read_solution, solution_problems  # noqa: E402
from run import LAYERS  # noqa: E402
from tracer import COUNTS, Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

import mvtsp.cli as cli  # noqa: E402
import mvtsp.solvers as solvers  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_and_layers_split_as_chosen(name):
    args = ("--workload", name, "--seed", "5", "--seconds", "2", "--trace", "1")
    first, second = last_json(bench(*args)), last_json(bench(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    a, b = first["metrics"], second["metrics"]
    assert {c: a[c]["value"] for c in COUNTS} == {c: b[c]["value"] for c in COUNTS}
    assert a["transport.calls"]["value"] > 0 and a["opttree.calls"]["value"] > 0
    # The split each workload was chosen for, at the commit that added it.
    shares = {layer: a[f"share.{layer}"]["value"] for layer in LAYERS}
    dominant = WORKLOADS[name].dominant
    rest = max(v for layer, v in shares.items() if layer not in dominant)
    assert sum(shares[layer] for layer in dominant) > rest, shares


def test_end_to_end_run_reports_every_metric():
    result = last_json(bench("--workload", "dc2-tree", "--seed", "5", "--seconds", "1", "--trace", "0"))
    assert set(result["metrics"]) == {"solves_per_s", "solve_s.p50", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= 2 and result["failed"] == 0


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dp-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and "{" not in proc.stdout


def test_refuses_changed_instances(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    pins_path = tmp_path / "perfbench" / "pinned.json"
    pins = json.loads(pins_path.read_text())
    pins["walk-io"][7]["sha256"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    proc = bench("--workload", "walk-io", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 2 and "{" not in proc.stdout
    assert "[7]" in proc.stderr


def test_moved_call_site_fails_loudly(monkeypatch):
    monkeypatch.delattr(solvers, "solve_transport")
    with pytest.raises(AttributeError):
        with Tracer().installed():
            pass


def test_wrappers_restored_and_exceptions_unchanged():
    before = (cli.parse_instance, cli.solve, solvers.DpTreeSolver.solve)
    tracer = Tracer()
    with tracer.installed():
        with pytest.raises(cli.FormatError, match="empty instance"):
            cli.parse_instance("")
    assert (cli.parse_instance, cli.solve, solvers.DpTreeSolver.solve) == before
    assert tracer.fired() == {"cli.parse_instance": 1}


def _solved(k_fixed=3):
    inst = cli.generate_instance(4, 3, seed=3, k_fixed=k_fixed)
    sol = solvers.solve(inst)
    text = cli.format_solution(sol, cli.cycle_certificate(sol.edges))
    cert = sol.certificate
    certificate = {
        "cost": cert.cost,
        "flow": [list(e) for e in cert.flow.edges()],
        "pi_source": list(cert.pi_source),
        "pi_sink": list(cert.pi_sink),
    }
    return inst, text, certificate


def _problems(inst, text, certificate):
    quotas, cost = list(inst.k), [list(row) for row in inst.cost]
    solution = read_solution(text)
    return solution_problems(solution, inst.n, quotas, cost, 10**6) + certificate_problems(
        certificate, inst.n, quotas, cost, solution
    )


def test_checks_pass_a_correct_solution():
    assert _problems(*_solved()) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t, c: (t.replace("cost ", "cost 1", 1), c),
        lambda t, c: (t.replace("tour 0 ", "tour 0 0 ", 1), c),
        lambda t, c: (t.rsplit("\n", 2)[0] + "\n", c),
        lambda t, c: (t, {**c, "pi_sink": [p + 1 for p in c["pi_sink"]][:1] + c["pi_sink"][1:]}),
        lambda t, c: (t, {**c, "cost": c["cost"] + 1}),
    ],
    ids=["cost", "tour", "no-tour", "duals", "certificate-cost"],
)
def test_checks_catch_corruptions(corrupt):
    inst, text, certificate = _solved()
    assert _problems(inst, *corrupt(text, certificate))
