"""Self-tests of the benchmark, kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

They run every workload once at a second seed with tracing on, and check that
the outputs pass, that the known failures are the only ones, and that the
traced counts meant to repeat exactly have their recorded values.  They also
check the span arithmetic, and that the benchmark refuses to run in a
directory without the program.  The full run takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

SECOND_SEED = 2
SIM_STEPS, SIM_SAMPLES = 26181, 263  # simulate --xi golden --set t_final=5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# workload -> (invocations per round, failed per round, traced counts per round)
EXPECTED = {
    "golden": (2, 0, {
        "simulator.steps": SIM_STEPS, "simulator.energy_calls": SIM_SAMPLES,
        "decayfit.samples": SIM_SAMPLES,
        "frequency.solves": 1596, "frequency.quadrature_calls": 31920,
    }),
    "cold-survey": (10, 1, {
        "simulator.steps": 75000, "frequency.roots": 1908, "frequency.char_points": 691931,
        "diophantine.grid_checks": 15, "carleman.evaluate_calls": 600,
    }),
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(EXPECTED))
def test_traced_round_at_second_seed(workload):
    invocations, failed, counts = EXPECTED[workload]
    result = _result(_run("--workload", workload, "--seed", str(SECOND_SEED),
                          "--seconds", "1", "--trace", "1"))
    assert result["correct"]
    assert result["attempted"] == 2 * invocations  # one untraced and one traced round
    assert result["failed"] == 2 * failed
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name, value in counts.items():
        assert metrics[name]["value"] == value, name


def test_end_to_end_metrics_match_the_spec():
    result = _result(_run("--workload", "golden", "--seed", str(SECOND_SEED),
                          "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_run" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("--workload", "golden", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        ["simulator.simulate", 0.0, 10.0, -1, "0", {"steps": 4, "dissipation_rel": 1e-13}],
        ["simulator.energy", 1.0, 3.0, 0, "0", None],
        ["simulator.energy", 4.0, 5.0, 0, "0", None],
        ["diophantine.classify", 20.0, 24.0, -1, "0", None],
        ["diophantine.grid_check", 21.0, 22.0, 3, "0", {"points": 10}],
        ["diophantine.grid_check", 25.0, 26.5, -1, "0", {"points": 7}],
    ]
    totals = tracer.invocation_totals(spans, import_s=0.5)
    assert totals["sim_self_s"] == 7.0
    assert totals["energy_calls"] == 2 and totals["energy_s"] == 3.0
    assert totals["classify_s"] == 5.5  # top-level diophantine spans only
    assert totals["grid_checks"] == 2 and totals["grid_points"] == 17
    metrics = tracer.layer_metrics([totals, totals], overhead_s=0.25)
    assert metrics["simulator.steps"] == 8
    assert metrics["simulator.us_per_step"] == pytest.approx(7.0 / 4 * 1e6)
    assert metrics["simulator.dissipation_rel"] == 1e-13
    assert metrics["cli.import_s"] == 1.0
    assert list(metrics) == list(tracer.PER_LAYER)


def test_wrapper_records_nesting_and_closes_on_error():
    t = tracer.Tracer("7")

    def fail():
        raise ValueError

    outer = t.wrap(lambda: inner(), "outer", None)
    inner = t.wrap(fail, "inner", None)
    with pytest.raises(ValueError):
        outer()
    assert [(s[0], s[3], s[4]) for s in t.spans] == [("outer", -1, "7"), ("inner", 0, "7")]
    assert all(s[2] >= s[1] > 0 for s in t.spans)
    assert t.wrap(len, "len", lambda fn, a, k, r: {"n": r})([1, 2]) == 2
    assert t.spans[-1][5] == {"n": 2} and t.spans[-1][3] == -1
