"""Tests of the benchmark itself: inputs, answer checks, failure
accounting and the traced run.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def runner_for(workload, tmp_path, count=2, seed=7):
    texts = workload.generate(seed)[:count]
    return worker.Runner(workload, texts, worker.write_inputs(texts, tmp_path))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_input_digest(name):
    workload = WORKLOADS[name]
    first = gen.digest(workload.generate(5))
    assert gen.digest(workload.generate(5)) == first
    assert gen.digest(workload.generate(6)) != first


def test_pinned_digests_match_the_generators():
    pins = worker.load_pins()["digests"]
    assert set(pins) == set(WORKLOADS)
    for name, by_seed in pins.items():
        for seed in ("0", "1"):
            assert gen.digest(WORKLOADS[name].generate(int(seed))) == by_seed[seed]


def _altered(report: str, old: str, new: str) -> str:
    assert old in report
    return report.replace(old, new, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_accepts_real_reports_and_flags_altered_ones(name, tmp_path, alarm):
    runner = runner_for(WORKLOADS[name], tmp_path, count=1)
    _, error = runner.op(0)
    assert error is None
    text, outputs = runner.texts[0], runner.outputs
    check = WORKLOADS[name].check
    if name == "classify-deep":
        dropped = text.splitlines()[0]
        altered = [_altered(outputs[0], f"  {dropped}\n", "")]
    elif name == "map-independent":
        objective = next(l for l in outputs[0].splitlines() if l.startswith("objective: "))
        altered = [_altered(outputs[0], objective, objective + "1")]
    else:
        report = json.loads(outputs[0])
        report["objective"] = report["objective"] + "1"
        altered = [json.dumps(report)] + outputs[1:]
    assert check(text, altered) is not None


def test_failures_are_counted_not_raised(tmp_path, alarm):
    workload = dataclasses.replace(WORKLOADS["oracle-sweep"], budget_s=0.05)
    runner = runner_for(workload, tmp_path)

    class Program:
        def __init__(self, behaviour):
            self.behaviour = behaviour

        def main(self, argv):
            if self.behaviour == "crash":
                raise RecursionError("maximum recursion depth exceeded")
            if self.behaviour == "hang":
                time.sleep(5)
            return 2

    for behaviour in ("crash", "exit", "hang"):
        runner.cli = Program(behaviour)
        _, failed, _ = worker.run_for(runner, 0)
        assert failed == [True]
    assert len(runner.errors) == 3
    assert "RecursionError" in runner.errors[0]
    assert "exited 2" in runner.errors[1]
    assert "budget" in runner.errors[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_cover_each_traced_op(name, tmp_path, alarm):
    runner = runner_for(WORKLOADS[name], tmp_path)
    recorder = tracing.Recorder()
    traced, plain, failures = worker.run_traced(runner, recorder, 0)
    assert failures == 0 and len(traced) == len(plain) == 1
    assert not recorder.missing
    assert min(tracing.coverage(recorder.spans, traced)) >= 0.9
    metrics = tracing.per_layer(recorder.spans, len(traced))
    assert set(metrics) | {"trace.overhead_ratio"} == set(tracing.UNITS)
    assert metrics["cli.main.self_s"] > 0


def test_a_missing_function_reads_null(monkeypatch):
    import probel.engine

    monkeypatch.delattr(probel.engine, "extend_closure")
    recorder = tracing.Recorder()
    recorder.install()
    recorder.uninstall()
    assert recorder.missing == ["grounding.extend_closure"]
    metrics = tracing.per_layer([], 1, recorder.missing)
    assert metrics["grounding.extend_closure.s"] is None
    assert metrics["grounding.extend_closure.calls"] is None
    assert metrics["ilp.solve.s"] == 0.0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "map-scaled", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_scaling_divides_by_the_local_slowdown_of_the_reference_loop():
    ref = speed.REFERENCE_S
    cpus = [0.1] * 10
    references = [ref] * 5 + [2 * ref] * 5
    scaled = speed.scaled(cpus, references)
    assert scaled[:3] == pytest.approx([0.1] * 3)
    assert scaled[-3:] == pytest.approx([0.05] * 3)
    # one outlying loop inside the window does not move an op's time
    references[1] = 10 * ref
    assert speed.scaled(cpus, references)[:3] == pytest.approx([0.1] * 3)


def test_rate_is_the_median_over_slices():
    import run

    cpus = [0.1] * 40
    cpus[:8] = [1.0] * 8  # one slow slice
    assert run.median_rate(cpus, [False] * 40) == pytest.approx(10.0)
    assert run.median_rate([0.5, 0.5], [False, True]) == pytest.approx(1.0)
