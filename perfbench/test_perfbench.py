"""Smoke tests of the benchmark itself, on tiny versions of its workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from dataclasses import replace
from typing import List, Optional

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = {
    name: replace(workload, pool_count=10, batch=16, scale=1)
    for name, workload in bench.WORKLOADS.items()
}


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS", TINY)


def tiny_inputs(name: str = "para_l_cold") -> bench.Inputs:
    inputs = bench.build_inputs(TINY[name], seed=3)
    bench.attach_reference(inputs)
    return inputs


def check_nesting(spans: List[list]) -> Optional[str]:
    """Return why ``spans`` do not nest properly, or None when they do."""
    for index, span in enumerate(spans):
        if span[2] < span[1]:
            return f"span {index} ({span[0]}) ends before it starts"
        parent = span[3]
        if parent >= 0:
            outer = spans[parent]
            if parent >= index or span[1] < outer[1] or span[2] > outer[2]:
                return f"span {index} ({span[0]}) lies outside its parent {parent}"
            if span[4] != outer[4]:
                return f"span {index} ({span[0]}) changed request inside its parent"
    return None


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def declared(kind: str) -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def test_benchmark_json_matches_the_metric_tables():
    assert declared("end_to_end") == {n: u for n, (u, _) in bench.END_TO_END.items()}
    assert declared("per_layer") == {n: u for n, (u, _) in bench.PER_LAYER.items()}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(
    tiny_workloads, capsys, tmp_path, workload, trace, kind
):
    status = run.main([
        "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", str(trace), "--out", str(tmp_path),
    ])
    result = last_json_line(capsys.readouterr().out)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= TINY[workload].batch
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == declared(kind)
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        assert os.listdir(tmp_path)


def test_batch_holds_every_pool_query_and_depends_on_the_seed():
    one = bench.build_inputs(TINY["fold_cold"], seed=1)
    two = bench.build_inputs(TINY["fold_cold"], seed=2)
    assert len(one.batch) == TINY["fold_cold"].batch
    assert {str(q) for q in one.batch} == {str(q) for q in one.pool}
    assert [str(q) for q in one.batch] != [str(q) for q in two.batch]
    assert [str(q) for q in one.batch] == [
        str(q) for q in bench.build_inputs(TINY["fold_cold"], seed=1).batch
    ]


def test_cold_check_fires_on_a_warmed_service():
    inputs = tiny_inputs()
    bench.empty_process_caches()
    service = bench.new_service(inputs.database)
    try:
        bench.check_cold(service)
        service.evaluate(inputs.batch)
        with pytest.raises(bench.ColdLeak):
            bench.check_cold(service)
    finally:
        service.close()


def test_cold_check_fires_when_process_caches_outlive_the_service():
    inputs = tiny_inputs()
    bench.empty_process_caches()
    with bench.new_service(inputs.database) as warmed:
        warmed.evaluate(inputs.batch)
    with bench.new_service(inputs.database) as fresh:
        with pytest.raises(bench.ColdLeak, match="plan cache"):
            bench.check_cold(fresh)


def test_a_wrong_reference_answer_counts_as_failed():
    inputs = tiny_inputs()
    inputs.expected[0] = not inputs.expected[0]
    checker = bench.Checker(inputs)
    _, service = bench.cold_sample(inputs, checker)
    service.close()
    assert (checker.attempted, checker.failed) == (len(inputs.batch), 1)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_spans_nest(workload):
    inputs = tiny_inputs(workload)
    checker = bench.Checker(inputs)
    _, layers, tracer = bench.traced_round(inputs, checker)
    assert checker.failed == 0
    assert tracer.spans
    assert check_nesting(tracer.spans) is None
    assert all(seconds >= 0 for seconds in tracer.self_times().values())
    assert 0.9 <= layers["trace.coverage"] <= 1.0


def test_host_speed_probes_inside_a_timed_call_and_restores_the_handler():
    speed = bench.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    step, elapsed = speed.timed(lambda: bench.spin(3_000_000))
    assert step > 0 and elapsed > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert speed._inside
    assert speed.factor() > 0
    assert speed._inside == [] and len(speed.probes) == 2


def test_check_nesting_reports_a_child_outside_its_parent():
    bad = [["outer", 0.0, 1.0, -1, 1], ["inner", 0.5, 1.5, 0, 1]]
    assert "outside its parent" in check_nesting(bad)


def test_tracing_leaves_answers_identical_and_unpatches():
    inputs = tiny_inputs("path_sweep_cold")

    def answers():
        bench.empty_process_caches()
        with bench.new_service(inputs.database) as service:
            return [
                (str(query), result.answer, result.solver, result.degree)
                for query, result in service.evaluate(inputs.batch)
            ]

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.Tracer()._patches()]
    plain = answers()
    with spans.Tracer() as tracer:
        traced = answers()
    assert tracer.spans
    assert traced == plain
    assert all(owner.__dict__[attr] is original for owner, attr, original in originals)
