"""Tests for the query-service front-end (:mod:`repro.service.frontend`)."""

import threading

import pytest

from repro.cq import evaluate_query_set_sequential
from repro.eval import ExecutorConfig
from repro.service import QueryService, TelemetryCursor, TelemetrySink
from repro.workloads import scenario_by_name


def triples(results):
    return [(str(query), result.answer, result.solver) for query, result in results]


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("mixed_vocabulary", count=30, seed=17)


@pytest.fixture(scope="module")
def reference(scenario):
    return evaluate_query_set_sequential(scenario.queries, scenario.database)


class TestServing:
    def test_sequential_service_matches_reference(self, scenario, reference):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            results = service.evaluate(scenario.queries)
        assert triples(results) == triples(reference)

    def test_parallel_service_matches_reference(self, scenario, reference):
        config = ExecutorConfig(workers=2, chunk_size=5, min_parallel_batch=1)
        with QueryService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries, mode="parallel")
        assert triples(results) == triples(reference)

    def test_submit_flush_preserves_submission_order(self, scenario, reference):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            for query in scenario.queries:
                service.submit(query)
            assert service.stats()["pending"] == len(scenario.queries)
            results = service.flush()
            assert service.stats()["pending"] == 0
        assert triples(results) == triples(reference)

    def test_flush_splits_oversized_batches(self, scenario, reference):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), batch_size=7
        ) as service:
            results = service.evaluate(scenario.queries)
            stats = service.stats()
        assert triples(results) == triples(reference)
        # 30 queries at batch_size 7 → 5 batches, each recorded.
        assert stats["batches_served"] == 5
        assert [h["queries"] for h in stats["mode_history"]] == [7, 7, 7, 7, 2]

    def test_invalid_batch_size_rejected(self, scenario):
        with pytest.raises(ValueError):
            QueryService(scenario.database, batch_size=0)


class TestClassificationDedup:
    def test_one_classification_per_distinct_pattern_sequential(self, scenario):
        duplicated = list(scenario.queries) * 3
        distinct = len({q.canonical_structure() for q in duplicated})
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(duplicated)
            service.evaluate(duplicated)  # a second wave changes nothing
            stats = service.stats()
        assert stats["classification_calls"] == distinct
        assert stats["queries_served"] == 2 * len(duplicated)

    def test_one_classification_per_distinct_pattern_across_workers(self, scenario):
        duplicated = list(scenario.queries) * 2
        distinct = len({q.canonical_structure() for q in duplicated})
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
        with QueryService(scenario.database, executor=config) as service:
            service.evaluate(duplicated, mode="parallel")
            stats = service.stats()
        assert stats["shared_stores"] is True
        assert stats["classification_calls"] <= distinct

    def test_answer_store_shares_solves_across_batches(self, scenario):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries)
            first = len(service.telemetry_samples())
            service.evaluate(scenario.queries)
            second = len(service.telemetry_samples())
        # The second wave hit the answer store / memo: no new solves.
        assert first > 0
        assert second == first


class TestUseCacheContract:
    def test_use_cache_false_bypasses_shared_stores(self, scenario):
        from repro.eval import EvalService
        from repro.service import ServiceStores, SharedStore

        stores = ServiceStores(
            profiles=SharedStore.local(), answers=SharedStore.local()
        )
        with EvalService(
            scenario.database, executor=ExecutorConfig(workers=1), stores=stores
        ) as service:
            service.evaluate(scenario.queries[:6], use_cache=False)
        # The promise of use_cache=False is batch-scoped sharing only:
        # nothing may touch (or be served from) the cross-call stores.
        assert stores.profiles.info()["computes"] == 0
        assert len(stores.answers) == 0


class TestStatsEndpoint:
    def test_stats_shape(self, scenario):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries[:5])
            stats = service.stats()
        for key in (
            "queries_served",
            "batches_served",
            "classification_calls",
            "stores",
            "controller",
            "mode_history",
            "calibration",
            "planner_mode",
        ):
            assert key in stats
        assert stats["calibration"] is None
        assert stats["planner_mode"] == "threshold"
        # One worker takes the executor's early exit: no controller work.
        assert stats["controller"]["queries_observed"] == 0
        assert stats["mode_history"][0]["mode"] == "sequential"
        assert stats["mode_history"][0]["reason"] == "workers <= 1"


class TestCalibrationLifecycle:
    def test_calibrate_applies_cost_mode_and_survives_restart(self, scenario, reference, tmp_path):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries)
            result = service.calibrate(min_samples=1)
            assert result.source == "fitted"
            assert service.planner.mode == "cost"
            assert service.stats()["calibration"]["source"] == "fitted"
            # Answers are unchanged under the calibrated planner.
            results = service.evaluate(scenario.queries)
            assert [r.answer for _, r in results] == [
                r.answer for _, r in reference
            ]
            path = str(tmp_path / "calibration.json")
            service.save_calibration(path)
        # A fresh service restarts straight into the calibrated state.
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), calibration=path
        ) as restarted:
            assert restarted.planner.mode == "cost"
            results = restarted.evaluate(scenario.queries[:8])
            assert [r.answer for _, r in results] == [
                r.answer for _, r in reference[:8]
            ]

    def test_save_without_calibration_raises(self, scenario, tmp_path):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            with pytest.raises(ValueError):
                service.save_calibration(str(tmp_path / "nope.json"))

    def test_insufficient_samples_does_not_apply(self, scenario):
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), telemetry=False
        ) as service:
            service.evaluate(scenario.queries[:3])
            result = service.calibrate()
            assert result.source == "insufficient-samples"
            assert service.planner.mode == "threshold"


class TestOneDecision:
    """The front-end leaves serial vs parallel to the executor's controller."""

    def test_service_exposes_the_executor_controller(self, scenario):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            assert service.controller is service._eval.controller

    def test_forced_mode_never_consults_the_controller(self, scenario, reference, monkeypatch):
        config = ExecutorConfig(workers=2, chunk_size=5, min_parallel_batch=1)
        with QueryService(scenario.database, executor=config) as service:

            def refuse(batch_size):
                raise AssertionError("decide() called for a forced batch")

            monkeypatch.setattr(service.controller, "decide", refuse)
            results = service.evaluate(scenario.queries, mode="parallel")
            history = service.stats()["mode_history"]
        assert triples(results) == triples(reference)
        assert history[0]["reason"] == "forced by caller"

    def test_calibration_state_seeds_the_spawn_overhead(self, scenario, tmp_path):
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries)
            service.calibrate(min_samples=1, spawn_overhead_seconds=0.0123)
            path = str(tmp_path / "calibration.json")
            service.save_calibration(path)
        with QueryService(
            scenario.database, executor=ExecutorConfig(workers=1), calibration=path
        ) as restarted:
            assert restarted.controller.spawn_overhead_seconds == 0.0123


class TestTelemetryConsumption:
    def test_route_counter_keeps_counting_once_the_sink_is_full(self, scenario):
        """Every solve reaches the route counter, however small the sink."""
        distinct = []
        seen = set()
        for query in scenario.queries:
            key = (query.canonical_structure(), query.vocabulary())
            if key not in seen:
                seen.add(key)
                distinct.append(query)
        distinct = distinct[:10]
        with QueryService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.stores.telemetry = TelemetrySink.local(max_batches=3)
            for query in distinct:
                service.evaluate([query])
            solves = service.metrics.collect()["repro_route_solves_total"]
        assert len(distinct) == 10
        assert sum(solves["samples"].values()) == len(distinct)

    def test_cursor_reads_each_batch_exactly_once(self):
        sink = TelemetrySink.local(max_batches=2)
        cursor = TelemetryCursor()
        seen = []
        for batch in range(5):
            sink.record([batch, batch])
            seen.extend(sink.drain(cursor))
        assert seen == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
        assert sink.drain(cursor) == []
        # Without a cursor, drain still returns everything retained.
        assert sink.drain() == [3, 3, 4, 4]

    def test_cursor_restarts_on_a_rebound_sink(self):
        sink = TelemetrySink.local()
        cursor = TelemetryCursor()
        for batch in range(3):
            sink.record([batch])
        assert sink.drain(cursor) == [0, 1, 2]
        sink.rebind([], threading.Lock())  # a failover's fresh backing
        sink.record(["new"])
        assert sink.drain(cursor) == ["new"]
