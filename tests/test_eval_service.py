"""Tests for the EVAL(Φ) execution service (:mod:`repro.eval.executor`)."""

import itertools

import pytest

from repro.classification import PlannerConfig
from repro.cq import (
    evaluate_query_set,
    evaluate_query_set_sequential,
    evaluate_query_set_stream,
    parse_query,
)
from repro.eval import AdaptiveController, EvalService, ExecutorConfig
from repro.eval.executor import _chunks
from repro.workloads import scenario_by_name


def triples(results):
    """The byte-comparable projection: (query text, answer, solver)."""
    return [(str(query), result.answer, result.solver) for query, result in results]


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("mixed_vocabulary", count=40, seed=17)


class TestExecutorConfig:
    def test_defaults_resolve_to_at_least_one_worker(self):
        assert ExecutorConfig().effective_workers() >= 1

    def test_zero_workers_resolve_to_one(self):
        assert ExecutorConfig(workers=0).effective_workers() == 1

    @pytest.mark.parametrize(
        "kwargs", [{"workers": -1}, {"chunk_size": 0}, {"inflight_factor": 0}]
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutorConfig(**kwargs)

    def test_chunks_cover_input_in_order(self):
        chunks = list(_chunks(range(10), 3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert list(itertools.chain.from_iterable(chunks)) == list(range(10))


class TestParallelEquivalence:
    def test_parallel_results_byte_identical_to_sequential(self, scenario):
        sequential = evaluate_query_set_sequential(scenario.queries, scenario.database)
        config = ExecutorConfig(workers=2, chunk_size=5, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            parallel = service.evaluate(scenario.queries, mode="parallel")
            # Pool reuse: a second batch over the same service still matches.
            again = service.evaluate(scenario.queries[:10], mode="parallel")
        assert triples(parallel) == triples(sequential)
        assert triples(again) == triples(sequential[:10])

    def test_evaluate_query_set_routes_through_the_service(self, scenario):
        sequential = evaluate_query_set(scenario.queries, scenario.database)
        parallel = evaluate_query_set(scenario.queries, scenario.database, workers=2)
        assert triples(parallel) == triples(sequential)

    def test_small_batches_stay_in_process(self, scenario):
        # Below min_parallel_batch the service must not pay for a pool.
        config = ExecutorConfig(workers=2, min_parallel_batch=1000)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries[:5])
            assert service._pool is None  # no pool was created
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries[:5], scenario.database)
        )

    def test_workers_and_conflicting_executor_config_rejected(self, scenario):
        with pytest.raises(ValueError):
            evaluate_query_set(
                scenario.queries,
                scenario.database,
                workers=3,
                executor=ExecutorConfig(workers=2),
            )


class TestStreaming:
    def test_stream_preserves_input_order(self, scenario):
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            streamed = list(
                service.evaluate_stream(iter(scenario.queries), mode="parallel")
            )
        assert triples(streamed) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )

    def test_stream_is_lazy_on_the_sequential_path(self, scenario):
        consumed = []

        def tracking():
            for query in scenario.queries:
                consumed.append(query)
                yield query

        stream = evaluate_query_set_stream(tracking(), scenario.database)
        first = next(stream)
        assert first[0] is scenario.queries[0]
        # Only a prefix of the input has been pulled, not the whole batch.
        assert len(consumed) < len(scenario.queries)
        stream.close()

    def test_stream_window_bounds_inflight_chunks(self, scenario):
        # With a tiny window the stream still terminates and stays ordered.
        config = ExecutorConfig(
            workers=2, chunk_size=2, min_parallel_batch=1, inflight_factor=1
        )
        with EvalService(scenario.database, executor=config) as service:
            streamed = list(
                service.evaluate_stream(scenario.queries[:12], mode="parallel")
            )
        assert triples(streamed) == triples(
            evaluate_query_set_sequential(scenario.queries[:12], scenario.database)
        )


class TestCostModePlanning:
    def test_cost_mode_answers_match_reference(self, scenario):
        reference = evaluate_query_set_sequential(scenario.queries, scenario.database)
        cost_planned = evaluate_query_set(
            scenario.queries, scenario.database, planner=PlannerConfig(mode="cost")
        )
        # Routes may differ (that is the point); answers may not.
        assert [r.answer for _, r in cost_planned] == [r.answer for _, r in reference]
        assert [str(q) for q, _ in cost_planned] == [str(q) for q, _ in reference]

    def test_service_plan_exposes_estimates(self, scenario):
        service = EvalService(scenario.database, planner=PlannerConfig(mode="cost"))
        plan = service.plan(scenario.queries[0])
        assert plan.mode == "cost"
        assert plan.estimates and plan.cost == min(plan.estimates.values())

    def test_statistics_reflect_query_vocabulary(self):
        scenario = scenario_by_name("grid_walks", count=3, seed=1)
        service = EvalService(scenario.database)
        stats = service.statistics(parse_query("E(x, y)"))
        assert stats.universe_size == 36
        assert stats.relation_sizes["E"] == 120


def many_cpus(monkeypatch):
    import repro.eval.executor as executor_module

    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)


class TestAdaptiveCutover:
    """The executor's one serial/parallel decision, end to end."""

    def test_single_cpu_cuts_over_to_sequential(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        config = ExecutorConfig(workers=2, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries)
            assert service.last_mode == "sequential"
            assert "single CPU" in service.last_mode_reason
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )

    def test_single_worker_takes_the_early_exit(self, scenario):
        with EvalService(scenario.database, executor=ExecutorConfig(workers=1)) as service:
            service.evaluate(scenario.queries[:4])
            assert service.last_mode_reason == "workers <= 1"
            # The single-worker path does no controller bookkeeping.
            assert service.controller.queries_observed == 0

    def test_cold_head_on_cheap_batch_stays_sequential(self, scenario, monkeypatch):
        many_cpus(monkeypatch)
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            # Shipping a chunk costs more than any chunk of this batch.
            service.controller.spawn_overhead_seconds = float("inf")
            results = service.evaluate(scenario.queries)
            assert service.last_mode == "sequential"
            assert "below spawn overhead" in service.last_mode_reason
            assert service._pool is None
            assert service.controller.queries_observed == len(scenario.queries)
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )

    def test_cold_head_on_expensive_batch_goes_parallel(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        many_cpus(monkeypatch)
        in_process = []
        original = executor_module._EvaluationContext.solve

        def counting(context, query, deadline=None):
            in_process.append(query)
            return original(context, query, deadline)

        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            # Any solve outlasts a free spawn: the head stops at once.
            service.controller.spawn_overhead_seconds = 0.0
            with monkeypatch.context() as patch:
                patch.setattr(executor_module._EvaluationContext, "solve", counting)
                results = service.evaluate(scenario.queries)
                assert service._pool is not None
            assert service.last_mode == "parallel"
            assert "above spawn overhead" in service.last_mode_reason
        # Pool workers count into their own copies of the list, so only
        # the parent's in-process head shows up here.
        assert 1 <= len(in_process) <= config.chunk_size
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )

    def test_warm_controller_decides_without_a_head(self, scenario, monkeypatch):
        many_cpus(monkeypatch)
        config = ExecutorConfig(workers=2, chunk_size=4, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            service.controller.observe(1.0, 10, "sequential")  # 0.1 s/query
            mode, reason = service.controller.decide(len(scenario.queries))
            assert mode == "parallel"
            results = service.evaluate(scenario.queries)
            assert service.last_mode == "parallel"
        assert triples(results) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )

    def test_forced_mode_overrides_the_controller(self, scenario, monkeypatch):
        many_cpus(monkeypatch)
        config = ExecutorConfig(workers=2, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            service.controller.spawn_overhead_seconds = float("inf")
            service.evaluate(scenario.queries[:4], mode="parallel")
            assert service.last_mode == "parallel"
            assert service.last_mode_reason == "forced by caller"
            service.controller.spawn_overhead_seconds = 0.0
            service.evaluate(scenario.queries[:4], mode="sequential")
            assert service.last_mode == "sequential"
            assert service.last_mode_reason == "forced by caller"
            # Forced runs are realised timings too.
            assert service.controller.queries_observed == 8

    def test_unknown_forced_mode_rejected(self, scenario):
        with EvalService(scenario.database) as service:
            with pytest.raises(ValueError):
                service.evaluate(scenario.queries[:2], mode="sideways")

    def test_small_batches_record_sequential_mode(self, scenario):
        config = ExecutorConfig(workers=2, min_parallel_batch=1000)
        with EvalService(scenario.database, executor=config) as service:
            service.evaluate(scenario.queries[:4])
            assert service.last_mode == "sequential"
            assert "min_parallel_batch" in service.last_mode_reason

    def test_adaptive_sequential_results_match_reference(self, scenario, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        config = ExecutorConfig(workers=4, min_parallel_batch=1)
        with EvalService(scenario.database, executor=config) as service:
            streamed = list(service.evaluate_stream(iter(scenario.queries)))
        assert triples(streamed) == triples(
            evaluate_query_set_sequential(scenario.queries, scenario.database)
        )


class TestAdaptiveController:
    """The controller's two moving averages and its verdicts, in isolation."""

    def make(self, **kwargs):
        defaults = dict(
            workers=4, chunk_size=10, min_parallel_batch=4, spawn_overhead_seconds=0.01
        )
        defaults.update(kwargs)
        return AdaptiveController(**defaults)

    def test_no_observations_asks_for_a_head(self, monkeypatch):
        many_cpus(monkeypatch)
        mode, reason = self.make().decide(100)
        assert mode is None and "no observations" in reason

    def test_single_cpu_guard(self, monkeypatch):
        import repro.eval.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        controller = self.make()
        controller.observe(1.0, 10, "sequential")
        assert controller.decide(100) == ("sequential", "single CPU")

    def test_small_batches_stay_sequential(self, monkeypatch):
        many_cpus(monkeypatch)
        controller = self.make()
        controller.observe(1.0, 10, "sequential")
        mode, reason = controller.decide(2)
        assert mode == "sequential" and "min_parallel_batch" in reason
        assert controller.decide(0)[0] == "sequential"

    def test_cheap_queries_stay_sequential(self, monkeypatch):
        many_cpus(monkeypatch)
        controller = self.make()
        controller.observe(0.0001 * 20, 20, "sequential")  # 0.1 ms/query
        mode, reason = controller.decide(100)
        assert mode == "sequential" and "below spawn overhead" in reason

    def test_expensive_queries_go_parallel(self, monkeypatch):
        many_cpus(monkeypatch)
        controller = self.make()
        controller.observe(0.01 * 20, 20, "sequential")  # 10 ms/query
        mode, reason = controller.decide(100)
        assert mode == "parallel" and "above spawn overhead" in reason

    def test_parallel_observations_convert_to_serial_equivalent(self):
        controller = self.make()
        # One chunk on 4 workers: (1.0 s − 0.01 s shipping) · 4 / 10 queries.
        controller.observe(1.0, 10, "parallel")
        assert controller.seconds_per_query == pytest.approx(0.396)
        assert controller.queries_observed == 10

    def test_ewma_follows_a_hundredfold_cost_shift(self, monkeypatch):
        many_cpus(monkeypatch)
        controller = self.make()
        for _ in range(20):
            controller.observe(0.0001 * 10, 10, "sequential")
        assert controller.decide(100)[0] == "sequential"
        # The workload turns 100x more expensive...
        for batches in range(1, 4):
            controller.observe(0.01 * 10, 10, "sequential")
            if controller.seconds_per_query >= 0.005:
                break
        assert batches <= 2
        assert controller.decide(100)[0] == "parallel"
        # ...and back: a falling average follows too, within a bounded
        # number of batches.
        for batches in range(1, 17):
            controller.observe(0.0001 * 10, 10, "sequential")
            if controller.seconds_per_query <= 0.0002:
                break
        assert batches <= 13
        assert controller.decide(100)[0] == "sequential"

    def test_empty_observations_are_ignored(self):
        controller = self.make()
        controller.observe(1.0, 0, "sequential")
        assert controller.seconds_per_query is None
        assert controller.queries_observed == 0

    def test_spawn_overhead_blends_from_its_starting_value(self):
        controller = self.make(spawn_overhead_seconds=0.01)
        # 4 workers did 4 s of solver work in 1.2 s of wall time over 2
        # chunks: overhead = (1.2 − 4/4) / 2 = 0.1 s per chunk.
        controller.observe_spawn_overhead(1.2, 4.0, 20)
        assert controller.spawn_overhead_seconds == pytest.approx(0.3 * 0.1 + 0.7 * 0.01)
        assert controller.overhead_observations == 1

    def test_spawn_overhead_never_goes_negative(self):
        controller = self.make(spawn_overhead_seconds=0.0)
        controller.observe_spawn_overhead(0.1, 10.0, 10)
        assert controller.spawn_overhead_seconds == 0.0

    def test_degenerate_overhead_inputs_leave_the_estimate_alone(self):
        controller = self.make(spawn_overhead_seconds=0.01)
        controller.observe_spawn_overhead(1.0, 0.0, 0)
        controller.observe_spawn_overhead(-1.0, 0.0, 10)
        assert controller.spawn_overhead_seconds == 0.01
        assert controller.overhead_observations == 0

    def test_info_is_the_stats_projection(self):
        controller = self.make()
        assert set(controller.info()) == {
            "queries_observed",
            "seconds_per_query",
            "spawn_overhead_seconds",
            "overhead_observations",
        }


class TestMemoisedResults:
    def test_duplicate_queries_share_one_solve(self, scenario):
        calls = []
        import repro.eval.executor as executor_module

        original = executor_module.solve_with_degree

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        with EvalService(scenario.database) as service:
            import unittest.mock as mock

            with mock.patch.object(executor_module, "solve_with_degree", counting):
                duplicated = [scenario.queries[0]] * 5 + [scenario.queries[1]] * 5
                results = service.evaluate(duplicated)
        assert len(calls) <= 2
        assert len(results) == 10
        assert triples(results) == triples(
            evaluate_query_set_sequential(duplicated, scenario.database)
        )


class TestSlimResults:
    def test_slim_results_drop_the_profile(self, scenario):
        from repro.eval import SlimSolveResult

        config = ExecutorConfig(workers=1, slim_results=True)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries[:10])
        reference = evaluate_query_set_sequential(scenario.queries[:10], scenario.database)
        assert all(isinstance(r, SlimSolveResult) for _, r in results)
        assert [(r.answer, r.solver, r.degree) for _, r in results] == [
            (r.answer, r.solver, r.degree) for _, r in reference
        ]
        assert [r.core_certificate for _, r in results] == [
            r.core_certificate for _, r in reference
        ]

    def test_slim_results_pickle_smaller(self, scenario):
        import pickle

        config = ExecutorConfig(workers=1, slim_results=True)
        with EvalService(scenario.database, executor=config) as service:
            slim = [r for _, r in service.evaluate(scenario.queries)]
        full = [
            r for _, r in evaluate_query_set_sequential(scenario.queries, scenario.database)
        ]
        assert len(pickle.dumps(slim)) < len(pickle.dumps(full)) / 2

    def test_slim_results_ship_from_pool_workers(self, scenario):
        from repro.eval import SlimSolveResult

        config = ExecutorConfig(workers=2, min_parallel_batch=1, slim_results=True)
        with EvalService(scenario.database, executor=config) as service:
            results = service.evaluate(scenario.queries[:12], mode="parallel")
        assert all(isinstance(r, SlimSolveResult) for _, r in results)
