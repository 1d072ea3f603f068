"""Workloads and measurement phases of the query-service benchmark.

Every workload drives one in-process :class:`repro.service.QueryService`
(one worker, in-process stores, default telemetry, autotune off) through
four phases on one input set: set-up, a cold batch on a fresh service
with every process-wide cache emptied, the whole batch again on the
warmed service, and a closed loop of single-query requests from one
client.  Phases are interleaved round by round, so a slow stretch of the
host lands on every metric alike instead of on one phase.

The host's speed changes by up to 1.8x within seconds and drifts over
minutes, longer than a run, so a run's raw wall times say as much about
the host as about the program.  A short fixed pure-Python loop is
therefore timed between every two phases and, from a timer signal,
inside each cold batch and set-up; each phase's times are scaled to a host on
which one step of that loop takes ``REFERENCE_STEP_S``.  See
``README.md`` next to this file for why each workload was chosen and
how much the scaling steadies.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import signal
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.cq.evaluation import clear_profile_cache, evaluate_query_set_sequential
from repro.cq.query import ConjunctiveQuery
from repro.eval.executor import ExecutorConfig
from repro.eval.planner import clear_plan_cache, plan_cache_info
from repro.service import QueryService
from repro.structures.indexes import structure_index
from repro.workloads import scenario_by_name

from spans import Tracer

T = TypeVar("T")

#: Seconds of set-up timing per second of cold work, in every round; at
#: most ``SETUP_MOST`` set-ups a round.  ``setup_s`` is the median of all.
SETUP_SHARE = 0.1
SETUP_MOST = 41
#: Rounds a run makes even when one round outlasts ``--seconds``.
MIN_ROUNDS = 3
#: Seconds of warm-batch and of warm-request work per second of cold work.
WARM_SHARE = 1 / 3
#: Seconds per step of the probe loop on the reference host that every
#: end-to-end time is scaled to.
REFERENCE_STEP_S = 50e-9
#: Steps of the probe timed between two phases.
PROBE_STEPS = 200_000
#: Steps of the probe timed inside a cold batch or a set-up, every ``SAMPLE_EVERY_S``.
SAMPLE_STEPS = 20_000
SAMPLE_EVERY_S = 0.05
#: Seeded orders the warm requests cycle through, one per pass over the
#: batch.  On ``fold_cold`` the order decides which requests find their
#: pattern in the stores' L1s, so a run averages over many orders.
REQUEST_ORDERS = 16
#: Seconds of warm work between two probes: the host's speed changes
#: within a second, so the warm phases are cut into slices this long.
SLICE_S = 0.2


@dataclass(frozen=True)
class Workload:
    """A query pool from one repository scenario, and a batch drawn from it.

    The pool (the distinct queries of ``scenario`` at ``pool_seed``) and
    the scenario's database are fixed.  The run's seed draws the traffic:
    the batch holds every pool query once plus ``batch - |pool|`` draws,
    in a seeded order.  Cold work is then the same on every seed.
    """

    name: str
    scenario: str
    pool_count: int
    pool_seed: int
    scale: int
    batch: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "para_l_cold",
            "mixed_vocabulary",
            pool_count=150,
            pool_seed=5,
            scale=1,
            batch=400,
            why="random queries over five tables; nearly all cold time is the "
            "para-L (tree-depth) route",
        ),
        Workload(
            "path_sweep_cold",
            "deep_cores",
            pool_count=400,
            pool_seed=0,
            scale=2,
            batch=200,
            why="13-30-variable rigid cores; nearly all cold time is the PATH "
            "join engine, para-L is a few percent",
        ),
        Workload(
            "fold_cold",
            "folded_cores",
            pool_count=4000,
            pool_seed=0,
            scale=1,
            batch=4000,
            why="about 1300 distinct folding patterns; cold time is mostly "
            "classification, the warm set outgrows the store L1s",
        ),
    )
}


@dataclass
class Inputs:
    """One run's inputs: the database, the batch, and the reference answers."""

    database: object
    pool: List[ConjunctiveQuery]
    batch: List[ConjunctiveQuery]
    #: Orders of batch positions; the warm requests take one per pass.
    orders: List["array[int]"]
    expected: List[bool] = field(default_factory=list)


def load_scenario(workload: Workload):
    return scenario_by_name(
        workload.scenario, workload.pool_count, workload.pool_seed, workload.scale
    )


def build_inputs(workload: Workload, seed: int) -> Inputs:
    scenario = load_scenario(workload)
    pool = list({str(query): query for query in scenario.queries}.values())
    rng = random.Random(seed)
    batch = pool + [rng.choice(pool) for _ in range(workload.batch - len(pool))]
    rng.shuffle(batch)
    orders = []
    for _ in range(REQUEST_ORDERS):
        order = list(range(len(batch)))
        rng.shuffle(order)
        orders.append(array("l", order))
    return Inputs(scenario.database, pool, batch, orders)


def new_service(database: object) -> QueryService:
    return QueryService(database, executor=ExecutorConfig(workers=1), shared=False)


def timed_setups(
    workload: Workload, budget: float, out: List[float], speed: HostSpeed
) -> None:
    """Build the scenario's database and a service on it, timing each repeat.

    Repeats until ``budget`` seconds are spent (at least once, at most
    ``SETUP_MOST`` times).  Runs once a round, so the set-ups sample the
    host across the whole run.
    """
    gc.collect()
    spent = 0.0
    for _ in range(SETUP_MOST):
        service, elapsed = speed.timed(
            lambda: new_service(load_scenario(workload).database)
        )
        service.close()
        out.append(elapsed)
        spent += elapsed
        if spent >= budget:
            return


def attach_reference(inputs: Inputs) -> None:
    """Answer every pool query with the sequential reference evaluator.

    Each distinct query is evaluated once; the batch's expected answers
    are looked up by query text.  Runs outside every timed region.
    """
    answers = {
        str(query): result.answer
        for query, result in evaluate_query_set_sequential(inputs.pool, inputs.database)
    }
    inputs.expected = [answers[str(query)] for query in inputs.batch]


class ColdLeak(RuntimeError):
    """A cold sample found cached state that should have been empty."""


def empty_process_caches() -> None:
    clear_plan_cache()
    clear_profile_cache()
    structure_index.cache_clear()


def check_cold(service: QueryService) -> None:
    """Raise :class:`ColdLeak` unless ``service`` and the process caches are empty."""
    plans = plan_cache_info()
    if plans["hits"] != 0 or plans["size"] != 0:
        raise ColdLeak(f"plan cache not cold: {plans}")
    indexes = structure_index.cache_info()
    if indexes.currsize != 0:
        raise ColdLeak(f"structure index cache not cold: {indexes}")
    stores = service.stats()["stores"]
    for store in ("profiles", "answers"):
        if stores[store]["size"] != 0 or stores[store]["l1"]["size"] != 0:
            raise ColdLeak(f"{store} store not cold: {stores[store]}")


class Checker:
    """Counts answers checked against the reference, and mismatches."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0

    def batch(self, results: Sequence[tuple]) -> None:
        expected = self.inputs.expected
        batch = self.inputs.batch
        if len(results) != len(batch):
            raise RuntimeError(f"{len(results)} results for {len(batch)} queries")
        for index, (query, result) in enumerate(results):
            self.one(query is batch[index] and result.answer == expected[index])

    def one(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


@dataclass
class Samples:
    """Timings of one run.  Untraced runs store them scaled by :class:`HostSpeed`."""

    setup: List[float] = field(default_factory=list)
    cold: List[float] = field(default_factory=list)
    #: Unscaled cold seconds, for the diagnostics.
    raw_cold: List[float] = field(default_factory=list)
    #: Seconds per warm batch.
    warm: List[float] = field(default_factory=list)
    #: Request latencies; an array keeps their memory small and fixed per entry,
    #: so it does not blur ``peak_rss_mb``.
    requests: "array[float]" = field(default_factory=lambda: array("d"))
    traced_cold: List[float] = field(default_factory=list)
    layers: List[Dict[str, float]] = field(default_factory=list)


def spin(steps: int) -> float:
    """Seconds per step of a fixed pure-Python loop run for ``steps`` steps."""
    start = time.perf_counter()
    total = 0
    for value in range(steps):
        total += value & 7
    return (time.perf_counter() - start) / steps


def timed(call: Callable[[], T]) -> Tuple[T, float]:
    """``call()``'s result and its wall seconds."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


class HostSpeed:
    """Times the probe loop around and inside phases, to scale them to the reference host.

    The loop runs no repository code, so a change to the program does not
    move it; a change in the host's speed moves it and the phases alike.
    A phase is scaled by the reference speed over the host's mean speed
    during it, as the probes before, inside and after it measured.
    """

    def __init__(self) -> None:
        #: Seconds per step of every probe taken between phases.
        self.probes: List[float] = [spin(PROBE_STEPS)]
        self._inside: List[float] = []
        self._in_handler = 0.0
        self._busy = False

    def factor(self) -> float:
        """The scale for the phase since the previous call; probes again."""
        self.probes.append(spin(PROBE_STEPS))
        steps = [self.probes[-2], *self._inside, self.probes[-1]]
        self._inside = []
        return statistics.fmean(REFERENCE_STEP_S / step for step in steps)

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        entered = time.perf_counter()
        self._inside.append(spin(SAMPLE_STEPS))
        self._in_handler += time.perf_counter() - entered
        self._busy = False

    def timed(self, call: Callable[[], T]) -> Tuple[T, float]:
        """Like :func:`timed`, probing every ``SAMPLE_EVERY_S`` from a timer signal.

        The probes' own time is taken off the call's seconds.
        """
        previous = signal.signal(signal.SIGALRM, self._sample)
        in_handler = self._in_handler
        try:
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            try:
                result = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
        finally:
            signal.signal(signal.SIGALRM, previous)
        return result, elapsed - (self._in_handler - in_handler)


def cold_sample(
    inputs: Inputs,
    checker: Checker,
    tracer: Optional[Tracer] = None,
    speed: Optional[HostSpeed] = None,
) -> Tuple[float, QueryService]:
    """Evaluate the batch on a fresh service with empty caches; keep the service.

    With ``speed``, the batch is probed inside (see :meth:`HostSpeed.timed`).
    """
    empty_process_caches()
    service = new_service(inputs.database)
    check_cold(service)
    if tracer is not None:
        tracer.watch(service)
        tracer.request += 1
    gc.collect()
    results, elapsed = (speed.timed if speed else timed)(
        lambda: service.evaluate(inputs.batch)
    )
    checker.batch(results)
    return elapsed, service


def warm_batches(
    service: QueryService, inputs: Inputs, checker: Checker, budget: float, out: List[float]
) -> float:
    """Re-evaluate the whole batch until ``budget`` seconds are spent (at least once)."""
    gc.collect()
    spent = 0.0
    while True:
        start = time.perf_counter()
        results = service.evaluate(inputs.batch)
        elapsed = time.perf_counter() - start
        checker.batch(results)
        out.append(elapsed)
        spent += elapsed
        if spent >= budget:
            return spent


def warm_requests(
    service: QueryService,
    inputs: Inputs,
    checker: Checker,
    budget: float,
    out: "array[float]",
    offset: int,
    limit: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> int:
    """One client, one ``evaluate([q])`` per request, cycling through the batch.

    Each pass over the batch takes the next of ``inputs.orders``.  Runs
    until ``budget`` seconds of request time are spent or ``limit``
    requests were made; returns the offset to continue from.
    """
    gc.collect()
    batch, expected, orders = inputs.batch, inputs.expected, inputs.orders
    spent, made = 0.0, 0
    while spent < budget and (limit is None or made < limit):
        passes, position = divmod(offset + made, len(batch))
        index = orders[passes % len(orders)][position]
        query = batch[index]
        if tracer is not None:
            tracer.request += 1
        start = time.perf_counter()
        results = service.evaluate([query])
        elapsed = time.perf_counter() - start
        checker.one(
            len(results) == 1
            and results[0][0] is query
            and results[0][1].answer == expected[index]
        )
        out.append(elapsed)
        spent += elapsed
        made += 1
    return offset + made


def keep_going(rounds: int, deadline: float, last_round: float) -> bool:
    """Whether to start another round: until the next one would end about at ``deadline``."""
    return rounds < MIN_ROUNDS or time.perf_counter() + last_round / 2 < deadline


def run_rounds(
    workload: Workload,
    inputs: Inputs,
    seconds: float,
    checker: Checker,
    samples: Samples,
    speed: HostSpeed,
) -> None:
    """Untraced rounds: cold batch, warm batches, warm requests, set-ups — for about ``seconds``.

    Every phase's times, and every slice of a warm phase, are stored
    scaled by ``speed``'s factor for them.
    """
    deadline = time.perf_counter() + seconds
    offset, rounds, last_round = 0, 0, 0.0
    while keep_going(rounds, deadline, last_round):
        began = time.perf_counter()
        cold, service = cold_sample(inputs, checker, speed=speed)
        samples.raw_cold.append(cold)
        samples.cold.append(cold * speed.factor())
        try:
            spent = 0.0
            while spent < cold * WARM_SHARE:
                warm: List[float] = []
                spent += warm_batches(service, inputs, checker, SLICE_S, warm)
                factor = speed.factor()
                samples.warm.extend(elapsed * factor for elapsed in warm)
            spent = 0.0
            while spent < cold * WARM_SHARE:
                latencies: "array[float]" = array("d")
                offset = warm_requests(service, inputs, checker, SLICE_S, latencies, offset)
                spent += sum(latencies)
                factor = speed.factor()
                samples.requests.extend(latency * factor for latency in latencies)
        finally:
            service.close()
        setups: List[float] = []
        timed_setups(workload, cold * SETUP_SHARE, setups, speed)
        factor = speed.factor()
        samples.setup.extend(elapsed * factor for elapsed in setups)
        rounds += 1
        last_round = time.perf_counter() - began


def traced_round(inputs: Inputs, checker: Checker) -> Tuple[float, Dict[str, float], Tracer]:
    """One cold batch, one warm batch and one request per batch entry, traced."""
    with Tracer() as tracer:
        plans_before = plan_cache_info()
        cold, service = cold_sample(inputs, checker, tracer)
        try:
            timed = cold
            tracer.request += 1
            warm: List[float] = []
            timed += warm_batches(service, inputs, checker, 0.0, warm)
            latencies: "array[float]" = array("d")
            warm_requests(
                service, inputs, checker, float("inf"), latencies, 0,
                limit=len(inputs.batch), tracer=tracer,
            )
            timed += sum(latencies)
            stats = service.stats()
        finally:
            service.close()
    plans = plan_cache_info()
    return cold, layer_metrics(tracer, stats, plans, plans_before, cold, timed), tracer


def layer_metrics(
    tracer: Tracer,
    stats: dict,
    plans: Dict[str, int],
    plans_before: Dict[str, int],
    cold: float,
    timed: float,
) -> Dict[str, float]:
    """The per-layer figures of one traced round."""
    layers = tracer.self_times()
    counts = tracer.counts
    names = [span[0] for span in tracer.spans]
    plan_hits = plans["hits"] - plans_before["hits"]
    plan_lookups = plan_hits + plans["misses"] - plans_before["misses"]
    stores = stats["stores"]
    return {
        "route.para_l.s": layers.get("route.para_l", 0.0),
        "route.para_l.calls": counts["route.para_l.calls"],
        "route.path.share": layers.get("route.path", 0.0) / cold,
        "route.path.calls": counts["route.path.calls"],
        "hom.partial_checks": counts["hom.partial_checks"],
        "structures.induced_substructure_calls": counts["structures.induced_substructure_calls"],
        "classify.calls": names.count("classify"),
        "classify.core_s": layers.get("classify.core", 0.0),
        "classify.width_s": layers.get("classify.width", 0.0),
        "cq.canonical_s": layers.get("cq", 0.0),
        "cq.canonical_calls": names.count("cq.canonical"),
        "planner.s": layers.get("planner", 0.0),
        "planner.calls": names.count("planner"),
        "planner.cache_hit_ratio": plan_hits / plan_lookups if plan_lookups else 0.0,
        "store.self_s": layers.get("store", 0.0),
        "store.profiles.hits": counts["store.profiles.hits"],
        "store.profiles.misses": counts["store.profiles.misses"],
        "store.profiles.evictions": stores["profiles"]["evictions"],
        "store.answers.hits": counts["store.answers.hits"],
        "store.answers.misses": counts["store.answers.misses"],
        "store.answers.evictions": stores["answers"]["evictions"],
        "executor.self_s": layers.get("executor", 0.0),
        "frontend.self_s": layers.get("frontend", 0.0),
        "frontend.batches": stats["batches_served"],
        "telemetry.samples": names.count("telemetry.sample"),
        "telemetry.s": layers.get("telemetry", 0.0),
        "trace.coverage": tracer.root_seconds() / timed,
    }


def run_traced(
    inputs: Inputs, seconds: float, checker: Checker, samples: Samples
) -> Tracer:
    """Alternate an untraced cold sample with a traced round for about ``seconds``."""
    deadline = time.perf_counter() + seconds
    rounds, last_round = 0, 0.0
    while keep_going(rounds, deadline, last_round):
        began = time.perf_counter()
        cold, service = cold_sample(inputs, checker)
        service.close()
        samples.raw_cold.append(cold)
        traced_cold, layers, tracer = traced_round(inputs, checker)
        samples.traced_cold.append(traced_cold)
        samples.layers.append(layers)
        rounds += 1
        last_round = time.perf_counter() - began
    return tracer


def host_probe() -> float:
    """Seconds for a longer run of the probe loop, before and after a run: a diagnostic."""
    return spin(2_000_000) * 2_000_000


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cold_batch_s": ("s", "lower"),
    "warm_qps": ("1/s", "higher"),
    "request_p50_us": ("us", "lower"),
    "request_p90_us": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "route.para_l.s": ("s", "lower"),
    "route.para_l.calls": ("count", "lower"),
    "route.path.share": ("ratio", "lower"),
    "route.path.calls": ("count", "lower"),
    "hom.partial_checks": ("count", "lower"),
    "structures.induced_substructure_calls": ("count", "lower"),
    "classify.calls": ("count", "lower"),
    "classify.core_s": ("s", "lower"),
    "classify.width_s": ("s", "lower"),
    "cq.canonical_s": ("s", "lower"),
    "cq.canonical_calls": ("count", "lower"),
    "planner.s": ("s", "lower"),
    "planner.calls": ("count", "lower"),
    "planner.cache_hit_ratio": ("ratio", "higher"),
    "store.self_s": ("s", "lower"),
    "store.profiles.hits": ("count", "higher"),
    "store.profiles.misses": ("count", "lower"),
    "store.profiles.evictions": ("count", "lower"),
    "store.answers.hits": ("count", "higher"),
    "store.answers.misses": ("count", "lower"),
    "store.answers.evictions": ("count", "lower"),
    "executor.self_s": ("s", "lower"),
    "frontend.self_s": ("s", "lower"),
    "frontend.batches": ("count", "lower"),
    "telemetry.samples": ("count", "lower"),
    "telemetry.s": ("s", "lower"),
    "trace.cold_batch_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def end_to_end(samples: Samples, batch: int) -> Dict[str, float]:
    """The end-to-end figures of one untraced run; ``batch`` is the batch length.

    Every time is scaled to the reference host (see :class:`HostSpeed`).
    ``warm_qps`` is all warm-batch queries over all warm-batch seconds.
    """
    return {
        "setup_s": statistics.median(samples.setup),
        "cold_batch_s": statistics.median(samples.cold),
        "warm_qps": batch * len(samples.warm) / sum(samples.warm),
        "request_p50_us": statistics.median(samples.requests) * 1e6,
        "request_p90_us": percentile(samples.requests, 0.90) * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(samples: Samples) -> Dict[str, float]:
    """Medians over the traced rounds, plus the tracing overhead; unscaled."""
    out = {
        name: statistics.median(round_[name] for round_ in samples.layers)
        for name in samples.layers[0]
    }
    out["trace.cold_batch_s"] = statistics.median(samples.traced_cold)
    out["trace.overhead_ratio"] = out["trace.cold_batch_s"] / statistics.median(samples.raw_cold)
    return out


def host_facts() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
