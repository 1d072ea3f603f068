"""Span tracing at the layer boundaries of the query service.

The tracer wraps the entry points each layer exposes, through the very
module and class attributes the layer above calls at run time, so the
program itself is unchanged and the wrappers come off again after a
traced round.  A span records ``[name, start, end, parent, request]``;
spans are kept in memory and written out only when the benchmark ends.

Two hot inner functions of the para-L route are only *counted*, not
spanned: a span per call there would cost more than the call.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List

import repro.classification.classifier as classifier_module
import repro.eval.executor as executor_module
import repro.homomorphism.treedepth_solver as treedepth_module
import repro.service.telemetry as telemetry_module
from repro.classification.degrees import ComplexityDegree
from repro.cq.query import ConjunctiveQuery
from repro.eval.executor import EvalService, _EvaluationContext
from repro.service.frontend import QueryService
from repro.service.store import SharedStore, TelemetrySink
from repro.structures.structure import Structure

#: Short span names for the solver routes ``solve_with_degree`` dispatches to.
ROUTE_NAMES = {
    ComplexityDegree.PARA_L: "route.para_l",
    ComplexityDegree.PATH_COMPLETE: "route.path",
    ComplexityDegree.TREE_COMPLETE: "route.tree",
    ComplexityDegree.W1_HARD: "route.w1",
}

#: Which layer's self time a span counts toward.
LAYER_OF_SPAN = {
    "frontend.evaluate": "frontend",
    "executor.evaluate": "executor",
    "executor.solve": "executor",
    "cq.canonical": "cq",
    "store.get_or_compute": "store",
    "store.peek": "store",
    "store.put": "store",
    "classify": "classify",
    "classify.core": "classify.core",
    "classify.width": "classify.width",
    "planner": "planner",
    "telemetry.sample": "telemetry",
    "telemetry.record": "telemetry",
    "telemetry.drain": "telemetry",
    **{name: name for name in ROUTE_NAMES.values()},
}

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Identifier shared by every span of one client request; the
        #: traced round sets it before each call.
        self.request = 0
        #: ``id(store) -> "profiles" | "answers"`` for the service under trace.
        self.store_names: Dict[int, str] = {}
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- wrappers -----------------------------------------------------------
    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, function: Callable) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = tracer._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(record)

        return traced

    def _counted(self, name: str, function: Callable) -> Callable:
        counts = self.counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return function(*args, **kwargs)

        return traced

    def _route(self, function: Callable) -> Callable:
        tracer = self

        def traced(pattern, target, degree, profile, *args: Any, **kwargs: Any):
            name = ROUTE_NAMES[degree]
            tracer.counts[name + ".calls"] += 1
            record = tracer._open(name)
            try:
                return function(pattern, target, degree, profile, *args, **kwargs)
            finally:
                tracer._close(record)

        return traced

    def _store_lookup(self, function: Callable) -> Callable:
        """``get_or_compute``: a hit is a return without calling ``compute``."""
        tracer = self

        def traced(store, key, compute, *args: Any, **kwargs: Any):
            computed = []

            def compute_and_note():
                computed.append(True)
                return compute()

            record = tracer._open("store.get_or_compute")
            try:
                return function(store, key, compute_and_note, *args, **kwargs)
            finally:
                tracer._close(record)
                outcome = "misses" if computed else "hits"
                tracer.counts[f"store.{tracer._store_name(store)}.{outcome}"] += 1

        return traced

    def _store_peek(self, function: Callable) -> Callable:
        tracer = self

        def traced(store, key, *args: Any, **kwargs: Any):
            record = tracer._open("store.peek")
            value = None
            try:
                value = function(store, key, *args, **kwargs)
                return value
            finally:
                tracer._close(record)
                outcome = "misses" if value is None else "hits"
                tracer.counts[f"store.{tracer._store_name(store)}.{outcome}"] += 1

        return traced

    def _store_name(self, store: SharedStore) -> str:
        return self.store_names.get(id(store), "other")

    # -- install / remove ---------------------------------------------------
    def _patches(self) -> Iterable[tuple]:
        yield QueryService, "evaluate", lambda f: self._spanned("frontend.evaluate", f)
        yield EvalService, "evaluate", lambda f: self._spanned("executor.evaluate", f)
        yield _EvaluationContext, "solve", lambda f: self._spanned("executor.solve", f)
        yield ConjunctiveQuery, "canonical_structure", lambda f: self._spanned("cq.canonical", f)
        yield executor_module, "classify_structure", lambda f: self._spanned("classify", f)
        yield classifier_module, "compute_core", lambda f: self._spanned("classify.core", f)
        yield (
            classifier_module,
            "width_profile_report_with_forest",
            lambda f: self._spanned("classify.width", f),
        )
        yield executor_module, "plan_query_cached", lambda f: self._spanned("planner", f)
        yield executor_module, "solve_with_degree", self._route
        yield SharedStore, "get_or_compute", self._store_lookup
        yield SharedStore, "peek", self._store_peek
        yield SharedStore, "put", lambda f: self._spanned("store.put", f)
        yield telemetry_module, "make_sample", lambda f: self._spanned("telemetry.sample", f)
        yield TelemetrySink, "record", lambda f: self._spanned("telemetry.record", f)
        yield TelemetrySink, "drain", lambda f: self._spanned("telemetry.drain", f)
        yield (
            treedepth_module,
            "is_partial_homomorphism",
            lambda f: self._counted("hom.partial_checks", f),
        )
        yield (
            Structure,
            "induced_substructure",
            lambda f: self._counted("structures.induced_substructure_calls", f),
        )

    def __enter__(self) -> "Tracer":
        for owner, attribute, wrap in self._patches():
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrap(original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def watch(self, service: QueryService) -> None:
        """Name the stores of the service whose lookups are being traced."""
        self.store_names = {
            id(service.stores.profiles): "profiles",
            id(service.stores.answers): "answers",
        }

    # -- results ------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per layer, each span's duration minus its children's."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                children[span[PARENT]] += span[END] - span[START]
        layers: Counter = Counter()
        for span, inside in zip(self.spans, children):
            layers[LAYER_OF_SPAN[span[NAME]]] += span[END] - span[START] - inside
        return dict(layers)

    def root_seconds(self) -> float:
        """Seconds covered by spans that have no parent."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START] - origin,
                            "end": span[END] - origin,
                            "parent": span[PARENT],
                            "request": span[REQUEST],
                        }
                    )
                    + "\n"
                )

