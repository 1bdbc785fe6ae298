"""Spans around the program's public entry points, installed at run time.

The benchmark measures every layer from outside ``src/``: :func:`install`
replaces a layer's entry point (a method on its class, or a function name
in the module that calls it) with a wrapper that records one span per call
— name, start, end, parent span and stream-transaction id — into a
per-thread in-memory list.  Nothing is written until the run ends
(:meth:`Tracer.dump`).  A layer's *self time* is its spans' duration minus
the part their child spans cover (:meth:`Tracer.summarize`).

End-to-end metrics are always measured with tracing off; the traced run
reports ``trace.overhead_ratio`` so the distortion is visible.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from typing import Callable

# span record layout (a list, filled in place when the call returns)
NAME, START, END, PARENT, TXN = range(5)


class _ThreadSpans:
    __slots__ = ("thread", "spans", "stack")

    def __init__(self, thread: str):
        self.thread = thread
        self.spans: list[list] = []
        self.stack: list[int] = []


class Tracer:
    """Collects spans and per-layer counts for one traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._patched: list[tuple[object, str, object]] = []
        #: free-form counts recorded at span boundaries
        #: (``<span name>.in`` / ``.out`` event counts, observed peaks)
        self.counts: dict[str, float] = {}
        #: raw observations kept for percentiles (e.g. queue depths)
        self.samples: dict[str, list[float]] = {}
        #: last value observed per object, for counters that live on
        #: operator instances (summed over instances when read)
        self.per_object: dict[str, dict[object, float]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        *,
        txn_of: Callable[[tuple], object] | None = None,
        count_io: bool = False,
        after: Callable[[tuple, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``txn_of(args)`` names the stream transaction a span starts;
        spans without one inherit their parent's.  ``count_io`` adds the
        sizes of the second positional argument and of the result to
        ``counts`` (operators take and return event lists).  ``after``
        observes ``(args, result)`` once the call returned normally.
        """
        original = getattr(owner, attribute)
        clock = time.perf_counter
        spans_of = self._spans
        counts = self.counts
        key_in, key_out = name + ".in", name + ".out"

        def traced(*args, **kwargs):
            state = spans_of()
            spans, stack = state.spans, state.stack
            parent = stack[-1] if stack else -1
            if txn_of is not None:
                txn = txn_of(args)
            else:
                txn = spans[parent][TXN] if parent >= 0 else None
            record = [name, 0.0, 0.0, parent, txn]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if count_io:
                counts[key_in] = counts.get(key_in, 0) + len(args[1])
                counts[key_out] = counts.get(key_out, 0) + len(result)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attribute)
        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def observe_peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def observe_sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def observe_object(self, key: str, obj: object, value: float) -> None:
        self.per_object.setdefault(key, {})[obj] = value

    def object_total(self, key: str) -> float:
        return sum(self.per_object.get(key, {}).values())

    def uninstall(self) -> None:
        """Put every replaced entry point back."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def summarize(self) -> dict[str, dict[str, float]]:
        """``{span name: {count, total_ms, self_ms}}`` over all threads.

        Self time is duration minus the direct children's durations;
        children are recorded strictly inside their parent on the same
        thread, so it is never negative beyond clock resolution.
        """
        layers: dict[str, dict[str, float]] = {}
        for state in list(self._threads):
            spans = state.spans
            child_time = [0.0] * len(spans)
            for record in spans:
                if record[PARENT] >= 0:
                    child_time[record[PARENT]] += record[END] - record[START]
            for index, record in enumerate(spans):
                duration = record[END] - record[START]
                layer = layers.setdefault(
                    record[NAME], {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
                )
                layer["count"] += 1
                layer["total_ms"] += duration * 1000.0
                layer["self_ms"] += (duration - child_time[index]) * 1000.0
        return layers

    def durations_ms(self, name: str) -> list[float]:
        """Every span duration of one name, for percentiles."""
        return [
            (record[END] - record[START]) * 1000.0
            for state in list(self._threads)
            for record in state.spans
            if record[NAME] == name
        ]

    def view(self) -> dict:
        """Everything but the spans: per-layer times and what the
        wrappers counted (the shape ``dump`` writes, too)."""
        return {
            "layers": self.summarize(),
            "counts": self.counts,
            "samples": self.samples,
            "objects": {k: self.object_total(k) for k in self.per_object},
        }

    def dump(self, path: str, **extra) -> None:
        """Write spans (and ``extra``) as JSON.

        ``spans`` rows are ``[thread, index, name, start_s, end_s, parent,
        txn]``; ``parent`` is the ``index`` of the enclosing span on the
        same thread, or -1.
        """
        rows = []
        for state in list(self._threads):
            for index, record in enumerate(state.spans):
                rows.append([
                    state.thread,
                    index,
                    record[NAME],
                    record[START],
                    record[END],
                    record[PARENT],
                    record[TXN],
                ])
        payload = {**self.view(), **extra, "spans": rows}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, default=str)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def _resolve(module_name: str, class_name: str | None):
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def install(tracer: Tracer, *, net: bool = False) -> None:
    """Wrap the entry point of every layer the benchmark reports on.

    Methods are replaced on their class; functions imported by name are
    replaced in the *calling* module's namespace (that is where the call
    site looks them up).  ``net=True`` adds the TCP front end's layers —
    only the ``repro serve`` child needs those.
    """

    def wrap(module_name, class_name, attribute, name, **options):
        tracer.wrap(_resolve(module_name, class_name), attribute, name, **options)

    # language: the scenario model builders look parse_query up here
    wrap("repro.linearroad.queries", None, "parse_query", "language.parse")
    wrap("repro.pam.queries", None, "parse_query", "language.parse")
    wrap("bench.workloads", None, "parse_query", "language.parse")

    wrap("repro.runtime.engine", "CaesarEngine", "run", "engine.run")
    wrap("repro.runtime.session", "EngineSession", "feed", "session.feed")
    wrap("repro.runtime.session", "EngineSession", "flush", "session.feed")
    wrap("repro.runtime.session", "EngineSession", "close", "session.close")
    wrap(
        "repro.runtime.backend", "SerialBackend", "execute", "backend.execute",
        txn_of=lambda args: args[1],
    )
    wrap("repro.runtime.router", "ContextAwareStreamRouter", "route",
         "router.route")
    wrap("repro.runtime.router", "ContextAwareStreamRouter", "advance_time",
         "router.advance_time")
    wrap("repro.algebra.relational_ops", "Filter", "process",
         "filter.process", count_io=True)
    wrap("repro.algebra.relational_ops", "Projection", "process",
         "projection.process")
    for class_name in (
        "ContextInitiation", "ContextTermination", "ContextWindowOperator"
    ):
        wrap("repro.algebra.context_ops", class_name, "process",
             "context_ops.process")

    def pattern_state(args, _result):
        tracer.observe_peak("pattern.state_size_peak", args[0].state_size())

    wrap("repro.algebra.pattern", "PatternOperator", "process",
         "pattern.process", count_io=True, after=pattern_state)
    wrap("repro.algebra.pattern", "PatternOperator", "on_time_advance",
         "pattern.process")

    def aggregated(args, _result):
        tracer.observe_object(
            "seq_aggregate.matches_aggregated", args[0],
            args[0].matches_aggregated,
        )

    def materialized(args, _result):
        tracer.observe_object(
            "seq_aggregate.matches_materialized", args[0],
            args[0].matches_materialized,
        )

    wrap("repro.algebra.seq_aggregate", "PatternAggregateOperator", "process",
         "seq_aggregate.process", after=aggregated)
    wrap("repro.algebra.seq_aggregate", "PatternAggregateOperator",
         "on_time_advance", "seq_aggregate.process")
    wrap("repro.algebra.seq_aggregate", "MatchAggregateProjection", "process",
         "seq_aggregate.process", after=materialized)

    wrap("repro.runtime.garbage", "GarbageCollector", "collect", "gc.collect")
    wrap("repro.runtime.reorder", "ReorderBuffer", "push", "reorder.push")
    wrap("repro.runtime.recovery", "RecoveryManager", "checkpoint",
         "checkpoint.capture")

    def queue_depth(args, _result):
        tracer.observe_sample("service.queue_depth", args[0].queue_depth)

    wrap("repro.runtime.service", "EngineService", "submit", "service.submit",
         after=queue_depth)
    wrap("bench.harness", "_EmissionLog", "record", "service.emit_cb")
    wrap("repro.runtime.service", "EngineService", "deploy_query",
         "service.control_op")
    wrap("repro.runtime.service", "EngineService", "retire_query",
         "service.control_op")

    if net:
        wrap("repro.net.server", None, "parse_line", "net.parse_line")
        wrap("repro.net.server", None, "encode_event", "net.encode_event")

        def pending(args, _result):
            tracer.observe_peak("net.resequence_pending_max", args[0].pending)

        wrap("repro.net.server", "Resequencer", "push", "net.resequence_push",
             after=pending)
        wrap("repro.net.server", "NetServer", "emit", "net.emit")
