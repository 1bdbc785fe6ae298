"""The observability facade wired into every engine.

One :class:`Observability` object bundles the three concerns an engine
needs at runtime:

* a :class:`~repro.observability.registry.MetricsRegistry` (or the shared
  no-op registry when metrics are off);
* an optional :class:`~repro.observability.tracing.TraceRecorder` for
  structured spans (``tracing=True``);
* periodic snapshot hooks: every ``snapshot_interval`` batches the engine
  refreshes its gauges and the facade hands a JSON snapshot to each
  ``on_snapshot`` callback — how long runs get scraped mid-flight.

Three intensity levels, cheapest first:

``metrics`` (the default)
    Batch-granularity counters, gauges and latency histograms updated from
    the scheduler thread only.  Cheap enough to stay on by default.
``detailed``
    Adds per-plan wall-time histograms and per-operator cost attribution —
    shard workers time each plan evaluation.
``tracing``
    Adds trace spans (batch / transaction / plan) into the ring recorder.

The engine default is governed by the ``CAESAR_OBSERVABILITY`` environment
variable: unset means metrics-on; ``off`` disables everything (the no-op
registry); ``detailed`` / ``trace`` escalate.  Explicit constructor
arguments always win over the environment.

Worker fan-in mirrors the supervision state protocol: forked shard workers
snapshot a baseline at startup, ship deltas home at end of run, and the
parent absorbs them — deterministic counters end up byte-identical across
the serial and process backends.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    SIZE_BUCKETS,
    TIME_BUCKETS,
)
from repro.observability.tracing import TraceRecorder

#: Environment variable consulted when an engine is built without an
#: explicit observability spec: ``off`` | ``on`` | ``detailed`` | ``trace``.
OBSERVABILITY_ENV_VAR = "CAESAR_OBSERVABILITY"

_OFF_VALUES = frozenset({"off", "0", "false", "none", "disabled"})
_ON_VALUES = frozenset({"", "on", "1", "true", "metrics", "default"})


class _NullSpan:
    """Reusable no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class Observability:
    """Metrics + tracing + snapshot hooks behind one engine-facing handle."""

    def __init__(
        self,
        *,
        metrics: bool = True,
        detailed: bool = False,
        tracing: bool = False,
        trace_capacity: int = 8192,
        snapshot_interval: int | None = None,
        on_snapshot: Callable[[dict], object]
        | Iterable[Callable[[dict], object]]
        | None = None,
        registry: MetricsRegistry | None = None,
        recorder: TraceRecorder | None = None,
    ):
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ValueError(
                f"snapshot_interval must be positive, got {snapshot_interval}"
            )
        if registry is not None:
            self.registry = registry
        else:
            self.registry = MetricsRegistry() if metrics else NULL_REGISTRY
        self.tracing = tracing
        self.detailed = detailed
        if recorder is not None:
            self.recorder = recorder
        else:
            self.recorder = TraceRecorder(trace_capacity) if tracing else None
        self.snapshot_interval = snapshot_interval
        if on_snapshot is None:
            hooks: list[Callable[[dict], object]] = []
        elif callable(on_snapshot):
            hooks = [on_snapshot]
        else:
            hooks = list(on_snapshot)
        self.on_snapshot = hooks
        self.snapshots_emitted = 0

    @property
    def enabled(self) -> bool:
        """True when the metrics registry records anything at all."""
        return self.registry.enabled

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------

    def span(self, name: str, cat: str = "engine", **args):
        """A timed span context manager; free no-op when tracing is off."""
        if self.tracing and self.recorder is not None:
            return self.recorder.span(name, cat, **args)
        return _NULL_SPAN

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def snapshot(self, *, deterministic_only: bool = False) -> dict:
        """A JSON-serializable view of everything observed so far."""
        result: dict = {
            "metrics": self.registry.snapshot(
                deterministic_only=deterministic_only
            ),
        }
        if self.recorder is not None:
            result["trace"] = {
                "recorded": self.recorder.recorded_total,
                "retained": len(self.recorder),
                "dropped": self.recorder.dropped,
            }
        return result

    def snapshot_due(self, batches: int) -> bool:
        """Is a periodic snapshot due after ``batches`` processed batches?"""
        return (
            self.enabled
            and self.snapshot_interval is not None
            and batches > 0
            and batches % self.snapshot_interval == 0
        )

    def emit_snapshot(self, now=None) -> dict:
        """Build a snapshot and hand it to every registered hook."""
        snapshot = self.snapshot()
        if now is not None:
            snapshot["stream_time"] = now
        self.snapshots_emitted += 1
        for hook in self.on_snapshot:
            hook(snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # worker fan-in (process backend)
    # ------------------------------------------------------------------

    def worker_baseline(self) -> dict | None:
        """Fork-time snapshot a shard worker measures its deltas against."""
        if not self.enabled and self.recorder is None:
            return None
        return {
            "metrics": self.registry.baseline(),
            "spans": (
                self.recorder.baseline() if self.recorder is not None else 0
            ),
        }

    def worker_summary(self, baseline: dict | None) -> dict | None:
        """What this (worker-side) facade accumulated beyond ``baseline``."""
        if not self.enabled and self.recorder is None:
            return None
        baseline = baseline or {}
        return {
            "metrics": self.registry.delta(baseline.get("metrics")),
            "spans": (
                self.recorder.since(baseline.get("spans", 0))
                if self.recorder is not None
                else []
            ),
        }

    def absorb_worker(self, summary: dict | None) -> None:
        """Merge a worker's summary into this (parent-side) facade."""
        if not summary:
            return
        self.registry.merge_delta(summary.get("metrics"))
        spans = summary.get("spans")
        if spans and self.recorder is not None:
            self.recorder.absorb(spans)


class NullObservability(Observability):
    """Fully disabled observability: no registry state, no spans, no hooks."""

    def __init__(self):
        super().__init__(metrics=False, registry=NULL_REGISTRY)

    def span(self, name: str, cat: str = "engine", **args):
        return _NULL_SPAN

    def snapshot_due(self, batches: int) -> bool:
        return False

    def worker_baseline(self) -> dict | None:
        return None

    def worker_summary(self, baseline: dict | None) -> dict | None:
        return None

    def absorb_worker(self, summary: dict | None) -> None:
        pass


#: Shared disabled facade (stateless; safe to share between engines).
NULL_OBSERVABILITY = NullObservability()


def resolve_observability(
    spec: "Observability | str | bool | None",
) -> Observability:
    """Turn an observability spec into a facade instance.

    ``None`` consults the ``CAESAR_OBSERVABILITY`` environment variable
    (unset ⇒ metrics on); booleans toggle between default metrics and the
    shared no-op facade; strings name an intensity level (``off`` | ``on``
    | ``detailed`` | ``trace``); instances pass through.  Every resolved
    enabled facade is a *fresh* instance — engines never share registries
    unless the caller passes one explicitly.
    """
    if isinstance(spec, Observability):
        return spec
    if spec is False:
        return NULL_OBSERVABILITY
    if spec is True:
        return Observability()
    if spec is None:
        spec = os.environ.get(OBSERVABILITY_ENV_VAR, "")
    mode = str(spec).strip().lower()
    if mode in _OFF_VALUES:
        return NULL_OBSERVABILITY
    if mode in _ON_VALUES:
        return Observability()
    if mode == "detailed":
        return Observability(detailed=True)
    if mode in ("trace", "tracing", "full"):
        return Observability(detailed=True, tracing=True)
    raise ValueError(
        f"unknown observability mode {spec!r}; choose one of "
        f"'off', 'on', 'detailed', 'trace' "
        f"(or set {OBSERVABILITY_ENV_VAR} accordingly)"
    )


class EngineInstruments:
    """Preregistered instrument handles for the engine hot loop.

    Resolved once at engine construction so the run loop never performs a
    registry lookup; with a disabled registry every handle is the shared
    null instrument and updates are empty method calls.

    Counters are *deterministic* — pure functions of the stream, fanned in
    byte-identically across execution backends.  The batch service/latency
    histograms are not, even under the ``seconds_per_cost_unit`` model:
    parallel backends associate per-shard cost sums differently, so modeled
    service times can differ in the last float ulp.  Timings therefore stay
    out of the ``snapshot(deterministic_only=True)`` parity projection.
    """

    __slots__ = (
        "batches",
        "events",
        "outputs",
        "transactions",
        "empty_timestamps",
        "batch_service",
        "batch_latency",
        "cost_units",
        "suppressed",
        "routed",
        "uninterested",
        "history_discards",
        "gc_reclaimed",
        "gc_runs",
        "partitions",
        "queue_depth",
        "open_windows",
        "windows_total",
        "snapshots",
        "transport_bytes_out",
        "transport_bytes_in",
        "batches_shm",
        "batches_pickled",
    )

    def __init__(self, registry: MetricsRegistry):
        counter = registry.counter
        gauge = registry.gauge
        histogram = registry.histogram
        self.batches: Counter = counter(
            "caesar_batches_total", "Stream batches processed"
        )
        self.events: Counter = counter(
            "caesar_events_total", "Input events processed"
        )
        self.outputs: Counter = counter(
            "caesar_outputs_total", "Complex events derived"
        )
        self.transactions: Counter = counter(
            "caesar_transactions_total", "Stream transactions executed"
        )
        self.empty_timestamps: Counter = counter(
            "caesar_empty_timestamps_total",
            "Timestamps scheduled with no distributable events",
        )
        self.batch_service: Histogram = histogram(
            "caesar_batch_service_seconds",
            "Service time per batch (wall or cost-modeled)",
            buckets=TIME_BUCKETS,
        )
        self.batch_latency: Histogram = histogram(
            "caesar_batch_latency_seconds",
            "Event-time batch latency under the queueing model",
            buckets=TIME_BUCKETS,
        )
        self.cost_units: Counter = counter(
            "caesar_cost_units_total", "Operator cost units spent"
        )
        self.suppressed: Counter = counter(
            "caesar_batches_suppressed_total",
            "Plan dispatches suppressed by context suspension",
        )
        self.routed: Counter = counter(
            "caesar_batches_routed_total", "Plan dispatches executed"
        )
        self.uninterested: Counter = counter(
            "caesar_batches_uninterested_total",
            "Plan dispatches skipped by interest-set routing",
        )
        self.history_discards: Counter = counter(
            "caesar_history_discards_total",
            "Partial matches discarded on context termination",
        )
        self.gc_reclaimed: Counter = counter(
            "caesar_gc_reclaimed_total",
            "State items reclaimed by the garbage collector",
        )
        self.gc_runs: Counter = counter(
            "caesar_gc_runs_total", "Garbage collection runs"
        )
        self.partitions: Gauge = gauge(
            "caesar_partitions", "Stream partitions observed"
        )
        self.queue_depth: Gauge = gauge(
            "caesar_queue_depth",
            "Events pending in partition queues after batch admission",
        )
        self.open_windows: Gauge = gauge(
            "caesar_open_windows", "Currently open context windows"
        )
        self.windows_total: Gauge = gauge(
            "caesar_context_windows", "Context windows observed (open+closed)"
        )
        self.snapshots: Counter = counter(
            "caesar_snapshots_total", "Periodic observability snapshots emitted"
        )
        # Transport diagnostics: how events moved between processes, not
        # what the run computed.  Byte counts depend on pickle protocol
        # details and ring geometry, so like the timing histograms they
        # are non-deterministic and stay out of the parity projection.
        self.transport_bytes_out: Counter = counter(
            "caesar_transport_bytes_out_total",
            "Bytes shipped to shard workers (shm frames + pipe messages)",
            deterministic=False,
        )
        self.transport_bytes_in: Counter = counter(
            "caesar_transport_bytes_in_total",
            "Bytes shipped back from shard workers",
            deterministic=False,
        )
        self.batches_shm: Counter = counter(
            "caesar_batches_shm_total",
            "Event batches placed in a shared-memory ring",
            deterministic=False,
        )
        self.batches_pickled: Counter = counter(
            "caesar_batches_pickled_fallback_total",
            "Event batches that fell back to pipe pickling",
            deterministic=False,
        )
