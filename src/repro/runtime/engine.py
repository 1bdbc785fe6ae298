"""The CAESAR engines (Section 6).

:class:`CaesarEngine` executes a :class:`~repro.core.model.CaesarModel`
end-to-end: per stream partition it keeps a context window store (the bit
vector), routes each timestamp's batch first through the context *deriving*
plans and then through the context *processing* plans of the currently
active contexts, discards partial matches of terminated windows, and
garbage-collects expired state.  With ``context_aware=False`` and
``optimize=False`` the very same machinery behaves like a state-of-the-art
context-independent engine — every plan receives every batch and the context
window operator sits un-pushed in the middle of each plan.

It is the only run loop: the sharing experiments run a
:class:`~repro.optimizer.sharing.SharedWorkload` on it too, with window
bounds scripted as context transitions (:mod:`repro.runtime.workload`).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from repro.algebra.operators import ExecutionContext, Operator
from repro.algebra.plan import CombinedQueryPlan, clone_operator
from repro.algebra.seq_aggregate import (
    MatchAggregateProjection,
    PatternAggregateOperator,
)
from repro.core.model import CaesarModel
from repro.core.windows import ContextWindow, ContextWindowStore
from repro.errors import RuntimeEngineError
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.events.timebase import TimePoint
from repro.observability import (
    EngineInstruments,
    Observability,
    resolve_observability,
)
from repro.optimizer.apply import OptimizationRules, optimize_combined
from repro.optimizer.planner import (
    AGGREGATION_MODES,
    build_combined_plans,
    build_plans_for_queries,
)
from repro.runtime.backend import ExecutionBackend, RunTotals, resolve_backend
from repro.runtime.garbage import GarbageCollector
from repro.runtime.history import ContextHistory
from repro.runtime.metrics import LatencyTracker
from repro.runtime.queues import EventDistributor, Partitioner, single_partition
from repro.runtime.router import ContextAwareStreamRouter
from repro.runtime.scheduler import TimeDrivenScheduler
from repro.runtime.shedding import LoadShedder, SheddingConfig, resolve_shedding
from repro.runtime.transactions import StreamTransaction


#: ``run()`` keywords that were deprecated aliases for two releases and are
#: now *removed*, mapped to their replacement.  Passing one raises
#: ``TypeError`` naming the replacement instead of silently translating.
_REMOVED_RUN_KWARGS = {
    "collect_outputs": "track_outputs",
    "keep_outputs": "track_outputs",
}


def _reject_unknown_run_kwargs(engine_name: str, kwargs: dict) -> None:
    """Raise ``TypeError`` for any unexpected ``run()`` keyword.

    Removed aliases get a message naming their replacement; anything else
    fails exactly as a plain signature mismatch would, naming the engine
    for a readable message.
    """
    for name in kwargs:
        replacement = _REMOVED_RUN_KWARGS.get(name)
        if replacement is not None:
            raise TypeError(
                f"{engine_name}.run() keyword {name!r} was removed; "
                f"use {replacement!r}"
            )
        raise TypeError(
            f"{engine_name}.run() got an unexpected keyword argument "
            f"{name!r}"
        )


@dataclass
class EngineReport:
    """Outcome of one engine run over a stream."""

    outputs: list[Event]
    events_processed: int
    batches: int
    cost_units: float
    wall_seconds: float
    max_latency: float
    mean_latency: float
    outputs_by_type: dict[str, int] = field(default_factory=dict)
    windows_by_partition: dict[object, list[ContextWindow]] = field(
        default_factory=dict
    )
    suppressed_batches: int = 0
    routed_batches: int = 0
    #: batches skipped by interest-set routing: the plan's context was
    #: active, but the batch contained no event type the plan consumes
    #: (orthogonal to context suspension, context-aware mode only)
    interest_suppressed_batches: int = 0
    gc_collected: int = 0
    history_discards: int = 0
    # -- DERIVE aggregation accounting (Section 4.2's Table 1 extension):
    # -- how many SEQ matches each strategy accounted for.  The two
    # -- counters differ *by construction* between aggregation modes, so
    # -- they are excluded from the cross-run parity projection. ----------
    #: matches folded into running summaries without ever materializing
    matches_aggregated: int = 0
    #: matches enumerated by a pattern operator and aggregated afterwards
    matches_materialized: int = 0
    #: cost units per context across all partitions (deriving + processing),
    #: the observable footprint of suspension: suspended contexts spend 0
    cost_by_context: dict[str, float] = field(default_factory=dict)
    # -- supervision counters (populated by SupervisedEngine; zero for a
    # -- bare engine run) ------------------------------------------------
    #: plan exceptions caught and isolated by the supervisor
    plan_failures: int = 0
    #: distinct plans whose circuit breaker ever opened
    plans_quarantined: int = 0
    #: breaker state transitions, keyed "closed->open" etc.
    breaker_transitions: dict[str, int] = field(default_factory=dict)
    #: dead-lettered events by reason (schema / late / quarantined / ...)
    dead_lettered: dict[str, int] = field(default_factory=dict)
    #: dead-letter entries evicted because the queue was full
    dead_letter_dropped: int = 0
    #: checkpoints autosaved by the recovery manager
    checkpoints_taken: int = 0
    #: times a checkpoint was restored and the stream suffix replayed
    recovery_replays: int = 0
    #: name of the execution backend that produced this report
    backend: str = "serial"
    # -- transport diagnostics (nonzero only for the process backend; they
    # -- describe *how* events moved, not what the run computed, so they are
    # -- excluded from the cross-backend parity projection) ---------------
    #: bytes shipped parent -> workers (shared-memory batch frames + pipe
    #: messages, measured at the transport boundary)
    transport_bytes_out: int = 0
    #: bytes shipped workers -> parent (derived events, summaries)
    transport_bytes_in: int = 0
    #: event batches placed in the shared-memory ring
    batches_shm: int = 0
    #: event batches that fell back to pipe pickling (ring full / shm
    #: unavailable / batch exceeding the ring)
    batches_pickled_fallback: int = 0
    # -- overload management (populated by the load shedder; zeros and an
    # -- empty digest when shedding is off) -------------------------------
    #: events dropped by the load shedder (all classes)
    shed_events: int = 0
    #: events admitted because the decision ladder protected them
    protected_events: int = 0
    #: sheddable events admitted by the sampling hash
    sampled_events: int = 0
    #: events retained solely to keep a partition's transaction clock alive
    shed_ticks: int = 0
    #: shed events by ladder class ("cold" / "warm" / "suspended")
    shed_by_class: dict[str, int] = field(default_factory=dict)
    #: shed events charged to their highest-priority interested context
    shed_by_context: dict[str, int] = field(default_factory=dict)
    #: blake2b over every (timestamp, decision bytes) — byte-identical
    #: across backends for the same seed and stream
    shed_decision_digest: str = ""
    #: controller peaks over the run
    shed_pressure_peak: float = 0.0
    shed_depth_peak: int = 0
    shed_backlog_peak_seconds: float = 0.0
    #: contexts the shedder ever suspended outright (low priority under
    #: extreme pressure)
    suspended_contexts: tuple = ()
    # -- dead-letter drop accounting by the evicted entry's reason --------
    dead_letter_dropped_by_reason: dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Events per wall second."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.events_processed / self.wall_seconds

    def summary(self) -> str:
        output_count = sum(self.outputs_by_type.values())
        return (
            f"events={self.events_processed} batches={self.batches} "
            f"outputs={output_count} cost={self.cost_units:.0f} "
            f"max_latency={self.max_latency:.3f}s "
            f"mean_latency={self.mean_latency:.4f}s "
            f"wall={self.wall_seconds:.3f}s"
        )


@dataclass
class _PartitionRuntime:
    """Per-partition state: window store, routers, history, GC."""

    store: ContextWindowStore
    deriving_router: ContextAwareStreamRouter
    processing_router: ContextAwareStreamRouter
    history: ContextHistory
    gc: GarbageCollector
    preprocessors: list[Operator] = field(default_factory=list)
    closed_seen: int = 0

    def cost_units(self) -> float:
        return (
            self.deriving_router.cost_units
            + self.processing_router.cost_units
            + sum(op.stats.cost_units for op in self.preprocessors)
        )

    def aggregation_counts(self) -> tuple[int, int]:
        """(matches_aggregated, matches_materialized) over all plans."""
        aggregated = 0
        materialized = 0
        for router in (self.deriving_router, self.processing_router):
            for combined in router.all_plans():
                for plan in combined.plans:
                    for operator in plan.operators:
                        if isinstance(operator, PatternAggregateOperator):
                            aggregated += operator.matches_aggregated
                        elif isinstance(operator, MatchAggregateProjection):
                            materialized += operator.matches_materialized
        return aggregated, materialized


class RunState:
    """One run of a :class:`CaesarEngine`, from first batch to report.

    The single driver behind every way of running an engine: constructing
    a ``RunState`` *opens* the run (reset-vs-preserve decision, backend and
    shedder ``begin_run``), :meth:`step` executes one timestamp's batch,
    :meth:`finish` ends the run and builds its :class:`EngineReport`,
    :meth:`abort` ends it without one.  :meth:`CaesarEngine.run` steps it
    once per stream batch; :class:`~repro.runtime.session.EngineSession`
    steps it as its reorder buffer releases timestamps.

    Everything in here is born and dies with a single run; everything on
    the engine (partition runtimes, templates, supervision state) survives
    across timestamps and is reset by :meth:`CaesarEngine.reset_run_state`.
    A run after :func:`~repro.runtime.checkpoint.restore_checkpoint`
    resumes from the restored state instead of resetting it.
    """

    def __init__(self, engine: "CaesarEngine", *, track_outputs: bool = True):
        if engine._runs_started > 0 and not engine._preserve_state_once:
            engine.reset_run_state()
        engine._runs_started += 1
        self.engine = engine
        self.instruments = engine.instruments
        self.track_outputs = track_outputs
        self.latency = LatencyTracker()
        self.outputs: list[Event] = []
        self.outputs_by_type: dict[str, int] = {}
        self.events_processed = 0
        self.batches = 0
        self.wall_started = _time.perf_counter()
        self.distributor = EventDistributor(engine.partition_by)
        self.scheduler = TimeDrivenScheduler(
            self.distributor, instruments=self.instruments
        )
        self.backend = engine.backend.for_engine(engine)
        engine._effective_backend = self.backend
        self.backend.begin_run(engine)
        if engine.shedder is not None:
            engine.shedder.begin_run(
                distributor=self.distributor,
                remote=not self.backend.local_state,
            )

    def record_batch(
        self,
        t: TimePoint,
        incoming: int,
        batch_outputs: list[Event],
        service: float,
    ) -> None:
        latency = self.latency.record(float(t), service)
        self.events_processed += incoming
        self.batches += 1
        instruments = self.instruments
        instruments.batches.inc()
        instruments.events.inc(incoming)
        instruments.outputs.inc(len(batch_outputs))
        instruments.batch_service.observe(service)
        instruments.batch_latency.observe(latency)
        for event in batch_outputs:
            self.outputs_by_type[event.type_name] = (
                self.outputs_by_type.get(event.type_name, 0) + 1
            )
        if self.track_outputs:
            self.outputs.extend(batch_outputs)

    @property
    def wall_seconds(self) -> float:
        return _time.perf_counter() - self.wall_started

    def step(self, t: TimePoint, batch) -> list[Event]:
        """Execute the stream transactions of timestamp ``t``.

        The time-driven scheduler guarantees that context derivation for
        ``t`` completes before context processing starts (Section 6.2),
        per partition; the backend decides whether the partitions'
        transactions run serially or sharded, with outputs merged back in
        deterministic partition order.
        """
        engine = self.engine
        backend = self.backend
        local_state = backend.local_state
        observability = engine.observability
        with observability.span("batch", t=t):
            events = engine._prepare_batch(list(batch), t)
            if events:
                self.distributor.distribute(events)
            self.instruments.queue_depth.set(self.distributor.total_pending())
            # the batch's cost units feed the deterministic latency model
            # and the shedder's backlog model; nobody else pays for them
            shedder = engine.shedder
            metered = (
                shedder is not None
                or engine.seconds_per_cost_unit is not None
            )
            cost_before = (
                engine._total_cost_units() if metered and local_state else 0.0
            )
            wall_before = _time.perf_counter()
            transactions = self.scheduler.collect(t)
            results = backend.execute(t, transactions, engine)
            self.scheduler.commit(transactions)
            batch_outputs = [
                event for outputs in results for event in outputs
            ]
            if not metered:
                cost_delta = 0.0
            elif local_state:
                cost_delta = engine._total_cost_units() - cost_before
            else:
                cost_delta = backend.last_cost_delta
            if engine.seconds_per_cost_unit is not None:
                service = cost_delta * engine.seconds_per_cost_unit
            else:
                service = _time.perf_counter() - wall_before
            self.record_batch(t, len(batch), batch_outputs, service)
            if shedder is not None:
                shedder.note_batch_cost(cost_delta)
                if not local_state:
                    shedder.absorb_remote_feedback(backend.last_shed_feedback)
            engine._on_batch_end(t)
            # Preservation (post-restore) is consumed only once a batch
            # actually committed: a run that aborts before touching state
            # must leave the restored state intact for the retry (the
            # chunk-boundary recall-bug class).
            engine._preserve_state_once = False
        if observability.snapshot_due(self.batches):
            engine._refresh_gauges(self)
            observability.emit_snapshot(t)
            self.instruments.snapshots.inc()
        return batch_outputs

    def finish(self) -> EngineReport:
        """End the run (worker fan-in, ``end_run``) and build its report."""
        engine = self.engine
        backend = self.backend
        engine._preserve_state_once = False
        try:
            totals = backend.collect_totals(engine)
        finally:
            backend.end_run(engine)
        if totals is None:
            totals = engine._local_totals()
        engine._observe_totals(totals)
        engine._refresh_gauges(self, totals)
        report = EngineReport(
            outputs=self.outputs,
            events_processed=self.events_processed,
            batches=self.batches,
            cost_units=totals.cost_units,
            wall_seconds=self.wall_seconds,
            max_latency=self.latency.max_latency,
            mean_latency=self.latency.mean_latency,
            outputs_by_type=self.outputs_by_type,
            windows_by_partition=totals.windows_by_partition,
            suppressed_batches=totals.suppressed_batches,
            routed_batches=totals.routed_batches,
            interest_suppressed_batches=totals.interest_suppressed_batches,
            gc_collected=totals.gc_collected,
            history_discards=totals.history_discards,
            matches_aggregated=totals.matches_aggregated,
            matches_materialized=totals.matches_materialized,
            cost_by_context=totals.cost_by_context,
            backend=backend.name,
            transport_bytes_out=totals.transport_bytes_out,
            transport_bytes_in=totals.transport_bytes_in,
            batches_shm=totals.batches_shm,
            batches_pickled_fallback=totals.batches_pickled_fallback,
        )
        engine._finalize_report(report)
        return report

    def abort(self) -> None:
        """End a failed run without a report (releases backend workers)."""
        self.backend.end_run(self.engine)


class CaesarEngine:
    """Context-aware execution of a CAESAR model.

    Parameters
    ----------
    model:
        The CAESAR model to execute.
    optimize:
        ``True`` applies the context window push-down to every plan
        (Section 5.2); ``False`` leaves the naive Table 1 plans untouched.
        An :class:`~repro.optimizer.apply.OptimizationRules` instance
        switches each rewrite (push-down, filter/projection swap, filter
        reordering, filter merging) individually — the differential
        harness's optimized-vs-unoptimized axis runs on these switches.
    context_aware:
        Route batches only to plans of active contexts (Section 6.2).  With
        both flags False the engine is the context-independent baseline.
    retention:
        Pattern-state retention horizon in stream time units.
    aggregation:
        How aggregating DERIVE queries are evaluated: ``"online"``
        (default) propagates running summaries during pattern evaluation
        without ever enumerating matches; ``"materialize"`` enumerates
        every match and aggregates afterwards (the oracle shape the
        differential harness compares against).  Queries the online
        operator cannot express (negation, cross-variable predicates)
        silently fall back to materialization in both modes.
    partition_by:
        Maps each event to its partition key (e.g. road segment).  Each
        partition gets its own context bit vector and plan instances.
    seconds_per_cost_unit:
        If set, batch service times for the latency model are computed as
        ``cost_units × seconds_per_cost_unit`` (deterministic); otherwise
        measured wall-clock time is used.
    backend:
        How each timestamp's stream transactions execute: an
        :class:`~repro.runtime.backend.ExecutionBackend` instance, a name
        (``"serial"`` | ``"process"``), or ``None`` to consult the
        ``CAESAR_BACKEND`` environment variable (default: serial).  The
        process backend shards by partition and merges outputs
        deterministically, so reports are identical across backends.
    observability:
        An :class:`~repro.observability.Observability` facade, a mode name
        (``"off"`` | ``"on"`` | ``"detailed"`` | ``"trace"``), a boolean,
        or ``None`` to consult the ``CAESAR_OBSERVABILITY`` environment
        variable (default: metrics on).  Deterministic counters are
        byte-identical across backends; worker-local updates fan in at
        end of run exactly like supervision state.
    shedding:
        A :class:`~repro.runtime.shedding.SheddingConfig`, ``True`` for
        defaults, a ``key=value,...`` string, or ``None`` to consult the
        ``CAESAR_SHED`` environment variable (default: off — a strict
        no-op).  When enabled, a deterministic admission controller runs
        in :meth:`_prepare_batch` and sheds cold/warm events under
        overload while protecting context-deriving events and hot partial
        matches (see :mod:`repro.runtime.shedding`).
    """

    def __init__(
        self,
        model: CaesarModel,
        *,
        optimize: bool | OptimizationRules = True,
        context_aware: bool = True,
        retention: TimePoint = 300,
        aggregation: str = "online",
        partition_by: Partitioner = single_partition,
        seconds_per_cost_unit: float | None = None,
        gc_interval: TimePoint = 60,
        preprocessors: tuple[Operator, ...] = (),
        on_context_transition=None,
        backend: ExecutionBackend | str | None = None,
        observability: Observability | str | bool | None = None,
        shedding: SheddingConfig | str | bool | None = None,
    ):
        self.model = model
        #: the per-rule switches actually applied to the plan templates
        self.optimize_rules = OptimizationRules.from_spec(optimize)
        #: truthiness of the rule set — kept as a plain bool because the
        #: checkpoint format verifies it structurally (v2 ``optimize`` flag)
        self.optimize = bool(self.optimize_rules)
        self.context_aware = context_aware
        self.retention = retention
        if aggregation not in AGGREGATION_MODES:
            raise RuntimeEngineError(
                f"unknown aggregation mode {aggregation!r}; expected one of "
                f"{AGGREGATION_MODES}"
            )
        self.aggregation = aggregation
        self.partition_by = partition_by
        self.seconds_per_cost_unit = seconds_per_cost_unit
        self.gc_interval = gc_interval
        #: always-active stages applied to every batch before context
        #: derivation — e.g. the windowed statistics computation every
        #: Linear Road implementation performs (see repro.algebra.aggregate);
        #: cloned per partition, their outputs join the batch
        self.preprocessor_templates = tuple(preprocessors)
        #: optional callback ``fn(partition, kind, window)`` fired
        #: synchronously on every context initiation/termination
        self.on_context_transition = on_context_transition

        self.backend = resolve_backend(backend)
        #: the backend instance actually driving the current/most recent
        #: run — differs from ``self.backend`` only when an env-selected
        #: backend falls back for an incompatible engine (``for_engine``)
        self._effective_backend = self.backend
        self.observability = resolve_observability(observability)
        #: preregistered instrument handles — the run loop touches these
        #: directly, never the registry (no dict lookups on the hot path)
        self.instruments = EngineInstruments(self.observability.registry)

        queries = model.to_query_set()
        deriving = [q for q in queries if q.is_deriving]
        processing = [q for q in queries if q.is_processing]
        self._deriving_templates = self._templates(deriving)
        self._processing_templates = self._templates(processing)
        #: overload management: ``None`` keeps the engine byte-identical
        #: to its pre-shedding behaviour (strict no-op)
        self.shedding = resolve_shedding(shedding)
        self.shedder = (
            LoadShedder(self.shedding) if self.shedding is not None else None
        )
        if self.shedder is not None:
            self.shedder.attach(self)
            self.shedder.bind_metrics(self.observability.registry)
        self._partitions: dict[object, _PartitionRuntime] = {}
        self._runs_started = 0
        #: set by ``restore_checkpoint`` so the next run resumes from the
        #: restored state instead of resetting it
        self._preserve_state_once = False

    # ------------------------------------------------------------------
    # plan construction
    # ------------------------------------------------------------------

    def _templates(self, queries) -> dict[str, CombinedQueryPlan]:
        plans = build_plans_for_queries(
            queries, retention=self.retention, aggregation=self.aggregation
        )
        combined = build_combined_plans(plans)
        if self.optimize_rules:
            combined = [
                optimize_combined(c, self.optimize_rules) for c in combined
            ]
        templates: dict[str, CombinedQueryPlan] = {}
        for plan in combined:
            if plan.context_name is None:
                raise RuntimeEngineError("combined plan without a context")
            templates[plan.context_name] = plan
        return templates

    def _partition(self, key: object) -> _PartitionRuntime:
        runtime = self._partitions.get(key)
        if runtime is not None:
            return runtime
        store = ContextWindowStore(
            self.model.context_names, self.model.default_context
        )
        if self.on_context_transition is not None:
            callback = self.on_context_transition

            def listener(kind, window, _key=key):
                callback(_key, kind, window)

            store.add_listener(listener)
        deriving = {
            name: plan.clone() for name, plan in self._deriving_templates.items()
        }
        processing = {
            name: plan.clone()
            for name, plan in self._processing_templates.items()
        }
        runtime = _PartitionRuntime(
            store=store,
            deriving_router=ContextAwareStreamRouter(
                deriving,
                context_aware=self.context_aware,
                observability=self.observability,
                phase="deriving",
            ),
            processing_router=ContextAwareStreamRouter(
                processing,
                context_aware=self.context_aware,
                observability=self.observability,
                phase="processing",
            ),
            history=ContextHistory(),
            gc=GarbageCollector(
                list(deriving.values()) + list(processing.values()),
                retention=self.retention,
                interval=self.gc_interval,
                reclaimed_counter=self.instruments.gc_reclaimed,
                runs_counter=self.instruments.gc_runs,
            ),
            preprocessors=[
                clone_operator(op) for op in self.preprocessor_templates
            ],
        )
        self._partitions[key] = runtime
        return runtime

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        stream: EventStream,
        *,
        track_outputs: bool = True,
        **unsupported,
    ) -> EngineReport:
        """Process a whole stream and report metrics.

        Opens a :class:`RunState`, steps it once per stream batch and
        finishes it — the same driver an incremental
        :class:`~repro.runtime.session.EngineSession` steps.

        ``run`` is re-entrant: a second call on the same engine starts from
        a clean slate (fresh partition runtimes, zeroed cost and latency
        accounting), so back-to-back runs of the same stream yield
        identical reports.  The one exception is a run immediately after
        :func:`~repro.runtime.checkpoint.restore_checkpoint`, which resumes
        from the restored state.
        """
        if unsupported:
            _reject_unknown_run_kwargs(type(self).__name__, unsupported)
        state = RunState(self, track_outputs=track_outputs)
        try:
            for batch in stream.batches():
                state.step(batch.timestamp, batch)
        except BaseException:
            state.abort()
            raise
        return state.finish()

    def close(self) -> None:
        """Release backend resources (worker pools, shared-memory rings).

        Idempotent; safe on engines whose backend holds no resources.  An
        engine remains usable after ``close()`` — the next :meth:`run`
        simply pays the pool spawn cost again.
        """
        self.backend.close()
        if self._effective_backend is not self.backend:
            self._effective_backend.close()

    def reset_run_state(self) -> None:
        """Discard all state accumulated by previous runs.

        Partition runtimes — window stores, plan instances with their
        partial matches, routers with their cost counters, garbage
        collectors, context histories — are dropped and will be rebuilt
        lazily from the immutable templates, exactly as on a fresh engine.
        """
        self._partitions = {}

    # ------------------------------------------------------------------
    # online deployment (streaming service mode)
    # ------------------------------------------------------------------

    def _guard_plan(
        self, partition_key: object, phase: str, context_name: str, plan
    ):
        """Hook: wrap a plan spliced into a live partition (supervision seam).

        The base engine installs plans bare; :class:`SupervisedEngine`
        overrides this to put a fresh circuit breaker around each one.
        :meth:`_partition` construction routes through the same hook via
        ``wrap_plans``, so initial and online-deployed plans are guarded
        identically.
        """
        return plan

    def _require_local_state(self, operation: str) -> None:
        backend = self.backend.for_engine(self)
        if not (backend.local_state and self._effective_backend.local_state):
            raise RuntimeEngineError(
                f"{operation} requires an execution backend with in-process "
                f"partition state; {self._effective_backend.name!r} keeps "
                "partitions in worker processes"
            )

    def deploy_query(self, query) -> None:
        """Add a query to the live model without restarting the engine.

        The grouping optimizer reruns incrementally — only the combined
        plans of the contexts named in the query's CONTEXT clause are
        rebuilt — and the fresh plans are spliced into every live
        partition's routers with the old plans' pattern state restored, so
        no partial match is lost at the deployment boundary.  The new
        query's own plan starts empty; its activation watermark is the
        next timestamp processed.  Interest sets are read live from the
        spliced plans, so routing (and the shedder's protected-type
        ladder, which is re-attached) picks the query up immediately.
        """
        self._require_local_state("deploy_query")
        self.model.add_query(query)
        affected = set(query.contexts or (self.model.default_context,))
        try:
            self._rebuild_templates_for(affected)
        except Exception:
            self.model.remove_query(query.name)
            raise
        self._splice_partitions(affected)

    def retire_query(self, name: str) -> None:
        """Remove a query from the live model without restarting.

        Contexts whose workload becomes empty lose their combined plan
        entirely; the remaining queries keep their pattern state.
        """
        self._require_local_state("retire_query")
        affected = set(self.model.remove_query(name))
        self._rebuild_templates_for(affected)
        self._splice_partitions(affected)

    def deploy_context(self, name: str) -> None:
        """Declare a new context type on the live engine.

        Every partition's bit vector grows to admit the new name (existing
        bits are carried over); the context has no workload until queries
        are deployed into it.
        """
        self._require_local_state("deploy_context")
        self.model.add_context(name)
        for runtime in self._partitions.values():
            runtime.store.register_context(name)

    def _rebuild_templates_for(self, contexts: set) -> None:
        """Re-run plan building + grouping for the affected contexts only."""
        queries = self.model.to_query_set()
        for attr_name, predicate in (
            ("_deriving_templates", lambda q: q.is_deriving),
            ("_processing_templates", lambda q: q.is_processing),
        ):
            relevant = [
                q
                for q in queries
                if predicate(q) and set(q.contexts) & contexts
            ]
            rebuilt = self._templates(relevant) if relevant else {}
            templates = getattr(self, attr_name)
            for name in contexts:
                if name in rebuilt:
                    templates[name] = rebuilt[name]
                else:
                    templates.pop(name, None)

    def _splice_partitions(self, contexts: set) -> None:
        """Swap the affected contexts' plans into every live partition.

        Each surviving query's plan state is carried over by name
        (``snapshot_state``/``restore_state``); names absent from the old
        snapshot — the newly deployed query — start fresh.
        """
        for key, runtime in self._partitions.items():
            for phase, router, templates in (
                ("deriving", runtime.deriving_router, self._deriving_templates),
                (
                    "processing",
                    runtime.processing_router,
                    self._processing_templates,
                ),
            ):
                for context_name in sorted(contexts):
                    template = templates.get(context_name)
                    old = router.plan_for(context_name)
                    if template is None:
                        if old is not None:
                            router.remove_plan(context_name)
                        continue
                    plan = template.clone()
                    if old is not None:
                        plan.restore_state(old.snapshot_state())
                    router.replace_plan(
                        context_name,
                        self._guard_plan(key, phase, context_name, plan),
                    )
            runtime.gc.set_plans(
                runtime.deriving_router.all_plans()
                + runtime.processing_router.all_plans()
            )
        if self.shedder is not None:
            self.shedder.attach(self)

    def _prepare_batch(self, events: list[Event], t: TimePoint) -> list[Event]:
        """Hook: filter/augment a raw batch before it is distributed.

        The supervision layer overrides this to validate schemas and divert
        violators to the dead-letter queue *before* distribution — which is
        why a timestamp may legitimately reach the scheduler with no events
        at all.  The base engine applies admission control (load shedding)
        when configured and otherwise passes the batch through unchanged.
        """
        if self.shedder is not None:
            return self.shedder.admit(events, t)
        return events

    def _shed_feedback(self):
        """Picklable per-partition shed feedback (worker side, process
        backend): the active contexts and hot partial-match types/keys the
        parent's admission controller cannot read across the process
        boundary.  ``None`` when shedding is off — zero protocol overhead.
        """
        if self.shedder is None:
            return None
        return self.shedder.collect_view(self._partitions)

    def _local_totals(self) -> RunTotals:
        """Run totals read from this process's partition runtimes."""
        partitions = self._partitions
        aggregation_counts = [
            p.aggregation_counts() for p in partitions.values()
        ]
        return RunTotals(
            matches_aggregated=sum(a for a, _ in aggregation_counts),
            matches_materialized=sum(m for _, m in aggregation_counts),
            cost_units=self._total_cost_units(),
            windows_by_partition={
                key: runtime.store.all_windows()
                for key, runtime in partitions.items()
            },
            suppressed_batches=sum(
                p.deriving_router.batches_suppressed
                + p.processing_router.batches_suppressed
                for p in partitions.values()
            ),
            routed_batches=sum(
                p.deriving_router.batches_routed
                + p.processing_router.batches_routed
                for p in partitions.values()
            ),
            interest_suppressed_batches=sum(
                p.deriving_router.batches_uninterested
                + p.processing_router.batches_uninterested
                for p in partitions.values()
            ),
            gc_collected=sum(p.gc.collected for p in partitions.values()),
            history_discards=sum(
                p.history.discards for p in partitions.values()
            ),
            cost_by_context=self._cost_by_context(),
        )

    def _observe_totals(self, totals: RunTotals) -> None:
        """Mirror a run's merged totals into the metrics registry.

        Invoked once per run on the parent engine after the backend's
        fan-in, so totals-derived counters are byte-identical across
        backends by construction.  GC counters are *not* mirrored here —
        the collector increments them live (worker-side for sharded
        backends, fanned in through the registry delta).
        """
        instruments = self.instruments
        instruments.cost_units.inc(totals.cost_units)
        instruments.suppressed.inc(totals.suppressed_batches)
        instruments.routed.inc(totals.routed_batches)
        instruments.uninterested.inc(totals.interest_suppressed_batches)
        instruments.history_discards.inc(totals.history_discards)
        instruments.transport_bytes_out.inc(totals.transport_bytes_out)
        instruments.transport_bytes_in.inc(totals.transport_bytes_in)
        instruments.batches_shm.inc(totals.batches_shm)
        instruments.batches_pickled.inc(totals.batches_pickled_fallback)
        registry = self.observability.registry
        if registry.enabled:
            for name in sorted(totals.cost_by_context):
                registry.counter(
                    "caesar_context_cost_units_total",
                    "Cost units spent per context (deriving + processing)",
                    labels={"context": name},
                ).inc(totals.cost_by_context[name])

    def _refresh_gauges(
        self, state: RunState, totals: RunTotals | None = None
    ) -> None:
        """Point-in-time gauges, refreshed at snapshot and run boundaries.

        Gauges are excluded from the worker fan-in (they describe *current*
        state, not accumulation); the parent recomputes them from whatever
        authoritative view it has — live partition runtimes mid-run, the
        merged totals at end of run.
        """
        instruments = self.instruments
        instruments.partitions.set(len(state.distributor.partitions))
        if totals is not None:
            windows = [
                window
                for window_list in totals.windows_by_partition.values()
                for window in window_list
            ]
        elif self._effective_backend.local_state:
            windows = [
                window
                for runtime in self._partitions.values()
                for window in runtime.store.all_windows()
            ]
        else:  # mid-run with remote partition state: nothing to read
            return
        instruments.windows_total.set(len(windows))
        instruments.open_windows.set(
            sum(1 for window in windows if window.is_open)
        )

    def _worker_pool_reusable(self) -> bool:
        """Hook: may a persistent worker pool carry over into the next run?

        Workers fork with a snapshot of the engine; reuse is sound only
        when the parent engine holds no run state a fresh worker would
        lack.  After :meth:`reset_run_state` the partition map is empty —
        workers perform the same reset on ``begin`` — so a pool spawned
        from a pristine engine stays equivalent to a fresh fork.
        """
        return not self._partitions

    def _worker_state_baseline(self):
        """Hook: snapshot taken by a forked shard worker at startup.

        Paired with :meth:`_worker_state_summary`.  The base engine reports
        its observability state (registry values and span count at fork
        time) so worker-local metric updates can be shipped home as deltas;
        subclasses extend the dict with their own keys via ``super()``.
        """
        return {"observability": self.observability.worker_baseline()}

    def _worker_state_summary(self, baseline):
        """Hook: picklable state a shard worker sends home at end of run."""
        baseline = baseline or {}
        return {
            "observability": self.observability.worker_summary(
                baseline.get("observability")
            )
        }

    def _absorb_worker_state(self, summary) -> None:
        """Hook: merge a shard worker's end-of-run summary (parent side)."""
        if not summary:
            return
        self.observability.absorb_worker(summary.get("observability"))

    def _finalize_report(self, report: EngineReport) -> None:
        """Hook to enrich a freshly built report (e.g. supervision counters).

        Invoked by :meth:`RunState.finish`.  The base engine adds the
        overload-management counters when shedding is on.
        """
        if self.shedder is not None:
            self.shedder.populate_report(report)

    def _cost_by_context(self) -> dict[str, float]:
        # Per-partition subtotals first, then one addition into the global
        # accumulator: the exact association the process backend's worker
        # summaries use, so costs stay bit-identical across backends.
        totals: dict[str, float] = {}
        for runtime in self._partitions.values():
            local: dict[str, float] = {}
            for router in (runtime.deriving_router, runtime.processing_router):
                for name, cost in router.cost_by_context.items():
                    local[name] = local.get(name, 0.0) + cost
            for name, cost in local.items():
                totals[name] = totals.get(name, 0.0) + cost
        return totals

    def _execute_transaction(self, transaction: StreamTransaction) -> list[Event]:
        observability = self.observability
        if observability.tracing:
            with observability.recorder.span(
                "transaction",
                "engine",
                t=transaction.timestamp,
                partition=transaction.partition,
            ):
                return self._transaction_body(transaction)
        return self._transaction_body(transaction)

    def _transaction_body(self, transaction: StreamTransaction) -> list[Event]:
        runtime = self._partition(transaction.partition)
        store = runtime.store
        t = transaction.timestamp
        ctx = ExecutionContext(windows=store, now=t)
        # Taken before phase 0, so a window a preprocessor opens (the
        # shared-workload schedule) counts as an initiation below.
        active_before = set(store.active_contexts())

        # Phase 0 — always-active preprocessing stages (e.g. windowed
        # statistics); their derivations join the batch.
        events = transaction.events
        for operator in runtime.preprocessors:
            derived = operator.process(events, ctx)
            derived.extend(operator.on_time_advance(t, ctx))
            if derived:
                events = list(events) + derived
        transaction.events = events

        # Phase 1 — context derivation (Section 6.2: derivation for time t
        # completes before any processing at t).
        runtime.deriving_router.route(transaction.events, store, ctx)
        active_after = set(store.active_contexts())
        for context_name in active_before | active_after:
            if (context_name in active_before) != (context_name in active_after):
                transaction.record_write(context_name)

        # Partial matches of terminated windows are safely discarded
        # (Section 6.2, "Context Processing").
        new_closed = store.closed[runtime.closed_seen :]
        runtime.closed_seen = len(store.closed)
        for window in new_closed:
            plan = runtime.processing_router.plan_for(window.context_name)
            if plan is not None:
                runtime.history.on_context_terminated(plan)
        # A (re)initiated window starts with a clean slate: queries consume
        # only events that arrive *during* their context window (Section
        # 3.4), so pre-window pattern state must not leak in.  For the
        # context-aware engine this is a no-op (suspended plans saw
        # nothing); it keeps the context-independent configuration — whose
        # patterns busy-wait on the whole stream — output-equivalent.
        for context_name in active_after - active_before:
            plan = runtime.processing_router.plan_for(context_name)
            if plan is not None and not self.context_aware:
                plan.reset_state()

        # Phase 2 — context processing within the active contexts.
        for context_name in store.active_contexts():
            transaction.record_read(context_name)
        derived = runtime.processing_router.route(transaction.events, store, ctx)
        derived.extend(runtime.processing_router.advance_time(t, store, ctx))

        runtime.gc.maybe_collect(t)
        return derived

    def _on_batch_end(self, t: TimePoint) -> None:
        """Hook fired after all transactions of timestamp ``t`` committed.

        The base engine does nothing; the supervision layer uses it to
        drive checkpoint autosaving at batch (= stream-time) boundaries.
        :meth:`RunState.step` invokes it.
        """

    def _total_cost_units(self) -> float:
        return sum(p.cost_units() for p in self._partitions.values())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def partition_keys(self) -> tuple[object, ...]:
        return tuple(self._partitions)

    def partition_store(self, key: object) -> ContextWindowStore:
        return self._partition(key).store

    def describe_plans(self) -> str:
        lines = ["Deriving plans:"]
        for name, plan in self._deriving_templates.items():
            for individual in plan.plans:
                lines.append(f"  [{name}] {individual!r}")
        lines.append("Processing plans:")
        for name, plan in self._processing_templates.items():
            for individual in plan.plans:
                lines.append(f"  [{name}] {individual!r}")
        return "\n".join(lines)

