"""Supervised execution: per-plan fault isolation behind circuit breakers.

The paper's runtime assumes a cooperative world — well-formed events and
operators that never fail.  :class:`SupervisedEngine` drops that assumption:
it is a :class:`~repro.runtime.engine.CaesarEngine` whose combined plans are
individually *supervised*.  An exception raised by one plan no longer aborts
the run; instead the supervisor

1. catches the exception, dead-letters the triggering events
   (:data:`~repro.runtime.deadletter.REASON_PLAN_FAULT`) and records the
   failure against the plan's :class:`CircuitBreaker`;
2. after ``failure_threshold`` consecutive failures *opens* the breaker —
   the plan is **quarantined**: it receives no events, and every event it
   would have consumed is dead-lettered
   (:data:`~repro.runtime.deadletter.REASON_QUARANTINED`);
3. once ``cooldown`` stream-time units pass, the breaker goes *half-open*
   and the next batch is a probe: success closes the breaker (the plan
   rejoins the workload), another failure reopens it.

Quarantine granularity is one combined plan per ``(partition, phase,
context)`` — exactly the unit the router dispatches to — so the remaining
workload keeps flowing with unchanged semantics.

On top of plan supervision the engine validates every input event against
its declared schema (schema violations are dead-lettered, not fatal) and,
when given a :class:`~repro.runtime.recovery.RecoveryManager`, autosaves
checkpoints at stream-time boundaries for crash recovery.

Errors deriving from :class:`~repro.errors.FatalEngineError` always escape
supervision: they model process crashes and abort the run so the recovery
path (restore + replay) can take over.

All supervision activity flows into the
:class:`~repro.runtime.engine.EngineReport` counters (``plan_failures``,
``plans_quarantined``, ``breaker_transitions``, ``dead_lettered``,
``checkpoints_taken``, ``recovery_replays``) and from there into
:func:`~repro.runtime.reporting.report_to_dict`.
"""

from __future__ import annotations

import enum

from repro.core.model import CaesarModel
from repro.errors import FatalEngineError, SchemaError
from repro.events.event import Event
from repro.events.timebase import TimePoint
from repro.runtime.deadletter import (
    DeadLetterQueue,
    REASON_PLAN_FAULT,
    REASON_QUARANTINED,
    REASON_SCHEMA,
)
from repro.runtime.engine import CaesarEngine, EngineReport, _PartitionRuntime


class BreakerState(enum.Enum):
    """The classic circuit-breaker state machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure accounting for one supervised plan.

    ``CLOSED`` → (``failure_threshold`` consecutive failures) → ``OPEN`` →
    (``cooldown`` stream-time units) → ``HALF_OPEN`` → one probe →
    ``CLOSED`` on success / ``OPEN`` on failure.  Time is *stream* time:
    a quarantined plan's cooldown advances with the data, so replays are
    deterministic regardless of wall-clock speed.
    """

    def __init__(self, *, failure_threshold: int = 3, cooldown: TimePoint = 60):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0:
            raise ValueError(f"cooldown must be non-negative, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.failures = 0
        self.opened_at: TimePoint | None = None
        self.ever_opened = False
        #: ``(stream_time, from_state, to_state)`` in order of occurrence
        self.transitions: list[tuple[TimePoint, BreakerState, BreakerState]] = []

    def _transition(self, to: BreakerState, now: TimePoint) -> None:
        self.transitions.append((now, self.state, to))
        self.state = to
        if to is BreakerState.OPEN:
            self.ever_opened = True
            # ``now`` can regress: a half-open probe may fail at a stream
            # time *before* the original open (out-of-order advance_time
            # under replay/reorder).  The cooldown deadline must never move
            # backward, or a regressed reopen would expire immediately and
            # the breaker would flap open/half-open on every batch.
            if self.opened_at is None or now > self.opened_at:
                self.opened_at = now

    def allow(self, now: TimePoint) -> bool:
        """May the plan run at stream time ``now``?

        In the open state this is where the cooldown expiry is observed:
        the breaker flips to half-open and admits one probe batch.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.opened_at is not None and now >= self.opened_at + self.cooldown:
                self._transition(BreakerState.HALF_OPEN, now)
                return True
            return False
        return True  # HALF_OPEN: the probe is in flight

    def record_success(self, now: TimePoint) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED, now)
        self.consecutive_failures = 0

    def record_failure(self, now: TimePoint) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN, now)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._transition(BreakerState.OPEN, now)


class _GuardedPlan:
    """Wraps one combined plan with fault isolation and quarantine.

    Implements the plan interface the router and the engine exercise:
    ``execute`` and ``advance_time`` consult the breaker and trap
    exceptions; everything else (``interest_set``, ``reacts_to_time``,
    ``snapshot_state``, ``restore_state``, ``reset_state``...) delegates to
    the wrapped plan, so context history, garbage collection and
    checkpointing are oblivious to the guard.
    """

    def __init__(self, plan, supervisor: "SupervisedEngine", key, breaker):
        self._plan = plan
        self._supervisor = supervisor
        self._key = key
        self._breaker = breaker

    def __getattr__(self, name):
        return getattr(self._plan, name)

    def execute(self, events: list[Event], ctx) -> list[Event]:
        if not self._breaker.allow(ctx.now):
            self._supervisor._dead_letter_for_plan(
                events, self._plan, REASON_QUARANTINED, ctx.now,
                error=f"plan {self._key} quarantined (breaker open)",
            )
            return []
        try:
            outputs = self._plan.execute(events, ctx)
        except FatalEngineError:
            raise
        except Exception as exc:
            self._supervisor._on_plan_failure(
                self._key, self._breaker, exc, events, ctx.now
            )
            return []
        self._breaker.record_success(ctx.now)
        return outputs

    def advance_time(self, now: TimePoint, ctx) -> list[Event]:
        if not self._breaker.allow(now):
            return []
        try:
            outputs = self._plan.advance_time(now, ctx)
        except FatalEngineError:
            raise
        except Exception as exc:
            self._supervisor._on_plan_failure(
                self._key, self._breaker, exc, [], now
            )
            return []
        self._breaker.record_success(now)
        return outputs

    def __repr__(self) -> str:
        return f"<GuardedPlan {self._key} {self._breaker.state.value}: {self._plan!r}>"


#: Identifies one supervised plan: ``(partition_key, phase, context_name)``
#: with phase ``"deriving"`` or ``"processing"``.
PlanKey = tuple


class SupervisedEngine(CaesarEngine):
    """A :class:`CaesarEngine` wrapped in a supervision layer.

    Parameters (beyond the base engine's)
    -------------------------------------
    failure_threshold:
        Consecutive plan failures before its circuit breaker opens.
    cooldown:
        Stream-time units a breaker stays open before admitting a
        half-open probe.
    dead_letters:
        The :class:`~repro.runtime.deadletter.DeadLetterQueue` to divert
        events into (a fresh bounded queue by default).
    recovery:
        Optional :class:`~repro.runtime.recovery.RecoveryManager`; when
        given, checkpoints are autosaved every ``recovery.interval``
        stream-time units at batch boundaries.
    validate_schemas:
        Validate every input event against its declared schema and
        dead-letter violators instead of processing them (on by default —
        the point of supervised execution).
    """

    def __init__(
        self,
        model: CaesarModel,
        *,
        failure_threshold: int = 3,
        cooldown: TimePoint = 60,
        dead_letters: DeadLetterQueue | None = None,
        recovery=None,
        validate_schemas: bool = True,
        **engine_kwargs,
    ):
        super().__init__(model, **engine_kwargs)
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.dead_letters = (
            dead_letters if dead_letters is not None else DeadLetterQueue()
        )
        self.recovery = recovery
        self.validate_schemas = validate_schemas
        self._breakers: dict[PlanKey, CircuitBreaker] = {}
        self.plan_failures = 0
        registry = self.observability.registry
        if registry.enabled:
            self.dead_letters.bind_metrics(registry)
        if self.shedder is not None and self.shedder.config.dead_letter:
            self.shedder.bind_dead_letters(self.dead_letters)
        self._failure_counter = registry.counter(
            "caesar_plan_failures_total",
            "Plan exceptions caught and isolated by the supervisor",
        )
        self._quarantined_gauge = registry.gauge(
            "caesar_plans_quarantined",
            "Distinct plans whose circuit breaker ever opened",
        )
        self._checkpoints_gauge = registry.gauge(
            "caesar_checkpoints_taken",
            "Checkpoints autosaved by the recovery manager",
        )
        self._replays_gauge = registry.gauge(
            "caesar_recovery_replays",
            "Checkpoint restores followed by a stream-suffix replay",
        )
        #: supervision state absorbed from forked shard workers at end of
        #: run (process backend) — merged into the report alongside the
        #: parent's own breakers
        self._absorbed_quarantined: set[PlanKey] = set()
        self._absorbed_transitions: dict[str, int] = {}
        self._capture_dead_letter_baseline()

    def _capture_dead_letter_baseline(self) -> None:
        """Reports count dead-letter activity relative to this snapshot.

        The queue may be shared across engines (or survive a
        :meth:`reset_run_state`), so the report counts only what *this*
        engine diverted since construction/reset — which also keeps
        back-to-back runs of the same stream byte-identical.
        """
        self._dlq_counts_baseline = dict(self.dead_letters.counts_by_reason)
        self._dlq_dropped_baseline = self.dead_letters.dropped
        self._dlq_dropped_by_reason_baseline = dict(
            self.dead_letters.dropped_by_reason
        )

    # ------------------------------------------------------------------
    # plan guarding
    # ------------------------------------------------------------------

    def breaker_for(self, key: PlanKey) -> CircuitBreaker | None:
        """The breaker of plan ``(partition, phase, context)``, if created."""
        return self._breakers.get(key)

    def quarantined_plans(self) -> tuple[PlanKey, ...]:
        """Keys of every plan whose breaker ever opened."""
        local = tuple(
            key for key, breaker in self._breakers.items() if breaker.ever_opened
        )
        absorbed = tuple(
            key for key in self._absorbed_quarantined if key not in local
        )
        return local + absorbed

    def reset_run_state(self) -> None:
        """Reset supervision alongside the partition runtimes.

        Breakers belong to per-partition plan instances, so they die with
        them; failure counters and the dead-letter baseline restart so the
        next run's report reflects only that run.
        """
        super().reset_run_state()
        self._breakers = {}
        self.plan_failures = 0
        self._absorbed_quarantined = set()
        self._absorbed_transitions = {}
        self._capture_dead_letter_baseline()

    def _worker_pool_reusable(self) -> bool:
        """Reuse the worker pool only while the dead-letter queue is empty.

        Retained DLQ entries are part of the engine state a fresh fork
        would carry into the workers; a reused worker instead holds its
        own entries from the previous run, so eviction behaviour could
        diverge.  Respawning whenever entries are retained keeps the
        persistent pool observationally identical to fork-per-run.
        """
        return super()._worker_pool_reusable() and self.dead_letters.total == 0

    def _partition(self, key: object) -> _PartitionRuntime:
        created = key not in self._partitions
        runtime = super()._partition(key)
        if created:
            for phase, router in (
                ("deriving", runtime.deriving_router),
                ("processing", runtime.processing_router),
            ):
                def guard(context_name, plan, _key=key, _phase=phase):
                    return self._guard_plan(_key, _phase, context_name, plan)

                router.wrap_plans(guard)
        return runtime

    def _guard_plan(
        self, partition_key: object, phase: str, context_name: str, plan
    ):
        """Wrap a plan in a circuit breaker (initial build *and* online
        deployment splices route through here).  A context whose plan is
        replaced keeps its breaker — failure history is per (partition,
        phase, context), not per plan object."""
        plan_key = (partition_key, phase, context_name)
        breaker = self._breakers.get(plan_key)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                cooldown=self.cooldown,
            )
            self._breakers[plan_key] = breaker
        return _GuardedPlan(plan, self, plan_key, breaker)

    def _on_plan_failure(
        self,
        key: PlanKey,
        breaker: CircuitBreaker,
        error: Exception,
        events: list[Event],
        now: TimePoint,
    ) -> None:
        self.plan_failures += 1
        self._failure_counter.inc()
        breaker.record_failure(now)
        self._dead_letter_for_plan(
            events, None, REASON_PLAN_FAULT, now, error=error, key=key
        )

    def _dead_letter_for_plan(
        self, events, plan, reason, now, *, error=None, key=None
    ) -> None:
        """Divert the events a plan would have consumed.

        Only events in the plan's interest set "belong" to it; the rest of
        the batch flows to other plans unharmed and is not diverted.  On a
        failure (``plan`` is None — the guard already holds the key) the
        whole triggering batch is diverted: the fault may have been caused
        by inter-plan routing inside the combined plan.
        """
        interest = plan.interest_set() if plan is not None else None
        for event in events:
            if interest is not None and event.type_name not in interest:
                continue
            self.dead_letters.put(
                event, reason=reason, error=error, timestamp=now
            )

    # ------------------------------------------------------------------
    # schema validation + recovery hooks
    # ------------------------------------------------------------------

    def _prepare_batch(self, events: list[Event], t: TimePoint) -> list[Event]:
        """Validate schemas *before* distribution.

        Violators are dead-lettered up front so they never enter the
        partition queues; a batch that is invalid in its entirety leaves
        its timestamp empty, which the scheduler treats as a no-op.
        """
        if not self.validate_schemas:
            return super()._prepare_batch(events, t)
        valid: list[Event] = []
        for event in events:
            try:
                event.event_type.schema.validate(
                    event.payload, type_name=event.type_name
                )
            except SchemaError as exc:
                self.dead_letters.put(
                    event, reason=REASON_SCHEMA, error=exc, timestamp=t
                )
            else:
                valid.append(event)
        # Schema rejection happens *before* admission control, so the shed
        # decision stream (and its digest) is identical whether validation
        # is on or off for well-formed streams.
        return super()._prepare_batch(valid, t)

    def _on_batch_end(self, t: TimePoint) -> None:
        if self.recovery is not None:
            self.recovery.observe(self, t)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def breaker_transition_counts(self) -> dict[str, int]:
        counts: dict[str, int] = dict(self._absorbed_transitions)
        for breaker in self._breakers.values():
            for _, from_state, to_state in breaker.transitions:
                key = f"{from_state.value}->{to_state.value}"
                counts[key] = counts.get(key, 0) + 1
        return counts

    def _finalize_report(self, report: EngineReport) -> None:
        super()._finalize_report(report)
        report.plan_failures = self.plan_failures
        report.plans_quarantined = len(self.quarantined_plans())
        report.breaker_transitions = self.breaker_transition_counts()
        report.dead_lettered = {
            reason: count - self._dlq_counts_baseline.get(reason, 0)
            for reason, count in self.dead_letters.counts_by_reason.items()
            if count - self._dlq_counts_baseline.get(reason, 0) > 0
        }
        report.dead_letter_dropped = (
            self.dead_letters.dropped - self._dlq_dropped_baseline
        )
        report.dead_letter_dropped_by_reason = {
            reason: count - self._dlq_dropped_by_reason_baseline.get(reason, 0)
            for reason, count in self.dead_letters.dropped_by_reason.items()
            if count - self._dlq_dropped_by_reason_baseline.get(reason, 0) > 0
        }
        if self.recovery is not None:
            report.checkpoints_taken = self.recovery.checkpoints_taken
            report.recovery_replays = self.recovery.recovery_replays
        self._quarantined_gauge.set(report.plans_quarantined)
        self._checkpoints_gauge.set(report.checkpoints_taken)
        self._replays_gauge.set(report.recovery_replays)

    # ------------------------------------------------------------------
    # process-backend worker state fan-in
    # ------------------------------------------------------------------

    def _worker_state_baseline(self):
        """Snapshot taken inside a freshly forked shard worker.

        The fork inherits the parent's supervision state (copy-on-write),
        so the end-of-run summary must report *deltas* against this.
        Extends the base engine's baseline (observability) with the
        supervision slice.
        """
        baseline = super()._worker_state_baseline() or {}
        baseline["supervision"] = {
            "plan_failures": self.plan_failures,
            "dlq_total": self.dead_letters.total,
            "dlq_dropped": self.dead_letters.dropped,
            "dlq_dropped_by_reason": dict(self.dead_letters.dropped_by_reason),
            "transitions": self.breaker_transition_counts(),
            "quarantined": set(self.quarantined_plans()),
        }
        return baseline

    def _worker_state_summary(self, baseline):
        """What a shard worker accumulated beyond its fork-time baseline."""
        baseline = baseline or {}
        summary = super()._worker_state_summary(baseline) or {}
        base = baseline.get("supervision") or {
            "plan_failures": 0,
            "dlq_total": 0,
            "dlq_dropped": 0,
            "dlq_dropped_by_reason": {},
            "transitions": {},
            "quarantined": set(),
        }
        new_puts = self.dead_letters.total - base["dlq_total"]
        retained = self.dead_letters.entries()
        new_entries = retained[-new_puts:] if new_puts > 0 else []
        transitions = self.breaker_transition_counts()
        base_transitions = base["transitions"]
        summary["supervision"] = {
            "plan_failures": self.plan_failures - base["plan_failures"],
            "dlq_entries": new_entries,
            "dlq_dropped": self.dead_letters.dropped - base["dlq_dropped"],
            "dlq_dropped_by_reason": {
                reason: count - base["dlq_dropped_by_reason"].get(reason, 0)
                for reason, count in self.dead_letters.dropped_by_reason.items()
                if count - base["dlq_dropped_by_reason"].get(reason, 0) > 0
            },
            "transitions": {
                key: count - base_transitions.get(key, 0)
                for key, count in transitions.items()
                if count - base_transitions.get(key, 0) > 0
            },
            "quarantined": [
                key
                for key in self.quarantined_plans()
                if key not in base["quarantined"]
            ],
        }
        return summary

    def _absorb_worker_state(self, summary) -> None:
        if not summary:
            return
        super()._absorb_worker_state(summary)
        supervision = summary.get("supervision")
        if supervision is None:
            return
        self.plan_failures += supervision["plan_failures"]
        self.dead_letters.absorb(
            supervision["dlq_entries"],
            dropped=supervision["dlq_dropped"],
            dropped_by_reason=supervision.get("dlq_dropped_by_reason"),
        )
        for key, count in supervision["transitions"].items():
            self._absorbed_transitions[key] = (
                self._absorbed_transitions.get(key, 0) + count
            )
        self._absorbed_quarantined.update(supervision["quarantined"])
