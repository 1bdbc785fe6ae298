"""Executing one configuration of a differential pair.

:class:`RunSpec` is a frozen description of *how* to run a scenario's
stream — which optimizer rules, context-aware or baseline, which backend,
whether to checkpoint/restore mid-stream, whether to jitter arrival order
through a reorder buffer.  :func:`execute` turns
``(scenario, spec, events)`` into a :class:`~repro.difftest.canonical.CanonicalResult`
via the public :func:`~repro.api.create_engine` path, so the harness
exercises exactly the configuration surface applications use.

Everything is a pure function of its inputs: same scenario + spec + events
→ same canonical result.  That property is what makes ddmin shrinking
(:mod:`repro.difftest.shrink`) sound.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.algebra.plan import _spec_types as pattern_input_types
from repro.api import EngineConfig, create_engine
from repro.difftest.canonical import (
    CanonicalResult,
    Divergence,
    canonicalize,
    first_divergence,
)
from repro.difftest.scenarios import Scenario
from repro.errors import CaesarError
from repro.events.event import Event
from repro.events.stream import EventStream
from repro.optimizer.apply import OptimizationRules
from repro.optimizer.sharing import (
    build_nonshared_workload,
    build_shared_workload,
)
from repro.runtime.checkpoint import capture_checkpoint, restore_checkpoint
from repro.runtime.reorder import ReorderBuffer
from repro.runtime.shedding import SheddingConfig, event_value_key

#: The shedding configuration every ``shed`` run uses.  A tight latency
#: target against a modest cost rate, so the controller builds real
#: pressure on all three difftest streams; ``record_decisions`` keeps the
#: shed identity set the protected-subset projection filters by.
DIFF_SHED_CONFIG = SheddingConfig(
    latency_target=1.0,
    cost_rate=4.0,
    seed=1299827,
    record_decisions=True,
)

_NAMED_RULES = {
    "default": OptimizationRules.default(),
    "none": OptimizationRules.none(),
    "full": OptimizationRules.all(),
}


def resolve_rules(spec: "str | bool | OptimizationRules") -> OptimizationRules:
    """Accept named rule sets, bools, or explicit rule objects."""
    if isinstance(spec, str):
        try:
            return _NAMED_RULES[spec]
        except KeyError:
            raise ValueError(
                f"unknown optimize spec {spec!r} (have: {sorted(_NAMED_RULES)})"
            ) from None
    return OptimizationRules.from_spec(spec)


@dataclass(frozen=True)
class RunSpec:
    """One side of a differential comparison.

    ``optimize`` names a rule set ("default" / "none" / "full"), or is a
    bool or :class:`OptimizationRules`.  ``checkpoint_at`` is a fraction of
    the stream at which to capture a checkpoint, rebuild a fresh engine,
    restore, and replay the suffix (aligned down to a stream-transaction
    boundary — checkpoints are taken between transactions).  ``jitter``
    displaces each event's *arrival* by up to that many time units and
    recovers order through ``ReorderBuffer(max_delay=jitter)``.
    ``workload`` runs the scenario's user-window schedule as a
    :class:`~repro.optimizer.sharing.SharedWorkload` on the engine
    ("shared" groups windows, "nonshared" runs one plan per (window,
    query)); its contract is derivation-set equality, so those runs are
    canonicalized with ``dedup``.
    ``drop_index`` silently drops one input event — the deliberate fault
    used to prove the harness detects and shrinks divergences.  ``shed``
    runs the engine under :data:`DIFF_SHED_CONFIG` admission control; the
    decision digest and shed counters join the canonical counters, so two
    shed runs agree only when their decision streams are byte-identical.
    ``ingest`` chooses the ingestion surface: one-shot ``run()`` (default),
    chunked :class:`~repro.runtime.session.EngineSession` feeding, or
    continuous :class:`~repro.runtime.service.EngineService` submission —
    the ``service`` axis's chunk-boundary invariant.  ``deploy`` adds a
    mid-stream online query deployment (``"online"``, requires a session
    or service ingest) or builds the reference for it (``"reference"``: a
    prefix run on the base model, checkpoint, restore into a from-scratch
    engine whose model has the scenario's deploy query, suffix run — the
    engine that had the query from its activation watermark onward);
    ``deploy_at`` is the deployment point as a stream fraction.
    ``aggregation`` selects how aggregating DERIVE queries evaluate
    (``"online"`` summary propagation vs the ``"materialize"`` oracle);
    workload runs pass it to the workload builders, so the shared side's
    aggregate-state fusion is exercised under ``"online"``.
    """

    label: str
    optimize: object = "default"
    context_aware: bool = True
    backend: str = "serial"
    checkpoint_at: float | None = None
    jitter: int = 0
    jitter_seed: int = 17
    workload: str | None = None  # None | "shared" | "nonshared"
    drop_index: int | None = None
    shed: bool = False
    ingest: str = "run"  # "run" | "session" | "service"
    deploy: str | None = None  # None | "online" | "reference"
    deploy_at: float = 0.5
    aggregation: str = "online"  # "online" | "materialize"

    def __post_init__(self):
        resolve_rules(self.optimize)  # validate eagerly
        if self.aggregation not in ("online", "materialize"):
            raise ValueError(
                f"aggregation must be 'online' or 'materialize', "
                f"got {self.aggregation!r}"
            )
        if self.workload not in (None, "shared", "nonshared"):
            raise ValueError(
                f"workload must be None, 'shared' or 'nonshared', "
                f"got {self.workload!r}"
            )
        if self.checkpoint_at is not None and not 0 < self.checkpoint_at < 1:
            raise ValueError("checkpoint_at must be a fraction in (0, 1)")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.ingest not in ("run", "session", "service"):
            raise ValueError(
                f"ingest must be 'run', 'session' or 'service', "
                f"got {self.ingest!r}"
            )
        if self.deploy not in (None, "online", "reference"):
            raise ValueError(
                f"deploy must be None, 'online' or 'reference', "
                f"got {self.deploy!r}"
            )
        if self.deploy == "online" and self.ingest == "run":
            raise ValueError(
                "deploy='online' needs a live ingestion surface "
                "(ingest='session' or 'service')"
            )
        if not 0 < self.deploy_at < 1:
            raise ValueError("deploy_at must be a fraction in (0, 1)")


class HarnessError(CaesarError):
    """The harness itself was mis-used (not a divergence)."""


# ---------------------------------------------------------------------------
# input transformations
# ---------------------------------------------------------------------------


def _drop(events: list[Event], index: int) -> list[Event]:
    if not events:
        return events
    index %= len(events)
    return [e for i, e in enumerate(events) if i != index]


def _jittered(events: list[Event], jitter: int, seed: int) -> list[Event]:
    """Simulate out-of-order arrival bounded by ``jitter``, then recover.

    Each event's arrival time is its timestamp plus a uniform displacement
    in ``[0, jitter]``; the displaced arrival order feeds a
    :class:`ReorderBuffer` with ``max_delay=jitter``.  The bound guarantees
    no event is ever late (for any event ``e`` and earlier arrival ``f``:
    ``t_f <= t_e + jitter``, so the watermark never passes ``t_e``), hence
    recovery is lossless and the engine must see an equivalent stream.
    Simultaneous events are normalized back to generation order afterwards
    — a batch is a *set* in the model, but float aggregation makes
    within-batch order observable, and that is not what this axis tests.
    """
    rng = random.Random(seed)
    arrival = sorted(
        events,
        key=lambda e: (e.timestamp + rng.randint(0, jitter), e.event_id),
    )
    buffer = ReorderBuffer(max_delay=jitter)
    released = list(buffer.feed(arrival))
    released.extend(buffer.flush())
    if buffer.late_events or len(released) != len(events):
        raise HarnessError(
            "jittered replay lost events: the displacement bound and the "
            "reorder delay bound must be equal"
        )
    released.sort(key=lambda e: (e.timestamp, e.event_id))
    return released


def prepare_events(spec: RunSpec, events: list[Event]) -> list[Event]:
    """Apply the spec's input transformations (drop, then jitter)."""
    prepared = list(events)
    if spec.drop_index is not None:
        prepared = _drop(prepared, spec.drop_index)
    if spec.jitter:
        prepared = _jittered(prepared, spec.jitter, spec.jitter_seed)
    return prepared


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _engine_config(scenario: Scenario, spec: RunSpec) -> EngineConfig:
    return EngineConfig(
        context_aware=spec.context_aware,
        optimize=resolve_rules(spec.optimize),
        backend=spec.backend,
        partition_by=scenario.partition_by,
        retention=scenario.retention,
        aggregation=spec.aggregation,
        shedding=DIFF_SHED_CONFIG if spec.shed else False,
    )


def _transaction_boundary(events: list[Event], fraction: float) -> int:
    """The split index nearest ``fraction``, aligned up so a timestamp's
    batch is never cut in half (checkpoints sit between transactions)."""
    cut = max(1, min(len(events) - 1, int(len(events) * fraction)))
    while cut < len(events) and (
        events[cut].timestamp == events[cut - 1].timestamp
    ):
        cut += 1
    return cut


def _execute_workload(
    scenario: Scenario, spec: RunSpec, events: list[Event]
) -> CanonicalResult:
    if scenario.window_specs is None:
        raise HarnessError(
            f"scenario {scenario.name!r} defines no window schedule for "
            "workload runs"
        )
    builder = (
        build_shared_workload
        if spec.workload == "shared"
        else build_nonshared_workload
    )
    workload = builder(
        list(scenario.window_specs()),
        retention=scenario.retention,
        aggregation=spec.aggregation,
    )
    engine = create_engine(
        workload, EngineConfig(context_aware=spec.context_aware)
    )
    report = engine.run(EventStream(events))
    # derivation-*set* equality: multiplicity belongs to the non-shared
    # side by construction (one derivation per covering window)
    return canonicalize(report, dedup=True, compare_windows=False)


def _fold_shed(result: CanonicalResult, report, spec: RunSpec) -> CanonicalResult:
    """Fold the decision stream into the canon: two shed runs agree only
    when every per-event decision matched, byte for byte."""
    if not spec.shed:
        return result
    return dataclasses.replace(
        result,
        counters=result.counters
        + (
            ("shed:digest", report.shed_decision_digest),
            ("shed:events", report.shed_events),
            ("shed:protected", report.protected_events),
        ),
    )


def _execute_ingest(
    scenario: Scenario, spec: RunSpec, events: list[Event]
) -> CanonicalResult:
    """Feed the stream through a session or service instead of ``run()``.

    Session ingestion splits the stream into chunks at transaction
    boundaries and feeds each with a separate ``feed()`` call; service
    ingestion submits events one at a time through the bounded queue and
    the feeder thread.  A ``deploy='online'`` spec deploys the scenario's
    query after the ``deploy_at`` boundary has committed.  Either way the
    canonical result must be byte-identical to the one-shot run.
    """
    from repro.runtime.service import EngineService
    from repro.runtime.session import EngineSession

    engine = create_engine(scenario.build_model(), _engine_config(scenario, spec))
    deploy_cut = (
        _transaction_boundary(events, spec.deploy_at)
        if spec.deploy == "online"
        else None
    )
    if spec.ingest == "session":
        session = EngineSession(engine)
        if deploy_cut is None:
            cuts = sorted({
                _transaction_boundary(events, f) for f in (0.33, 0.66)
            }) if len(events) > 3 else []
            start = 0
            for cut in cuts + [len(events)]:
                session.feed(events[start:cut])
                start = cut
        else:
            session.feed(events[:deploy_cut])
            engine.deploy_query(scenario.deploy_query())
            session.feed(events[deploy_cut:])
        report = session.close()
    else:
        service = EngineService(engine, queue_size=64)
        try:
            if deploy_cut is None:
                service.extend(events)
            else:
                service.extend(events[:deploy_cut])
                service.deploy_query(scenario.deploy_query())
                service.extend(events[deploy_cut:])
        finally:
            report = service.stop()
    engine.close()
    return _fold_shed(canonicalize(report), report, spec)


def _execute_deploy_reference(
    scenario: Scenario, spec: RunSpec, events: list[Event]
) -> CanonicalResult:
    """The from-scratch engine that had the deploy query from its
    activation watermark onward: prefix on the base model, checkpoint,
    restore into an engine whose model includes the query, suffix run."""
    config = _engine_config(scenario, spec)
    cut = _transaction_boundary(events, spec.deploy_at)
    first = create_engine(scenario.build_model(), config)
    prefix_report = first.run(EventStream(events[:cut]))
    checkpoint = capture_checkpoint(first)
    upgraded = scenario.build_model()
    upgraded.add_query(scenario.deploy_query())
    second = create_engine(upgraded, config)
    restore_checkpoint(second, checkpoint)
    suffix_report = second.run(EventStream(events[cut:]))
    return canonicalize(
        suffix_report,
        extra_outputs=prefix_report.outputs,
        extra_events_processed=prefix_report.events_processed,
    )


def execute(
    scenario: Scenario, spec: RunSpec, events: list[Event]
) -> CanonicalResult:
    """Run ``events`` under ``spec`` and return the canonical result."""
    prepared = prepare_events(spec, events)
    if spec.workload is not None:
        return _execute_workload(scenario, spec, prepared)
    if spec.deploy == "reference":
        return _execute_deploy_reference(scenario, spec, prepared)
    if spec.ingest != "run":
        return _execute_ingest(scenario, spec, prepared)
    config = _engine_config(scenario, spec)
    if spec.checkpoint_at is None:
        engine = create_engine(scenario.build_model(), config)
        report = engine.run(EventStream(prepared))
        return _fold_shed(canonicalize(report), report, spec)
    cut = _transaction_boundary(prepared, spec.checkpoint_at)
    prefix, suffix = prepared[:cut], prepared[cut:]
    first = create_engine(scenario.build_model(), config)
    prefix_report = first.run(EventStream(prefix))
    checkpoint = capture_checkpoint(first)
    second = create_engine(scenario.build_model(), config)
    restore_checkpoint(second, checkpoint)
    suffix_report = second.run(EventStream(suffix))
    return canonicalize(
        suffix_report,
        extra_outputs=prefix_report.outputs,
        extra_events_processed=prefix_report.events_processed,
    )


@dataclass(frozen=True)
class DiffResult:
    """Outcome of one differential comparison (possibly after shrinking)."""

    scenario: str
    axis: str
    label: str
    divergence: Divergence | None
    events_run: int
    minimized: tuple[Event, ...] | None = None

    @property
    def passed(self) -> bool:
        return self.divergence is None


def _lineage_touches(event: Event, shed_keys: set) -> bool:
    """Whether any event in ``event``'s lineage was shed in the on-run.

    Lineage is walked by value identity (:func:`event_value_key`) because
    ``event_id`` is process-unique and the two runs construct distinct
    event objects for the same stream.
    """
    stack = [event]
    while stack:
        node = stack.pop()
        if event_value_key(node) in shed_keys:
            return True
        stack.extend(node.derived_from)
    return False


def _shed_protected_divergence(
    scenario: Scenario,
    left: RunSpec,
    right: RunSpec,
    events: list[Event],
) -> Divergence | None:
    """Diff a shed-off run against a shed-on run on the protected subset.

    The shed-on engine is run first so its shedder can report exactly
    which input events it dropped; derived events whose lineage touches a
    shed input are then projected out of *both* reports (the off-run may
    legitimately derive from events the on-run never saw).  Online
    aggregate outputs carry no per-match lineage (``derived_from=()`` by
    design — lineage would be combinatorial), so aggregate-query output
    types whose *input* types intersect the shed types are projected out
    of both reports wholesale.  Everything else — protected-derived
    outputs, context windows, events processed — must agree exactly.
    """
    on_config = _engine_config(scenario, right)
    on_engine = create_engine(
        scenario.build_model(), on_config
    )
    on_events = prepare_events(right, events)
    on_report = on_engine.run(EventStream(on_events))
    shed_keys = set(on_engine.shedder.shed_event_keys)
    shed_types = {
        e.type_name for e in on_events if event_value_key(e) in shed_keys
    }
    excluded_types = _aggregate_types_touching(scenario, shed_types)
    off_engine = create_engine(
        scenario.build_model(), _engine_config(scenario, left)
    )
    off_report = off_engine.run(EventStream(prepare_events(left, events)))

    def projected(report):
        kept = [
            e
            for e in report.outputs
            if e.type_name not in excluded_types
            and not _lineage_touches(e, shed_keys)
        ]
        return canonicalize(dataclasses.replace(report, outputs=kept))

    return first_divergence(projected(off_report), projected(on_report))


def _aggregate_types_touching(
    scenario: Scenario, shed_types: set[str]
) -> frozenset[str]:
    """Output types of aggregating queries whose patterns consume a shed
    type.  A shed input changes such a query's aggregate values without
    leaving a lineage trace, so its whole output type is incomparable."""
    if not shed_types:
        return frozenset()
    excluded = set()
    for query in scenario.build_model().to_query_set():
        if not query.derive_aggregates or query.derive_type is None:
            continue
        if pattern_input_types(query.pattern) & shed_types:
            excluded.add(query.derive_type.name)
    return frozenset(excluded)


def run_pair(
    scenario: Scenario,
    left: RunSpec,
    right: RunSpec,
    events: list[Event],
) -> Divergence | None:
    """Run both sides on the same events and diff the canonical results."""
    if right.shed and not left.shed:
        return _shed_protected_divergence(scenario, left, right, events)
    return first_divergence(
        execute(scenario, left, events), execute(scenario, right, events)
    )
