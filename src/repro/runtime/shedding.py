"""Context-aware load shedding and admission control.

Under overload a CAESAR engine has information no context-independent
system has: it knows which contexts are *active* on each partition, which
event types the deriving queries consume (the events that decide context
transitions), and which partial matches are *hot* — one event away from
completing, or mid-sequence awaiting a specific type.  This module turns
that knowledge into a graceful-degradation policy instead of letting the
pending queue grow without bound.

The :class:`LoadShedder` runs inside ``CaesarEngine._prepare_batch`` —
*before* events are distributed to partition queues — and classifies every
event of a batch down a decision ladder:

1. **deriving-interest** — the event's type feeds a context deriving
   query.  Always admitted: dropping it could flip a context transition
   and change which plans run for everyone else.
2. **hot** — the event's type is awaited by a live partial match of an
   active context's plan, or (with ``protect_key`` configured) its key
   value is bound inside one.  Always admitted: it may complete a match.
3. **active-interest** — the type is consumed by at least one active,
   non-suspended context's processing plan.  Admitted.
4. **suspended** — every interested active context is currently
   shed-suspended (pressure above ``suspend_pressure`` and context
   priority below ``suspend_below_priority``).  Shed.
5. **warm** — the type interests only *inactive* contexts.  Under the
   paper's suspension semantics their plans would receive nothing anyway,
   so these shed first as pressure climbs, weighted by the interested
   contexts' priorities.
6. **cold** — no plan is interested at all.  Sheds at twice the warm
   rate; pure queue ballast.

One guarantee keeps shed-on output-equivalent to shed-off on the
protected subset: for every ``(partition, timestamp)`` whose events would
*all* shed, the last event in batch order is retained as a **tick**.  The
partition's stream transaction then still forms, so ``advance_time`` fires
(trailing-negation deadlines), garbage collection runs, and window
bookkeeping advances exactly as in the unshedded run.

**Determinism contract.**  Shed decisions are a pure function of
``(seed, stream, model)``: sampling hashes ``(seed, timestamp, index in
batch)`` through splitmix64 — no wall clock, no ``random`` module, no
``event_id`` — and the controller's feedback signals are quantized (cost
to 1e-6, pressure to 1/4096) so the float-ulp divergence between backend
cost associations can never flip a knife-edge decision.  Identical seeds
therefore give byte-identical decision streams across the serial and
process backends — asserted by the ``shed`` difftest axis via
:attr:`LoadShedder.decision_digest`.

For the process backend the parent (which admits) cannot read worker-side
partition state; workers piggyback a per-partition feedback triple
``(active contexts, hot awaited types, hot key values)`` on every exec
reply.  The parent's view is thus "state after all transactions < t" — the
same view a serial run reads live, so decisions agree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.events.event import Event
from repro.events.timebase import TimePoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import CaesarEngine, EngineReport

#: Environment variable consulted when an engine is built without an
#: explicit shedding spec.  ``off``/empty disables (the default), ``on``
#: enables with defaults, and a ``key=value,key=value`` string configures
#: individual fields (e.g. ``CAESAR_SHED=latency_target=2.0,cost_rate=40``).
SHED_ENV_VAR = "CAESAR_SHED"

_OFF_VALUES = frozenset({"", "0", "off", "false", "no", "none", "disabled"})
_ON_VALUES = frozenset({"1", "on", "true", "yes", "enabled", "default"})

#: Decision codes, one byte per event per batch, in batch order.  The
#: digest and the optional decision log are built from these.
DECISION_PROTECTED = 0  #: admitted by ladder rungs 1-3
DECISION_SAMPLED = 1  #: warm/cold candidate admitted by sampling
DECISION_SHED_COLD = 2
DECISION_SHED_WARM = 3
DECISION_SHED_SUSPENDED = 4
DECISION_TICK = 5  #: would shed, retained to keep its partition's clock

_DECISION_CLASS = {
    DECISION_SHED_COLD: "cold",
    DECISION_SHED_WARM: "warm",
    DECISION_SHED_SUSPENDED: "suspended",
}

#: Pressure is quantized to this grid before any decision uses it, so the
#: last-ulp cost differences between backends cannot flip a threshold.
_PRESSURE_GRID = 4096


def _quantize_pressure(value: float) -> float:
    value = min(1.0, max(0.0, value))
    return round(value * _PRESSURE_GRID) / _PRESSURE_GRID


_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a strong, cheap 64-bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _time_key(t: TimePoint) -> int:
    """A stable 64-bit image of a timestamp (int or float)."""
    return int.from_bytes(struct.pack(">d", float(t)), "big")


def _unit_hash(seed: int, t_key: int, index: int) -> float:
    """Deterministic u ∈ [0, 1) for event ``index`` of the batch at ``t``."""
    h = _mix64(_mix64(seed & _M64) ^ _mix64(t_key) ^ ((index + 1) & _M64))
    return h / float(1 << 64)


def event_value_key(event: Event) -> tuple:
    """The cross-run identity of an input event.

    ``event_id`` is process-unique and therefore useless for matching
    events across two runs of the same stream; type + timestamp + sorted
    payload reprs is exactly the identity the difftest canon uses for
    derived events.
    """
    return (
        event.type_name,
        event.timestamp,
        tuple(sorted((k, repr(v)) for k, v in event.payload.items())),
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SheddingConfig:
    """Everything that shapes the admission controller, in one frozen value.

    Parameters
    ----------
    latency_target:
        Modeled-backlog target in seconds.  The backlog model mirrors the
        engine's deterministic latency queue: each batch adds
        ``cost_units × seconds_per_cost_unit`` of service and one stream
        time unit drains one second.  Requires the engine's
        ``seconds_per_cost_unit`` or :attr:`cost_rate` to translate cost
        into seconds; without either, the latency term is off.
    depth_target:
        Pending-queue depth target (``EventDistributor.total_pending()``
        at admission time), for incremental sessions where the queue can
        actually accumulate.
    cost_rate:
        Sustainable cost units per stream-time unit.  ``1 / cost_rate``
        seconds of modeled service per cost unit when the engine has no
        ``seconds_per_cost_unit`` of its own.
    kp / ki / kd:
        PID gains on the normalized overshoot
        ``max((latency - target) / target, (depth - target) / target)``.
        The integral term is clamped to ``[0, 1/ki]`` (anti-windup).
    max_shed_fraction:
        Ceiling on the per-class shed probability — even at full pressure
        a trickle of sheddable events is admitted.
    seed:
        Seed of the per-event sampling hash.  Same seed + same stream =
        byte-identical decisions, on every backend.
    fixed_pressure:
        Bypass the controller with a constant pressure (tests, and
        ``0.0`` for an observe-only shedder that admits everything while
        recording the backlog trajectory).
    context_priorities:
        ``{context: priority}`` with priority in ``[0, 1]`` (default 0.5).
        Higher-priority contexts keep their warm events longer; contexts
        below :attr:`suspend_below_priority` are suspended outright at
        :attr:`suspend_pressure`.
    suspend_pressure / suspend_below_priority:
        Whole-context suspension: at pressure ≥ ``suspend_pressure``
        every context with priority < ``suspend_below_priority`` is
        shed-suspended — all its events drop (ladder rung 4), the
        generalization of the paper's plan-suspension mechanism.  The
        default threshold of 0.0 never suspends anything.
    protect_key:
        Payload attribute whose values, when bound inside a live partial
        match of an active context, protect matching events (the
        pattern-aware "hot key" idea).
    dead_letter:
        Divert shed events into the engine's dead-letter queue (reason
        ``"shed"``) when the engine has one; counters are kept either way.
    record_decisions:
        Keep the full per-batch decision log, the shed-event identity set
        and the backlog trajectory on the shedder (difftest + bench).
    """

    enabled: bool = True
    latency_target: float | None = None
    depth_target: int | None = None
    cost_rate: float | None = None
    kp: float = 0.8
    ki: float = 0.2
    kd: float = 0.0
    max_shed_fraction: float = 0.95
    seed: int = 2016
    fixed_pressure: float | None = None
    context_priorities: tuple[tuple[str, float], ...] = ()
    suspend_pressure: float = 0.95
    suspend_below_priority: float = 0.0
    protect_key: str | None = None
    dead_letter: bool = True
    record_decisions: bool = False

    def __post_init__(self):
        if isinstance(self.context_priorities, Mapping):
            object.__setattr__(
                self,
                "context_priorities",
                tuple(sorted(self.context_priorities.items())),
            )
        if not 0.0 <= self.max_shed_fraction <= 1.0:
            raise ValueError(
                f"max_shed_fraction must be in [0, 1], "
                f"got {self.max_shed_fraction}"
            )
        for name, priority in self.context_priorities:
            if not 0.0 <= priority <= 1.0:
                raise ValueError(
                    f"priority of context {name!r} must be in [0, 1], "
                    f"got {priority}"
                )
        if self.fixed_pressure is not None and not (
            0.0 <= self.fixed_pressure <= 1.0
        ):
            raise ValueError(
                f"fixed_pressure must be in [0, 1], got {self.fixed_pressure}"
            )

    def priority(self, context_name: str) -> float:
        for name, priority in self.context_priorities:
            if name == context_name:
                return priority
        return 0.5


_BOOL_FIELDS = frozenset({"enabled", "dead_letter", "record_decisions"})
_INT_FIELDS = frozenset({"depth_target", "seed"})


def _parse_kv(spec: str) -> SheddingConfig:
    kwargs: dict = {}
    valid = {f.name for f in dataclasses.fields(SheddingConfig)}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad {SHED_ENV_VAR} entry {part!r}: expected key=value"
            )
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in valid:
            raise ValueError(
                f"unknown {SHED_ENV_VAR} field {key!r} "
                f"(have: {sorted(valid)})"
            )
        if key == "protect_key":
            kwargs[key] = raw
        elif key in _BOOL_FIELDS:
            kwargs[key] = raw.lower() in _ON_VALUES
        elif key in _INT_FIELDS:
            kwargs[key] = int(raw)
        else:
            kwargs[key] = float(raw)
    return SheddingConfig(**kwargs)


def resolve_shedding(
    spec: "SheddingConfig | str | bool | None",
) -> SheddingConfig | None:
    """Turn a shedding spec into a config, or ``None`` for "off".

    ``None`` consults :data:`SHED_ENV_VAR`; unset/empty/``off`` means
    disabled (the default is a strict no-op), ``on`` enables defaults, and
    a ``key=value,...`` string configures fields individually.
    """
    if isinstance(spec, SheddingConfig):
        return spec if spec.enabled else None
    if spec is True:
        return SheddingConfig()
    if spec is False:
        return None
    if spec is None:
        spec = os.environ.get(SHED_ENV_VAR, "")
    text = str(spec).strip()
    if text.lower() in _OFF_VALUES:
        return None
    if text.lower() in _ON_VALUES:
        return SheddingConfig()
    config = _parse_kv(text)
    return config if config.enabled else None


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------


class OverloadController:
    """PID on the normalized overshoot of the feedback signals.

    Stream-time-driven: ``dt`` is the stream-time delta between admitted
    batches, so two runs of the same stream integrate identically no
    matter how fast the wall clock moves.
    """

    def __init__(self, config: SheddingConfig):
        self.config = config
        self.integral = 0.0
        self.last_error = 0.0
        #: anti-windup clamp: the integral alone can demand at most full
        #: pressure
        self._integral_max = (1.0 / config.ki) if config.ki > 0 else 0.0

    def reset(self) -> None:
        self.integral = 0.0
        self.last_error = 0.0

    @staticmethod
    def _overshoot(value: float, target: float) -> float:
        if target <= 0:
            return 0.0
        return max(0.0, (value - target) / target)

    def update(
        self,
        *,
        dt: float,
        latency: float | None,
        depth: int | None,
    ) -> float:
        """New pressure in ``[0, 1]`` given the current feedback signals."""
        config = self.config
        error = 0.0
        if latency is not None and config.latency_target is not None:
            error = max(error, self._overshoot(latency, config.latency_target))
        if depth is not None and config.depth_target is not None:
            error = max(
                error, self._overshoot(float(depth), float(config.depth_target))
            )
        derivative = 0.0
        if dt > 0:
            self.integral = min(
                self._integral_max, max(0.0, self.integral + error * dt)
            )
            derivative = (error - self.last_error) / dt
        self.last_error = error
        raw = (
            config.kp * error
            + config.ki * self.integral
            + config.kd * derivative
        )
        return _quantize_pressure(raw)


# ---------------------------------------------------------------------------
# the shedder
# ---------------------------------------------------------------------------


@dataclass
class _ModelInfo:
    """Static interest-set structure, derived once from the engine's model."""

    deriving_interest: frozenset[str]
    context_interest: dict[str, frozenset[str]]
    contexts_by_type: dict[str, tuple[str, ...]]
    all_interest: frozenset[str]
    initially_active: frozenset[str]
    context_names: tuple[str, ...] = ()
    #: preprocessors consume types outside every plan interest set, so
    #: their inputs cannot be classified — protect everything
    protect_all: bool = False
    context_aware: bool = True


#: Per-partition live view: (active contexts, hot awaited types, hot key
#: values).  Stored internally as sets; shipped between processes as
#: sorted tuples.
_EMPTY_VIEW = (frozenset(), frozenset(), frozenset())


class LoadShedder:
    """Deterministic admission controller for one engine.

    One instance lives on the engine (parent process); forked shard
    workers only ever call :meth:`collect_view` on their copy.  All
    per-run state is reset by :meth:`begin_run`.
    """

    def __init__(self, config: SheddingConfig):
        self.config = config
        self._model: _ModelInfo | None = None
        self._engine: "CaesarEngine | None" = None
        self._dead_letters = None
        self._controller = OverloadController(config)
        self._metrics = None
        # -- per-run state ------------------------------------------------
        self._distributor = None
        self._remote = False
        self._service_per_cost: float | None = None
        self._last_t: TimePoint | None = None
        self._backlog = 0.0
        self._view: dict = {}
        self.pressure = 0.0
        self._digest = hashlib.blake2b(digest_size=16)
        self.protected_events = 0
        self.sampled_events = 0
        self.shed_events = 0
        self.shed_ticks = 0
        self.shed_by_class: dict[str, int] = {}
        self.shed_by_context: dict[str, int] = {}
        self.suspended_contexts: set[str] = set()
        self.pressure_peak = 0.0
        self.depth_peak = 0
        self.backlog_peak = 0.0
        self.decisions: list[tuple[TimePoint, bytes]] = []
        self.shed_event_keys: set[tuple] = set()
        self.backlog_trajectory: list[tuple[TimePoint, float]] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, engine: "CaesarEngine") -> None:
        """Derive the static interest-set structure from the engine."""
        self._engine = engine
        deriving = frozenset().union(
            *(
                plan.interest_set()
                for plan in engine._deriving_templates.values()
            ),
            frozenset(),
        )
        context_interest = {
            name: plan.interest_set()
            for name, plan in engine._processing_templates.items()
        }
        contexts_by_type: dict[str, list[str]] = {}
        for name in sorted(context_interest):
            for type_name in context_interest[name]:
                contexts_by_type.setdefault(type_name, []).append(name)
        all_interest = deriving.union(*context_interest.values(), frozenset())
        self._model = _ModelInfo(
            deriving_interest=deriving,
            context_interest=context_interest,
            contexts_by_type={
                t: tuple(names) for t, names in contexts_by_type.items()
            },
            all_interest=all_interest,
            initially_active=frozenset({engine.model.default_context}),
            context_names=tuple(engine.model.context_names),
            protect_all=bool(engine.preprocessor_templates),
            context_aware=engine.context_aware,
        )

    def bind_metrics(self, registry) -> None:
        if not registry.enabled:
            return
        shed = {
            cls: registry.counter(
                "caesar_shed_events_total",
                "Events dropped by the load shedder",
                labels={"class": cls},
            )
            for cls in ("cold", "warm", "suspended")
        }
        self._metrics = {
            "shed": shed,
            "protected": registry.counter(
                "caesar_protected_events_total",
                "Events the shedder classified as protected and admitted",
            ),
            "sampled": registry.counter(
                "caesar_sampled_events_total",
                "Sheddable events admitted by the sampling hash",
            ),
            "ticks": registry.counter(
                "caesar_shed_ticks_total",
                "Events retained to keep an otherwise-empty partition "
                "transaction alive",
            ),
            "pressure": registry.gauge(
                "caesar_shed_pressure",
                "Current shed pressure (controller output, 0..1)",
            ),
            "backlog": registry.gauge(
                "caesar_shed_backlog_seconds",
                "Modeled service backlog the controller steers against",
            ),
            "registry": registry,
            "context": {},
        }

    def _context_shed_counter(self, name: str):
        counters = self._metrics["context"]
        counter = counters.get(name)
        if counter is None:
            counter = self._metrics["registry"].counter(
                "caesar_context_shed_total",
                "Events shed per (highest-priority interested) context",
                labels={"context": name},
            )
            counters[name] = counter
        return counter

    def bind_dead_letters(self, dead_letters) -> None:
        self._dead_letters = dead_letters

    def begin_run(self, *, distributor=None, remote: bool = False) -> None:
        """Reset all per-run state; called by the engine at run start."""
        engine = self._engine
        self._distributor = distributor
        self._remote = remote
        spcu = engine.seconds_per_cost_unit if engine is not None else None
        if spcu is not None:
            self._service_per_cost = spcu
        elif self.config.cost_rate:
            self._service_per_cost = 1.0 / self.config.cost_rate
        else:
            self._service_per_cost = None
        self._controller.reset()
        self._last_t = None
        self._backlog = 0.0
        self._view = {}
        self.pressure = 0.0
        self._digest = hashlib.blake2b(digest_size=16)
        self.protected_events = 0
        self.sampled_events = 0
        self.shed_events = 0
        self.shed_ticks = 0
        self.shed_by_class = {}
        self.shed_by_context = {}
        self.suspended_contexts = set()
        self.pressure_peak = 0.0
        self.depth_peak = 0
        self.backlog_peak = 0.0
        self.decisions = []
        self.shed_event_keys = set()
        self.backlog_trajectory = []

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------

    def note_batch_cost(self, cost: float) -> None:
        """Feed one batch's cost delta into the backlog model.

        Cost is quantized before use: parallel backends associate
        per-shard cost sums differently, so raw deltas can differ in the
        last float ulp across backends (see
        :class:`~repro.observability.EngineInstruments`).
        """
        if self._service_per_cost is None:
            return
        self._backlog += round(cost, 6) * self._service_per_cost
        if self._backlog > self.backlog_peak:
            self.backlog_peak = self._backlog
        if self.config.record_decisions and self._last_t is not None:
            self.backlog_trajectory.append((self._last_t, self._backlog))

    def absorb_remote_feedback(self, feedback) -> None:
        """Merge per-partition view triples piggybacked on an exec reply."""
        if not feedback:
            return
        for key, (active, hot_types, hot_keys) in feedback.items():
            self._view[key] = (
                frozenset(active),
                frozenset(hot_types),
                frozenset(hot_keys),
            )

    def collect_view(self, partitions: dict) -> dict:
        """The picklable per-partition feedback triple (worker + serial side).

        For every partition: its active contexts, the event types awaited
        by live partial matches of active contexts' processing plans, and
        (with ``protect_key``) the key values bound inside those partials.
        Sorted tuples so the wire form is canonical.
        """
        protect_key = self.config.protect_key
        view = {}
        for key, runtime in partitions.items():
            active = tuple(sorted(runtime.store.active_contexts()))
            hot_types: set[str] = set()
            hot_keys: set = set()
            for context_name in active:
                plan = runtime.processing_router.plan_for(context_name)
                if plan is None:
                    continue
                for query_plan in plan.plans:
                    for operator in query_plan.pattern_operators:
                        for type_name, bucket in (
                            operator._partials_by_next.items()
                        ):
                            if not bucket:
                                continue
                            hot_types.add(type_name)
                            if protect_key is None:
                                continue
                            for partial in bucket:
                                for bound in partial.binding.values():
                                    value = bound.get(protect_key)
                                    if value is not None:
                                        hot_keys.add(value)
            view[key] = (
                active,
                tuple(sorted(hot_types)),
                tuple(sorted(hot_keys, key=repr)),
            )
        return view

    def _refresh_local_view(self) -> None:
        engine = self._engine
        if engine is None:
            return
        self._view = {
            key: (frozenset(a), frozenset(ht), frozenset(hk))
            for key, (a, ht, hk) in self.collect_view(
                engine._partitions
            ).items()
        }

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def admit(self, events: list[Event], t: TimePoint) -> list[Event]:
        """Classify a batch and return the admitted events (in order)."""
        model = self._model
        config = self.config
        # -- controller step (stream-time driven) -------------------------
        dt = 0.0
        if self._last_t is not None and t > self._last_t:
            dt = float(t) - float(self._last_t)
            if self._service_per_cost is not None:
                self._backlog = max(0.0, self._backlog - dt)
        self._last_t = t
        depth = (
            self._distributor.total_pending()
            if self._distributor is not None
            else 0
        )
        if depth > self.depth_peak:
            self.depth_peak = depth
        if config.fixed_pressure is not None:
            pressure = _quantize_pressure(config.fixed_pressure)
        else:
            latency = (
                self._backlog if self._service_per_cost is not None else None
            )
            pressure = self._controller.update(
                dt=dt, latency=latency, depth=depth
            )
        self.pressure = pressure
        if pressure > self.pressure_peak:
            self.pressure_peak = pressure
        if self._metrics is not None:
            self._metrics["pressure"].set(pressure)
            self._metrics["backlog"].set(self._backlog)
        if not events:
            return events
        if not self._remote:
            self._refresh_local_view()

        # -- per-batch derived quantities ---------------------------------
        engine = self._engine
        partition_by = engine.partition_by if engine is not None else None
        t_key = _time_key(t)
        seed = config.seed
        max_shed = config.max_shed_fraction
        cold_fraction = min(2.0 * pressure, max_shed)
        warm_band = min(1.0, max(0.0, 2.0 * pressure - 1.0))
        suspend_now = (
            pressure >= config.suspend_pressure
            and config.suspend_below_priority > 0.0
        )
        suspended: frozenset[str] = frozenset()
        if suspend_now:
            suspended = frozenset(
                name
                for name in model.context_names
                if config.priority(name) < config.suspend_below_priority
            )
            self.suspended_contexts.update(suspended)
        # Same-timestamp activation race: deriving events in this batch may
        # initiate/terminate contexts *at t*, before processing consumes the
        # batch.  When any deriving-interest type is present, treat every
        # context as active for classification — always safe (more events
        # protected), and identical on every backend.
        batch_types = {event.type_name for event in events}
        race_all_active = not batch_types.isdisjoint(model.deriving_interest)

        codes = bytearray(len(events))
        partition_keys: list = [None] * len(events)
        admitted_any: dict = {}
        view = self._view
        for index, event in enumerate(events):
            type_name = event.type_name
            pk = partition_by(event) if partition_by is not None else None
            partition_keys[index] = pk
            code = DECISION_PROTECTED
            if model.protect_all or type_name in model.deriving_interest:
                pass  # protected
            elif not model.context_aware:
                # context-independent mode: every plan sees every batch, so
                # the only safely sheddable events are the no-interest ones
                if type_name in model.all_interest:
                    pass
                else:
                    u = _unit_hash(seed, t_key, index)
                    code = (
                        DECISION_SHED_COLD
                        if u < cold_fraction
                        else DECISION_SAMPLED
                    )
            else:
                interested = model.contexts_by_type.get(type_name)
                if not interested:
                    u = _unit_hash(seed, t_key, index)
                    code = (
                        DECISION_SHED_COLD
                        if u < cold_fraction
                        else DECISION_SAMPLED
                    )
                else:
                    active, hot_types, hot_keys = view.get(pk, _EMPTY_VIEW)
                    if race_all_active:
                        active = None  # all contexts count as active
                    elif pk not in view:
                        active = model.initially_active
                    if type_name in hot_types or (
                        config.protect_key is not None
                        and event.get(config.protect_key) in hot_keys
                    ):
                        pass  # hot partial match — protected
                    else:
                        active_interested = (
                            list(interested)
                            if active is None
                            else [c for c in interested if c in active]
                        )
                        live = [
                            c
                            for c in active_interested
                            if c not in suspended
                        ]
                        if live:
                            pass  # an active, unsuspended context wants it
                        elif active_interested:
                            code = DECISION_SHED_SUSPENDED
                        else:
                            priority = max(
                                config.priority(c) for c in interested
                            )
                            warm_fraction = min(
                                max_shed,
                                max(0.0, warm_band * (1.5 - priority)),
                            )
                            u = _unit_hash(seed, t_key, index)
                            code = (
                                DECISION_SHED_WARM
                                if u < warm_fraction
                                else DECISION_SAMPLED
                            )
            codes[index] = code
            if code in (DECISION_PROTECTED, DECISION_SAMPLED):
                admitted_any[pk] = True
            elif pk not in admitted_any:
                admitted_any.setdefault(pk, False)

        # -- retained ticks: never let a partition's clock stall ----------
        # If every event of a (partition, t) would shed, the partition's
        # stream transaction would not form, advance_time would not fire
        # and trailing-negation/GC behaviour would diverge from the
        # unshedded run.  Retain the last such event per partition.
        need_tick = {
            pk for pk, admitted in admitted_any.items() if not admitted
        }
        if need_tick:
            for index in range(len(events) - 1, -1, -1):
                pk = partition_keys[index]
                if pk in need_tick:
                    codes[index] = DECISION_TICK
                    need_tick.discard(pk)
                    if not need_tick:
                        break

        # -- accounting + the admitted batch ------------------------------
        self._digest.update(struct.pack(">d", float(t)))
        self._digest.update(bytes(codes))
        if config.record_decisions:
            self.decisions.append((t, bytes(codes)))
        admitted: list[Event] = []
        metrics = self._metrics
        dead_letters = (
            self._dead_letters if config.dead_letter else None
        )
        for index, event in enumerate(events):
            code = codes[index]
            if code == DECISION_PROTECTED:
                self.protected_events += 1
                admitted.append(event)
            elif code == DECISION_SAMPLED:
                self.sampled_events += 1
                admitted.append(event)
            elif code == DECISION_TICK:
                self.shed_ticks += 1
                admitted.append(event)
            else:
                cls = _DECISION_CLASS[code]
                self.shed_events += 1
                self.shed_by_class[cls] = self.shed_by_class.get(cls, 0) + 1
                context = self._attribution(event.type_name)
                self.shed_by_context[context] = (
                    self.shed_by_context.get(context, 0) + 1
                )
                if config.record_decisions:
                    self.shed_event_keys.add(event_value_key(event))
                if metrics is not None:
                    metrics["shed"][cls].inc()
                    self._context_shed_counter(context).inc()
                if dead_letters is not None:
                    dead_letters.put(
                        event,
                        reason="shed",
                        error=f"shed ({cls}) at pressure {self.pressure:g}",
                        timestamp=t,
                    )
        if metrics is not None:
            protected = sum(1 for c in codes if c == DECISION_PROTECTED)
            sampled = sum(1 for c in codes if c == DECISION_SAMPLED)
            ticks = sum(1 for c in codes if c == DECISION_TICK)
            if protected:
                metrics["protected"].inc(protected)
            if sampled:
                metrics["sampled"].inc(sampled)
            if ticks:
                metrics["ticks"].inc(ticks)
        return admitted

    def _attribution(self, type_name: str) -> str:
        """The context a shed event is charged to (highest priority wins)."""
        interested = self._model.contexts_by_type.get(type_name)
        if not interested:
            return "(none)"
        return max(interested, key=lambda c: (self.config.priority(c), c))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def decision_digest(self) -> str:
        """Hex digest over every ``(t, decision bytes)`` admitted so far."""
        return self._digest.hexdigest()

    def populate_report(self, report: "EngineReport") -> None:
        report.shed_events = self.shed_events
        report.protected_events = self.protected_events
        report.sampled_events = self.sampled_events
        report.shed_ticks = self.shed_ticks
        report.shed_by_class = dict(sorted(self.shed_by_class.items()))
        report.shed_by_context = dict(sorted(self.shed_by_context.items()))
        report.shed_decision_digest = self.decision_digest
        report.shed_pressure_peak = self.pressure_peak
        report.shed_depth_peak = self.depth_peak
        report.shed_backlog_peak_seconds = round(self.backlog_peak, 6)
        report.suspended_contexts = tuple(sorted(self.suspended_contexts))
