"""The unified construction API: ``create_engine`` + ``EngineConfig``.

There is one engine runtime, :class:`CaesarEngine`, with constructor-only
variants: :class:`SupervisedEngine`, :class:`ContextIndependentEngine` and
the shared-workload :class:`~repro.runtime.workload.WorkloadEngine` —
plus two environment variables (``CAESAR_BACKEND``,
``CAESAR_OBSERVABILITY``).  This module puts one documented path in front
of them::

    from repro import create_engine, EngineConfig, SupervisionConfig

    engine = create_engine(model)                       # all defaults
    engine = create_engine(model, EngineConfig(
        backend="process",
        supervision=SupervisionConfig(failure_threshold=5),
        observability="trace",
        partition_by=lambda e: e.payload["segment"],
    ))
    engine = create_engine(model, config, backend="serial")  # override

The config objects are *frozen* dataclasses: they can be shared, compared,
put in test fixtures and partially overridden with keyword arguments to
:func:`create_engine` (applied via :func:`dataclasses.replace`) without
aliasing surprises.  The engine classes remain public and keep working —
``create_engine`` only composes them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.core.model import CaesarModel
from repro.events.timebase import TimePoint
from repro.observability import Observability
from repro.optimizer.apply import OptimizationRules
from repro.optimizer.sharing import SharedWorkload
from repro.runtime.backend import ExecutionBackend
from repro.runtime.deadletter import DeadLetterQueue
from repro.runtime.engine import CaesarEngine
from repro.runtime.queues import Partitioner, single_partition
from repro.runtime.recovery import RecoveryManager
from repro.runtime.shedding import SheddingConfig
from repro.runtime.supervisor import SupervisedEngine
from repro.runtime.workload import WorkloadEngine


@dataclass(frozen=True)
class SupervisionConfig:
    """Fault-isolation settings for a supervised engine.

    Mirrors :class:`~repro.runtime.supervisor.SupervisedEngine`'s
    supervision keywords; attaching one (or ``supervision=True``) to an
    :class:`EngineConfig` makes :func:`create_engine` build a
    :class:`SupervisedEngine`.
    """

    failure_threshold: int = 3
    cooldown: TimePoint = 60
    dead_letters: DeadLetterQueue | None = None
    validate_schemas: bool = True


@dataclass(frozen=True)
class EngineConfig:
    """Everything that shapes an engine, in one frozen value object.

    ``context_aware=False`` with ``optimize=False`` yields the paper's
    context-independent baseline; ``supervision`` and/or ``recovery``
    select the supervised engine; the rest passes through to the chosen
    engine's constructor.  ``backend`` and ``observability`` accept the
    same specs as the engine constructors (instances, names, or ``None``
    to consult ``CAESAR_BACKEND`` / ``CAESAR_OBSERVABILITY``); ``shedding``
    accepts a :class:`~repro.runtime.shedding.SheddingConfig`, a spec
    string, ``True``/``False``, or ``None`` to consult ``CAESAR_SHED``.
    ``recovery`` accepts a :class:`~repro.runtime.recovery.RecoveryManager`,
    ``True`` for one with the default autosave interval, or ``False`` /
    ``None`` for no checkpointing.  ``aggregation`` selects how aggregating
    DERIVE queries run (``"online"`` | ``"materialize"``).  A pre-built
    :class:`~repro.optimizer.sharing.SharedWorkload` brings its own plans
    and retention, so ``optimize``, ``aggregation`` and ``retention`` do
    not apply to it.
    ``optimize`` additionally accepts an
    :class:`~repro.optimizer.apply.OptimizationRules` for per-rewrite
    control (the differential harness's optimizer axis).
    """

    context_aware: bool = True
    optimize: bool | OptimizationRules = True
    backend: ExecutionBackend | str | None = None
    supervision: SupervisionConfig | bool | None = None
    recovery: RecoveryManager | bool | None = None
    observability: Observability | str | bool | None = None
    shedding: SheddingConfig | str | bool | None = None
    partition_by: Partitioner = single_partition
    retention: TimePoint = 300
    aggregation: str = "online"
    gc_interval: TimePoint = 60
    seconds_per_cost_unit: float | None = None
    preprocessors: tuple = ()
    on_context_transition: Callable | None = None

    #: autosave interval (stream-time units) used when ``recovery=True``
    DEFAULT_RECOVERY_INTERVAL = 60

    def recovery_manager(self) -> RecoveryManager | None:
        """The effective recovery manager, normalising ``True``/``None``.

        ``True`` builds a manager with the default autosave interval;
        an explicit :class:`~repro.runtime.recovery.RecoveryManager`
        passes through untouched.
        """
        if isinstance(self.recovery, RecoveryManager):
            return self.recovery
        if self.recovery is True:
            return RecoveryManager(interval=self.DEFAULT_RECOVERY_INTERVAL)
        if self.recovery in (None, False):
            return None
        raise TypeError(
            f"recovery must be a RecoveryManager, True, False or None, "
            f"got {self.recovery!r}"
        )

    def supervision_config(self) -> SupervisionConfig | None:
        """The effective supervision settings, normalising ``True``/``None``.

        A recovery manager implies supervision (checkpoint autosave is a
        supervisor concern), so ``recovery`` alone also yields defaults.
        """
        if isinstance(self.supervision, SupervisionConfig):
            return self.supervision
        if self.supervision is True or (
            self.supervision is None and self.recovery not in (None, False)
        ):
            return SupervisionConfig()
        if self.supervision in (None, False):
            return None
        raise TypeError(
            f"supervision must be a SupervisionConfig, True, False or None, "
            f"got {self.supervision!r}"
        )


def create_engine(
    model: CaesarModel | SharedWorkload,
    config: EngineConfig | None = None,
    **overrides,
) -> CaesarEngine:
    """Build the right engine stack for ``model`` under ``config``.

    ``model`` may be a :class:`~repro.core.model.CaesarModel` (the normal
    case) or a :class:`~repro.optimizer.sharing.SharedWorkload` (the
    workload-sharing experiments), which runs on the same engine with one
    scheduled context per execution unit.  Keyword ``overrides`` replace
    individual fields of ``config`` (:func:`dataclasses.replace`), so call
    sites can share a base config and vary one knob.
    """
    if config is None:
        config = EngineConfig()
    elif not isinstance(config, EngineConfig):
        raise TypeError(
            f"config must be an EngineConfig or None, got {config!r}"
        )
    if overrides:
        valid = {f.name for f in dataclasses.fields(EngineConfig)}
        unknown = set(overrides) - valid
        if unknown:
            raise TypeError(
                f"create_engine() got unknown override(s) "
                f"{sorted(unknown)}; valid fields: {sorted(valid)}"
            )
        config = dataclasses.replace(config, **overrides)

    engine_kwargs = dict(
        context_aware=config.context_aware,
        partition_by=config.partition_by,
        seconds_per_cost_unit=config.seconds_per_cost_unit,
        gc_interval=config.gc_interval,
        backend=config.backend,
        observability=config.observability,
    )
    if isinstance(model, SharedWorkload):
        for name in (
            "supervision",
            "recovery",
            "preprocessors",
            "on_context_transition",
            "shedding",
        ):
            value = getattr(config, name)
            if value not in (None, (), False):
                raise TypeError(
                    f"EngineConfig.{name} does not apply to a SharedWorkload"
                )
        return WorkloadEngine(model, **engine_kwargs)

    engine_kwargs.update(
        optimize=config.optimize,
        retention=config.retention,
        aggregation=config.aggregation,
        preprocessors=tuple(config.preprocessors),
        on_context_transition=config.on_context_transition,
        shedding=config.shedding,
    )
    supervision = config.supervision_config()
    if supervision is None:
        return CaesarEngine(model, **engine_kwargs)
    return SupervisedEngine(
        model,
        failure_threshold=supervision.failure_threshold,
        cooldown=supervision.cooldown,
        dead_letters=supervision.dead_letters,
        recovery=config.recovery_manager(),
        validate_schemas=supervision.validate_schemas,
        **engine_kwargs,
    )
