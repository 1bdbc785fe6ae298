"""CAESAR execution infrastructure (Section 6).

The core pieces: the context-aware stream router, the time-driven
transaction scheduler, the event distributor with its per-partition queues,
the context history store, the garbage collector — and the two engines that
tie them together: :class:`~repro.runtime.engine.CaesarEngine` (context-
aware) and :class:`~repro.runtime.baseline.ContextIndependentEngine` (the
state-of-the-art comparator).

Extensions: :class:`~repro.runtime.session.EngineSession` (incremental
feeding), :class:`~repro.runtime.service.EngineService` (long-lived
streaming service: bounded ingestion queue with backpressure, live
emission, online query/context deployment — ``repro serve``),
:class:`~repro.runtime.reorder.ReorderBuffer` (bounded
out-of-order handling), :mod:`~repro.runtime.reporting` (JSON export,
ASCII context timelines) — and the supervision layer:
:class:`~repro.runtime.supervisor.SupervisedEngine` (per-plan fault
isolation behind circuit breakers),
:class:`~repro.runtime.deadletter.DeadLetterQueue` (bounded capture of
schema-violating / late / quarantined events) and
:class:`~repro.runtime.recovery.RecoveryManager` (checkpoint autosave +
crash recovery by suffix replay).
"""

from repro.runtime.engine import CaesarEngine, EngineReport
from repro.runtime.backend import (
    BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.runtime.baseline import ContextIndependentEngine
from repro.runtime.metrics import LatencyTracker, win_ratio
from repro.runtime.router import ContextAwareStreamRouter
from repro.runtime.scheduler import TimeDrivenScheduler
from repro.runtime.queues import EventDistributor
from repro.runtime.history import ContextHistory
from repro.runtime.garbage import GarbageCollector
from repro.runtime.reorder import ReorderBuffer
from repro.runtime.session import EngineSession
from repro.runtime.service import EngineService
from repro.runtime.checkpoint import capture_checkpoint, restore_checkpoint
from repro.runtime.deadletter import (
    DeadLetterEntry,
    DeadLetterQueue,
    REASON_LATE,
    REASON_PLAN_FAULT,
    REASON_QUARANTINED,
    REASON_SCHEMA,
    REASON_SHED,
)
from repro.runtime.shedding import (
    LoadShedder,
    OverloadController,
    SheddingConfig,
    resolve_shedding,
)
from repro.runtime.recovery import RecoveryManager
from repro.runtime.supervisor import (
    BreakerState,
    CircuitBreaker,
    SupervisedEngine,
)
from repro.runtime.reporting import (
    REPORT_SCHEMA_VERSION,
    outputs_to_rows,
    render_timeline,
    report_to_dict,
)

__all__ = [
    "BACKENDS",
    "BreakerState",
    "CaesarEngine",
    "CircuitBreaker",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "ContextAwareStreamRouter",
    "ContextHistory",
    "ContextIndependentEngine",
    "DeadLetterEntry",
    "DeadLetterQueue",
    "EngineReport",
    "EngineService",
    "EngineSession",
    "EventDistributor",
    "GarbageCollector",
    "LatencyTracker",
    "LoadShedder",
    "OverloadController",
    "REASON_LATE",
    "REASON_PLAN_FAULT",
    "REASON_QUARANTINED",
    "REASON_SCHEMA",
    "REASON_SHED",
    "REPORT_SCHEMA_VERSION",
    "RecoveryManager",
    "ReorderBuffer",
    "SheddingConfig",
    "SupervisedEngine",
    "TimeDrivenScheduler",
    "capture_checkpoint",
    "outputs_to_rows",
    "render_timeline",
    "report_to_dict",
    "resolve_backend",
    "resolve_shedding",
    "restore_checkpoint",
    "win_ratio",
]
