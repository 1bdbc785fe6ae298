"""CAESAR: Context-Aware Event Stream Analytics.

A full reproduction of *"Context-aware Event Stream Analytics"* (Poppe, Lei,
Rundensteiner, Dougherty — EDBT 2016): the CAESAR model with application
contexts as first-class citizens, the CAESAR algebra and its context window
operators, the optimizer (context window push-down, window grouping,
workload sharing), and the runtime infrastructure (context bit vector,
context-aware stream router, time-driven transaction scheduler).

Quickstart::

    from repro import CaesarModel, EngineConfig, create_engine, parse_query
    from repro.events import Event, EventStream, EventType

    report_type = EventType.define("Report", value="int", sec="int")
    model = CaesarModel(default_context="normal")
    model.add_context("alert")
    model.add_query(parse_query(
        "INITIATE CONTEXT alert PATTERN Report r WHERE r.value > 100 "
        "CONTEXT normal", name="raise_alert"))
    model.add_query(parse_query(
        "TERMINATE CONTEXT alert PATTERN Report r WHERE r.value <= 100 "
        "CONTEXT alert", name="clear_alert"))
    model.add_query(parse_query(
        "DERIVE Alarm(r.value, r.sec) PATTERN Report r CONTEXT alert",
        name="alarm"))

    engine = create_engine(model)            # or EngineConfig(backend=...)
    result = engine.run(stream)

See ``examples/`` for complete programs and ``DESIGN.md`` for the paper-to-
module map.
"""

from repro.core import (
    CaesarModel,
    ContextBitVector,
    ContextType,
    ContextWindow,
    ContextWindowStore,
    EventQuery,
    GroupedWindow,
    QueryAction,
    WindowSpec,
    group_context_windows,
)
from repro.api import EngineConfig, SupervisionConfig, create_engine
from repro.events import Event, EventStream, EventType, TimeInterval
from repro.language import parse_query
from repro.observability import (
    MetricsRegistry,
    Observability,
    TraceRecorder,
    chrome_trace,
    to_json_snapshot,
    to_prometheus,
)
from repro.optimizer.apply import OptimizationRules
from repro.optimizer.planner import build_query_plan
from repro.optimizer.pushdown import push_context_windows_down
from repro.optimizer.sharing import build_nonshared_workload, build_shared_workload
from repro.runtime import (
    CaesarEngine,
    ContextIndependentEngine,
    DeadLetterQueue,
    EngineReport,
    RecoveryManager,
    SheddingConfig,
    SupervisedEngine,
    win_ratio,
)

__version__ = "1.0.0"

__all__ = [
    "CaesarEngine",
    "CaesarModel",
    "ContextBitVector",
    "ContextIndependentEngine",
    "ContextType",
    "ContextWindow",
    "ContextWindowStore",
    "DeadLetterQueue",
    "EngineConfig",
    "EngineReport",
    "MetricsRegistry",
    "Observability",
    "OptimizationRules",
    "RecoveryManager",
    "SheddingConfig",
    "SupervisedEngine",
    "SupervisionConfig",
    "TraceRecorder",
    "Event",
    "EventQuery",
    "EventStream",
    "EventType",
    "GroupedWindow",
    "QueryAction",
    "TimeInterval",
    "WindowSpec",
    "build_nonshared_workload",
    "build_query_plan",
    "build_shared_workload",
    "chrome_trace",
    "create_engine",
    "group_context_windows",
    "parse_query",
    "push_context_windows_down",
    "to_json_snapshot",
    "to_prometheus",
    "win_ratio",
]
