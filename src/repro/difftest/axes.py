"""The eight differential axes and their comparison pairs.

Each axis names an equivalence the engine stack promises:

``optimizer``
    Unoptimized plans vs the default push-down vs the full rewrite
    pipeline, plus (where the scenario carries a user-window schedule)
    non-shared vs shared workload execution — grouping on/off.
``context``
    Context-aware routing/suspension vs the context-independent baseline.
``backend``
    Serial execution vs the process-sharded backend (skipped where the
    ``fork`` start method is unavailable).
``checkpoint``
    One straight run vs checkpoint mid-stream, restore into a fresh
    engine, replay the suffix.
``reorder``
    In-order arrival vs arrival jittered within a bound and recovered
    through a :class:`~repro.runtime.reorder.ReorderBuffer`.
``shed``
    Load shedding off vs on, compared on the protected subset (derived
    events whose lineage avoids every shed input must be identical), plus
    shed runs across backends, whose decision digests must be
    byte-identical — same seed, same stream, same decisions everywhere.
``aggregate``
    Incremental (online) SEQ aggregation vs the materialize-then-fold
    oracle, compared byte-identically across the serial and process
    backends; scenarios carrying a user-window schedule also
    compare non-shared vs shared execution of aggregate queries that
    fuse into one propagation pass.
``service``
    One-shot ``run()`` vs chunked ``EngineSession.feed()`` vs continuous
    ``EngineService`` ingestion — the chunk-boundary invariant: no partial
    match or context state is ever lost between feeds.  Scenarios with a
    deploy query additionally compare a mid-stream online deployment
    against a from-scratch engine that had the query from its activation
    watermark onward.

:func:`run_comparison` executes one pair, and on divergence ddmin-shrinks
the stream to a minimal failing reproduction.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.difftest.harness import DiffResult, RunSpec, run_pair
from repro.difftest.scenarios import Scenario
from repro.difftest.shrink import ddmin
from repro.events.event import Event
from repro.events.types import EventType

AXES = (
    "optimizer", "context", "backend", "checkpoint", "reorder", "shed",
    "aggregate", "service",
)

_BASELINE = RunSpec(label="baseline")


@dataclass(frozen=True)
class Comparison:
    """One must-agree pair within an axis."""

    axis: str
    label: str
    left: RunSpec
    right: RunSpec


def _process_backend_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def comparisons_for(scenario: Scenario, axis: str) -> list[Comparison]:
    """The comparison pairs of ``axis`` applicable to ``scenario``."""
    if axis == "optimizer":
        pairs = [
            Comparison(
                axis, "none-vs-pushdown",
                RunSpec(label="optimize:none", optimize="none"),
                RunSpec(label="optimize:default", optimize="default"),
            ),
            Comparison(
                axis, "none-vs-full",
                RunSpec(label="optimize:none", optimize="none"),
                RunSpec(label="optimize:full", optimize="full"),
            ),
        ]
        if scenario.window_specs is not None:
            pairs.append(Comparison(
                axis, "nonshared-vs-shared",
                RunSpec(label="workload:nonshared", workload="nonshared"),
                RunSpec(label="workload:shared", workload="shared"),
            ))
        return pairs
    if axis == "context":
        return [Comparison(
            axis, "aware-vs-independent",
            _BASELINE,
            RunSpec(label="context-independent", context_aware=False),
        )]
    if axis == "backend":
        if not _process_backend_available():
            return []
        return [Comparison(
            axis, "serial-vs-process",
            _BASELINE,
            RunSpec(label="backend:process", backend="process"),
        )]
    if axis == "checkpoint":
        return [Comparison(
            axis, "straight-vs-restored",
            _BASELINE,
            RunSpec(label="checkpoint@0.5", checkpoint_at=0.5),
        )]
    if axis == "reorder":
        jitter = int(scenario.reorder_jitter)
        return [Comparison(
            axis, "inorder-vs-jittered",
            _BASELINE,
            RunSpec(label=f"jitter:{jitter}", jitter=jitter),
        )]
    if axis == "shed":
        shed_serial = RunSpec(label="shed:serial", shed=True)
        pairs = [
            Comparison(
                axis, "off-vs-on-protected",
                _BASELINE,
                RunSpec(label="shed:on", shed=True),
            ),
        ]
        if _process_backend_available():
            pairs.append(Comparison(
                axis, "shed-serial-vs-process",
                shed_serial,
                RunSpec(label="shed:process", backend="process", shed=True),
            ))
        return pairs
    if axis == "aggregate":
        online_serial = RunSpec(label="aggregate:online")
        pairs = [
            Comparison(
                axis, "online-vs-materialize",
                RunSpec(
                    label="aggregate:materialize", aggregation="materialize"
                ),
                online_serial,
            ),
        ]
        if _process_backend_available():
            pairs.append(Comparison(
                axis, "aggregate-serial-vs-process",
                online_serial,
                RunSpec(label="aggregate:process", backend="process"),
            ))
        if scenario.window_specs is not None:
            pairs.append(Comparison(
                axis, "aggregate-nonshared-vs-shared",
                RunSpec(
                    label="aggregate:workload-nonshared",
                    workload="nonshared",
                ),
                RunSpec(
                    label="aggregate:workload-shared", workload="shared"
                ),
            ))
            pairs.append(Comparison(
                axis, "aggregate-materialize-vs-shared-online",
                RunSpec(
                    label="aggregate:workload-materialize",
                    workload="nonshared",
                    aggregation="materialize",
                ),
                RunSpec(
                    label="aggregate:workload-shared-online",
                    workload="shared",
                ),
            ))
        return pairs
    if axis == "service":
        pairs = [
            Comparison(
                axis, "run-vs-session",
                _BASELINE,
                RunSpec(label="ingest:session", ingest="session"),
            ),
            Comparison(
                axis, "run-vs-service",
                _BASELINE,
                RunSpec(label="ingest:service", ingest="service"),
            ),
        ]
        if scenario.deploy_query is not None:
            reference = RunSpec(label="deploy:reference", deploy="reference")
            pairs.append(Comparison(
                axis, "deploy-online-vs-reference",
                reference,
                RunSpec(
                    label="deploy:online",
                    ingest="session",
                    deploy="online",
                ),
            ))
            pairs.append(Comparison(
                axis, "deploy-service-vs-reference",
                reference,
                RunSpec(
                    label="deploy:service-online",
                    ingest="service",
                    deploy="online",
                ),
            ))
        return pairs
    raise ValueError(f"unknown axis {axis!r} (have: {AXES})")


def run_comparison(
    scenario: Scenario,
    comparison: Comparison,
    events: list[Event],
    *,
    shrink: bool = True,
    inject_divergence: bool = False,
    max_shrink_tests: int = 200,
) -> DiffResult:
    """Execute one comparison; shrink the stream if it diverges.

    ``inject_divergence`` drops one event from the right side's input —
    the self-test proving the harness detects, reports and minimizes a
    real disagreement (and that ``repro diff`` exits non-zero on one).
    """
    right = comparison.right
    if inject_divergence:
        right = dataclasses.replace(
            right,
            label=right.label + "+dropped-event",
            drop_index=len(events) // 2,
        )
    divergence = run_pair(scenario, comparison.left, right, events)
    minimized = None
    if divergence is not None and shrink and len(events) > 1:
        failing = ddmin(
            events,
            lambda subset: run_pair(scenario, comparison.left, right, subset)
            is not None,
            max_tests=max_shrink_tests,
        )
        minimized = tuple(failing)
        # re-diff the minimized stream so the reported first divergence
        # matches the reproduction we hand the user
        divergence = run_pair(scenario, comparison.left, right, minimized)
    return DiffResult(
        scenario=scenario.name,
        axis=comparison.axis,
        label=comparison.label,
        divergence=divergence,
        events_run=len(events),
        minimized=minimized,
    )


#: Ballast for the ``shed`` axis: a type no scenario model consumes, so
#: the admission ladder classifies it cold and actually sheds under
#: pressure.  The scenarios' own streams are (correctly) dominated by
#: protected types — without ballast the axis would only ever prove the
#: trivial "nothing sheddable" case.
_NOISE_TYPE = EventType.define("OverloadNoise", n="int")


def with_overload_noise(events: list[Event], seed: int) -> list[Event]:
    """Interleave deterministic cold-telemetry events into a stream."""
    rng = random.Random(seed)
    noisy = list(events)
    for t in sorted({e.timestamp for e in events}):
        for _ in range(3):
            noisy.append(Event(_NOISE_TYPE, t, {"n": rng.randint(0, 999)}))
    noisy.sort(key=lambda e: (e.timestamp, e.event_id))
    return noisy


def run_axis(
    scenario: Scenario,
    axis: str,
    *,
    seed: int = 7,
    scale: float = 1.0,
    shrink: bool = True,
    inject_divergence: bool = False,
) -> list[DiffResult]:
    """Run every comparison of ``axis`` on a freshly generated stream."""
    events = scenario.make_events(seed, scale)
    if axis == "shed":
        events = with_overload_noise(events, seed)
    return [
        run_comparison(
            scenario,
            comparison,
            events,
            shrink=shrink,
            inject_divergence=inject_divergence,
        )
        for comparison in comparisons_for(scenario, axis)
    ]
