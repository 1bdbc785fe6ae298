"""Canonical run results and their comparison.

Two engine runs "agree" when their observable semantics match, not when
their reports are bit-identical — wall-clock, cost accounting and routing
counters legitimately differ across configurations (lower cost is the whole
point of the optimizer).  :func:`canonicalize` projects an
:class:`~repro.runtime.engine.EngineReport` onto the parts every equivalent
configuration must reproduce exactly:

* the derived-event stream, as order-independent canonical tuples (the
  engines emit outputs in deterministic order, but *which* deterministic
  order depends on partition interleaving, so the canon is sorted);
* the context windows per partition (same contexts open and close at the
  same times on the same partitions);
* deterministic counters: events processed and derived-output counts by
  type.

:func:`first_divergence` diffs two canonical results and names the first
differing element, which is what the shrinker minimizes against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.event import Event
from repro.runtime.engine import EngineReport

#: A derived event reduced to its visible value: occurrence interval,
#: type and payload.  ``derived_from`` lineage and ``event_id`` identity
#: are deliberately excluded — they vary across equivalent executions.
CanonicalEvent = tuple


def canonical_event(event: Event) -> CanonicalEvent:
    """The order-independent identity of one (derived) event."""
    return (
        event.start_time,
        event.timestamp,
        event.type_name,
        tuple(sorted((k, repr(v)) for k, v in event.payload.items())),
    )


def _canonical_windows(report: EngineReport) -> tuple:
    rows = []
    for partition, windows in report.windows_by_partition.items():
        for window in windows:
            rows.append(
                (repr(partition), window.context_name, window.start, window.end)
            )
    return tuple(
        sorted(rows, key=lambda row: (row[0], row[2], repr(row[3]), row[1]))
    )


@dataclass(frozen=True)
class CanonicalResult:
    """What two equivalent executions must agree on, and nothing else."""

    outputs: tuple  # sorted CanonicalEvent tuples
    windows: tuple  # sorted (partition, context, start, end) rows
    counters: tuple  # sorted (name, value) pairs

    @property
    def output_count(self) -> int:
        return len(self.outputs)


def canonicalize(
    report: EngineReport,
    *,
    extra_outputs: list[Event] | None = None,
    extra_events_processed: int = 0,
    dedup: bool = False,
    compare_windows: bool = True,
) -> CanonicalResult:
    """Project a report (plus optional prefix-run outputs) onto the canon.

    ``extra_outputs``/``extra_events_processed`` fold in a preceding
    partial run (the checkpoint axis runs a stream in two halves).
    ``dedup`` collapses output multiplicity — the sharing comparison's
    contract is set-equality of derivations, with multiplicity owned by the
    non-shared side (one copy per covering window).  ``compare_windows=False``
    drops the window component for workload runs, whose per-unit contexts
    differ between the shared and the non-shared side by construction.
    """
    outputs = [canonical_event(e) for e in (extra_outputs or [])]
    outputs.extend(canonical_event(e) for e in report.outputs)
    if dedup:
        outputs = set(outputs)
    outputs = tuple(sorted(outputs))
    by_type: dict[str, int] = {}
    for entry in outputs:
        by_type[entry[2]] = by_type.get(entry[2], 0) + 1
    counters = (
        ("events_processed", report.events_processed + extra_events_processed),
        *sorted(("outputs:" + name, n) for name, n in by_type.items()),
    )
    return CanonicalResult(
        outputs=outputs,
        windows=_canonical_windows(report) if compare_windows else (),
        counters=counters,
    )


@dataclass(frozen=True)
class Divergence:
    """The first observed disagreement between two canonical results."""

    component: str  # "outputs" | "windows" | "counters"
    index: int
    left: object | None
    right: object | None

    def describe(self) -> str:
        return (
            f"first divergence in {self.component}[{self.index}]:\n"
            f"  left:  {self.left!r}\n"
            f"  right: {self.right!r}"
        )


def _first_sequence_divergence(
    component: str, left: tuple, right: tuple
) -> Divergence | None:
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return Divergence(component, index, a, b)
    if len(left) != len(right):
        index = min(len(left), len(right))
        longer = left if len(left) > len(right) else right
        return Divergence(
            component,
            index,
            longer[index] if longer is left else None,
            longer[index] if longer is right else None,
        )
    return None


def first_divergence(
    left: CanonicalResult, right: CanonicalResult
) -> Divergence | None:
    """The first differing element between two results, or ``None``.

    Outputs are checked first (the user-visible contract), then windows,
    then counters — so a reported counter divergence really is
    counter-only.
    """
    for component in ("outputs", "windows", "counters"):
        found = _first_sequence_divergence(
            component, getattr(left, component), getattr(right, component)
        )
        if found is not None:
            return found
    return None
