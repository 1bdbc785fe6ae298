"""Ablation benchmarks for CAESAR's individual design choices.

The figure benchmarks reproduce the paper's evaluation; these ablations
isolate the design decisions DESIGN.md calls out:

* **window grouping vs naive merge** — Section 5.3 argues that merging all
  overlapping windows into one encompassing window "could do more harm than
  good"; we quantify it;
* **batched vs per-event routing** — Section 6.2 claims routing stream
  batches (not single events) keeps context-aware routing lightweight;
* **context bit vector vs set bookkeeping** — Section 6.2's constant-time
  context lookup structure against the obvious alternative.

(The push-down ablation is Figure 11(b) itself.)
"""

import pytest

from benchmarks.bench_fig14_common import (
    lr_event_stream,
    make_window_specs,
    run_pair,
    run_workload,
    shared_query,
)
from benchmarks.common import FigureTable
from repro.core.bitvector import ContextBitVector
from repro.core.windows import WindowSpec
from repro.optimizer.sharing import build_shared_workload


# ---------------------------------------------------------------------------
# Ablation 1: window grouping vs naive merge
# ---------------------------------------------------------------------------


class TestGroupingVsNaiveMerge:
    """Partially overlapping windows: grouping runs each query only inside
    the windows that actually carry it; the naive merge runs every query
    across the whole encompassing span."""

    PAIRS = 3
    LENGTH = 120
    PAIR_OVERLAP = 30
    PAIR_GAP = 120  # clear stream between consecutive pairs

    def specs(self):
        """Pairs of mutually overlapping windows separated by gaps.

        Within a pair the two windows overlap by 30 s (a genuine sharing
        opportunity); between pairs the stream is uncovered — exactly the
        region a naive all-encompassing merge would pointlessly process.
        """
        shared = tuple(shared_query(i) for i in range(2))
        specs = []
        pair_span = 2 * self.LENGTH - self.PAIR_OVERLAP
        for pair in range(self.PAIRS):
            base = 30 + pair * (pair_span + self.PAIR_GAP)
            specs.append(
                WindowSpec(
                    name=f"p{pair}a", start=base, end=base + self.LENGTH,
                    queries=shared,
                )
            )
            second = base + self.LENGTH - self.PAIR_OVERLAP
            specs.append(
                WindowSpec(
                    name=f"p{pair}b", start=second,
                    end=second + self.LENGTH, queries=shared,
                )
            )
        return specs

    def naive_merge_specs(self):
        """One encompassing window carrying the union of the workloads."""
        specs = self.specs()
        union = []
        seen = set()
        for spec in specs:
            for query in spec.queries:
                if query.signature() not in seen:
                    seen.add(query.signature())
                    union.append(query)
        return [
            WindowSpec(
                name="merged",
                start=min(s.start for s in specs),
                end=max(s.end for s in specs),
                queries=tuple(union),
            )
        ]

    def stream(self):
        pair_span = 2 * self.LENGTH - self.PAIR_OVERLAP
        total = 30 + self.PAIRS * (pair_span + self.PAIR_GAP) + 60
        return lr_event_stream(total)

    def test_grouping_beats_naive_merge(self, benchmark):
        grouped = run_workload(
            build_shared_workload(self.specs()), self.stream()
        )
        merged = run_workload(
            build_shared_workload(self.naive_merge_specs()), self.stream()
        )

        table = FigureTable(
            "Ablation 1", "grouping vs naive window merge", "strategy"
        )
        table.add("grouped", cost_units=grouped.cost_units)
        table.add("naive_merge", cost_units=merged.cost_units)
        table.show()

        # Grouping processes only the pairs' coverage; the naive merge also
        # busy-runs the whole workload across the inter-pair gaps.
        assert grouped.cost_units < merged.cost_units * 0.95

        benchmark(
            lambda: run_workload(
                build_shared_workload(self.specs()), self.stream()
            )
        )

    def test_merge_penalty_grows_with_gaps(self, benchmark):
        """Spreading the same windows further apart widens the gap the
        naive merge pointlessly covers."""
        penalties = []
        for stride in (90, 150, 240):
            specs = make_window_specs(
                count=4, length=120, stride=stride,
                shared_queries=2, start_offset=30,
            )
            union_spec = [
                WindowSpec(
                    name="merged",
                    start=min(s.start for s in specs),
                    end=max(s.end for s in specs),
                    queries=specs[0].queries,
                )
            ]
            stream_len = 30 + 120 + 3 * stride + 120
            grouped = run_workload(
                build_shared_workload(specs), lr_event_stream(stream_len)
            )
            merged = run_workload(
                build_shared_workload(union_spec), lr_event_stream(stream_len)
            )
            penalties.append(merged.cost_units / grouped.cost_units)
        assert penalties == sorted(penalties)
        assert penalties[-1] > penalties[0] * 1.2
        benchmark(lambda: build_shared_workload(self.specs()))


# ---------------------------------------------------------------------------
# Ablation 2: batched vs per-event routing
# ---------------------------------------------------------------------------


class TestBatchedRouting:
    """The same events delivered as per-timestamp batches versus one at a
    time: routing happens once per batch, so batching divides the routing
    and scheduling overhead by the batch size (Section 6.2)."""

    def make_engine(self):
        from repro.core.model import CaesarModel
        from repro.language import parse_query
        from repro.runtime.engine import CaesarEngine

        model = CaesarModel(default_context="normal")
        model.add_context("alert")
        model.add_query(parse_query(
            "INITIATE CONTEXT alert PATTERN Reading r WHERE r.value > 900 "
            "CONTEXT normal", name="up"))
        model.add_query(parse_query(
            "TERMINATE CONTEXT alert PATTERN Reading r WHERE r.value < 100 "
            "CONTEXT alert", name="down"))
        for index in range(8):
            model.add_query(parse_query(
                f"DERIVE Out{index}(r.value) PATTERN Reading r "
                f"WHERE r.value > {index * 50} CONTEXT alert",
                name=f"q{index}"))
        return CaesarEngine(model)

    def make_streams(self):
        from repro.events.event import Event
        from repro.events.stream import EventStream
        from repro.events.types import EventType

        reading = EventType.define("Reading", value="int", sec="int")
        batched_events = []
        single_events = []
        for t in range(0, 300, 30):
            for index in range(20):
                value = (t * 7 + index * 13) % 800  # stays below 900: all idle
                batched_events.append(
                    Event(reading, t, {"value": value, "sec": t})
                )
                single_events.append(
                    Event(
                        reading,
                        t + index * 0.01,
                        {"value": value, "sec": t},
                    )
                )
        return EventStream(batched_events), EventStream(single_events)

    def test_batching_reduces_routing_overhead(self, benchmark):
        batched_stream, single_stream = self.make_streams()
        batched = self.make_engine().run(batched_stream, track_outputs=False)
        per_event = self.make_engine().run(single_stream, track_outputs=False)

        table = FigureTable(
            "Ablation 2", "batched vs per-event routing", "mode"
        )
        table.add(
            "batched",
            batches=float(batched.batches),
            suppressions=float(batched.suppressed_batches),
        )
        table.add(
            "per_event",
            batches=float(per_event.batches),
            suppressions=float(per_event.suppressed_batches),
        )
        table.show()

        # identical event count, ~20x the scheduler/routing invocations
        assert batched.events_processed == per_event.events_processed
        assert per_event.batches == batched.batches * 20
        assert per_event.suppressed_batches >= batched.suppressed_batches * 10

        engine = self.make_engine()
        benchmark(lambda: self.make_engine().run(
            self.make_streams()[0], track_outputs=False
        ))


# ---------------------------------------------------------------------------
# Ablation 3: context bit vector vs set bookkeeping
# ---------------------------------------------------------------------------


class TestBitVectorAblation:
    NAMES = [f"context_{i}" for i in range(16)]

    def test_bitvector_lookup_cost(self, benchmark):
        vector = ContextBitVector(self.NAMES)
        for name in self.NAMES[::2]:
            vector.set(name, 0)

        def vector_workload():
            hits = 0
            for _ in range(100):
                for name in self.NAMES:
                    if vector.test(name):
                        hits += 1
            return hits

        reference: set = set(self.NAMES[::2])

        def set_workload():
            hits = 0
            for _ in range(100):
                for name in self.NAMES:
                    if name in reference:
                        hits += 1
            return hits

        assert vector_workload() == set_workload() == 800
        result = benchmark(vector_workload)
        # informational: the structures agree and both are O(1) per lookup;
        # the vector additionally gives the router the active set in bit
        # order and a single-int snapshot, which a plain set does not
        assert result == 800
