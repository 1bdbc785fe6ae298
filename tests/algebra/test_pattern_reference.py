"""Property test: the incremental pattern matcher against a brute-force
reference implementation of the Section 4.1 semantics.

The reference enumerates *all* combinations of events (skip-till-any-match)
with strictly increasing timestamps and checks negation by scanning the
full stream with the tree-walking evaluator — exponential, but
unambiguously correct for small inputs.  It is the oracle for the keyed
negation history too: the operator only ever runs a guard on the events its
key index returns, so any event the index wrongly leaves out shows up here
as a spurious match.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import And, Or, attr, conjoin
from repro.algebra.operators import ExecutionContext
from repro.algebra.pattern import (
    EventMatch,
    NegatedSpec,
    PatternOperator,
    Sequence,
)
from repro.core.windows import ContextWindowStore
from repro.errors import ExpressionError
from repro.events.event import Event
from repro.events.types import EventType

A = EventType.define("A", n="int")
B = EventType.define("B", n="int")
C = EventType.define("C", n="int")
TYPES = {"A": A, "B": B, "C": C}


def ctx():
    return ExecutionContext(windows=ContextWindowStore([], "d"), now=0)


def reference_sequence_matches(events, positives, gap_negations, retention=None):
    """All bindings per Section 4.1's SEQ semantics.

    ``events`` is the stream in *arrival* order.  ``positives`` is a list
    of (type_name, var); ``gap_negations[i]`` lists (type_name, guard)
    forbidden strictly between positive i-1 and i, bound as ``neg``.  For
    i = 0 any earlier event blocks — or, given ``retention``, any event
    at most ``retention`` before the first positive.

    Arrival matters only for out-of-order streams: the positives of a
    match must arrive in order, and a negated event blocks a gap only if
    it arrived before the positive closing that gap.  ``retention`` also
    expires a partial match older than ``retention`` when the next
    positive arrives; this part of the model assumes in-order arrival.
    """
    arrival = {id(e): i for i, e in enumerate(events)}
    matches = []
    candidates = [
        [e for e in events if e.type_name == type_name]
        for type_name, _ in positives
    ]
    for combo in itertools.product(*candidates):
        times = [e.timestamp for e in combo]
        if any(b <= a for a, b in zip(times, times[1:])):
            continue
        order = [arrival[id(e)] for e in combo]
        if any(b <= a for a, b in zip(order, order[1:])):
            continue
        if retention is not None and any(
            b - retention > a for a, b in zip(times, times[1:])
        ):
            continue
        binding = {var: event for (_, var), event in zip(positives, combo)}
        blocked = False
        for index, negations in enumerate(gap_negations):
            high = times[index] if index < len(times) else float("inf")
            closing = order[index] if index < len(order) else len(events)
            if index > 0:
                low, inclusive = times[index - 1], False
            elif retention is not None:
                low, inclusive = times[0] - retention, True
            else:
                low, inclusive = float("-inf"), False
            for type_name, guard in negations:
                for event in events:
                    if event.type_name != type_name:
                        continue
                    if any(event is e for e in combo):
                        continue
                    if arrival[id(event)] > closing:
                        continue
                    t = event.timestamp
                    if not ((low <= t if inclusive else low < t) and t < high):
                        continue
                    guard_binding = dict(binding)
                    guard_binding["neg"] = event
                    try:
                        holds = guard is None or bool(guard.evaluate(guard_binding))
                    except ExpressionError:
                        holds = False
                    if holds:
                        blocked = True
                        break
                if blocked:
                    break
            if blocked:
                break
        if not blocked:
            matches.append(binding)
    return matches


def binding_key(binding):
    return tuple(
        sorted((var, e.timestamp, e["n"]) for var, e in binding.items())
    )


events_strategy = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C"]),
        st.integers(min_value=-100, max_value=100),
    ),
    min_size=0,
    max_size=14,
).map(
    lambda pairs: [
        Event(TYPES[name], t, {"n": i})
        for i, (name, t) in enumerate(sorted(pairs, key=lambda p: p[1]))
    ]
)


class TestAgainstReference:
    @given(events_strategy)
    @settings(max_examples=120, deadline=None)
    def test_plain_sequence(self, events):
        spec = Sequence((EventMatch("A", "x"), EventMatch("B", "y")))
        op = PatternOperator(spec, retention=1000)
        incremental = []
        for event in events:
            incremental.extend(op.process([event], ctx()))
        expected = reference_sequence_matches(
            events, [("A", "x"), ("B", "y")], [[], []]
        )
        assert sorted(binding_key(m.binding) for m in incremental) == sorted(
            binding_key(b) for b in expected
        )

    @given(events_strategy, st.sampled_from([5, 20, 60]))
    @settings(max_examples=120, deadline=None)
    def test_retention_expires_partials(self, events, retention):
        spec = Sequence((EventMatch("A", "x"), EventMatch("B", "y")))
        op = PatternOperator(spec, retention=retention)
        expected = reference_sequence_matches(
            events, [("A", "x"), ("B", "y")], [[], []], retention
        )
        assert sorted(run_events(op, events)) == sorted(
            binding_key(b) for b in expected
        )

    @given(events_strategy)
    @settings(max_examples=120, deadline=None)
    def test_three_step_sequence(self, events):
        spec = Sequence(
            (EventMatch("A", "x"), EventMatch("B", "y"), EventMatch("C", "z"))
        )
        op = PatternOperator(spec, retention=1000)
        incremental = []
        for event in events:
            incremental.extend(op.process([event], ctx()))
        expected = reference_sequence_matches(
            events, [("A", "x"), ("B", "y"), ("C", "z")], [[], [], []]
        )
        assert sorted(binding_key(m.binding) for m in incremental) == sorted(
            binding_key(b) for b in expected
        )

    @given(events_strategy)
    @settings(max_examples=120, deadline=None)
    def test_interleaved_negation(self, events):
        spec = Sequence(
            (
                EventMatch("A", "x"),
                NegatedSpec(EventMatch("C", "neg")),
                EventMatch("B", "y"),
            )
        )
        op = PatternOperator(spec, retention=1000)
        incremental = []
        for event in events:
            incremental.extend(op.process([event], ctx()))
        expected = reference_sequence_matches(
            events, [("A", "x"), ("B", "y")], [[], [("C", None)], []]
        )
        assert sorted(binding_key(m.binding) for m in incremental) == sorted(
            binding_key(b) for b in expected
        )

    @given(events_strategy)
    @settings(max_examples=120, deadline=None)
    def test_guarded_interleaved_negation(self, events):
        guard = attr("n", "neg").gt(attr("n", "x"))
        spec = Sequence(
            (
                EventMatch("A", "x"),
                NegatedSpec(EventMatch("C", "neg"), guard=guard),
                EventMatch("B", "y"),
            )
        )
        op = PatternOperator(spec, retention=1000)
        incremental = []
        for event in events:
            incremental.extend(op.process([event], ctx()))
        expected = reference_sequence_matches(
            events, [("A", "x"), ("B", "y")], [[], [("C", guard)], []]
        )
        assert sorted(binding_key(m.binding) for m in incremental) == sorted(
            binding_key(b) for b in expected
        )

    @given(events_strategy)
    @settings(max_examples=100, deadline=None)
    def test_batch_vs_single_event_feeding(self, events):
        """Feeding whole same-timestamp batches equals event-at-a-time."""
        spec = Sequence((EventMatch("A", "x"), EventMatch("B", "y")))
        one_by_one = PatternOperator(spec, retention=1000)
        batched = PatternOperator(spec, retention=1000)
        single_out = []
        for event in events:
            single_out.extend(one_by_one.process([event], ctx()))
        batch_out = []
        for _, group in itertools.groupby(events, key=lambda e: e.timestamp):
            batch_out.extend(batched.process(list(group), ctx()))
        assert sorted(binding_key(m.binding) for m in single_out) == sorted(
            binding_key(m.binding) for m in batch_out
        )


# ---------------------------------------------------------------------------
# keyed negation history
# ---------------------------------------------------------------------------

NAN = float("nan")

# "k" mixes equal ints and floats, a string, NaN and an unhashable set
# equal to a hashable frozenset; either attribute may be missing, which
# drives the guard's missing-attribute error path
KEYS = [0, 1, 1.0, 2, 2.0, "1", NAN, {1}, frozenset({1})]

keyed_payloads = st.fixed_dictionaries(
    {},
    optional={
        "k": st.sampled_from(KEYS),
        "v": st.integers(min_value=0, max_value=9),
    },
)

keyed_arrivals = st.lists(
    st.tuples(
        st.sampled_from(["A", "B", "C"]),
        st.integers(min_value=-30, max_value=30),
        keyed_payloads,
    ),
    min_size=0,
    max_size=14,
)


def keyed_events(arrivals):
    """Events in the given arrival order; ``n`` is the arrival index."""
    return [
        Event(TYPES[name], t, {**payload, "n": i})
        for i, (name, t, payload) in enumerate(arrivals)
    ]


in_order_keyed = keyed_arrivals.map(
    lambda arrivals: keyed_events(sorted(arrivals, key=lambda a: a[1]))
)
out_of_order_keyed = keyed_arrivals.map(keyed_events)

NEG_K, NEG_V = attr("k", "neg"), attr("v", "neg")

#: guards of ``NOT neg`` between ``x`` and ``y``: key, own and residual
#: conjuncts, keys on either side, keys that are not bare attributes
GAP_GUARDS = [
    conjoin([NEG_K.eq(attr("k", "x")), (NEG_V + 1).gt(attr("v", "x")), NEG_V.ge(2)]),
    attr("k", "y").eq(NEG_K),
    NEG_K.eq(attr("v", "x") - 1),
    And(NEG_K.eq(attr("k", "x")), NEG_V.eq(attr("v", "y"))),
    And(NEG_V.gt(3), NEG_K.eq(attr("k", "y"))),
    NEG_V.gt(3),
    (NEG_K + 0).eq(attr("k", "x")),
    Or(NEG_K.eq(attr("k", "x")), NEG_V.gt(8)),
    None,
]

#: guards of a leading ``NOT neg`` before ``x``
LEADING_GUARDS = [
    NEG_K.eq(attr("k", "x")),
    And((NEG_V + 2).gt(attr("v", "x")), attr("k", "x").eq(NEG_K)),
    NEG_V.ge(5),
    None,
]


def run_events(op, events):
    out = []
    for event in events:
        out.extend(op.process([event], ctx()))
    return [binding_key(m.binding) for m in out]


def assert_index_consistent(op):
    """Every key bucket lists, in arrival order, exactly the history events
    carrying that key; the overflow list holds the unhashable and NaN ones."""
    for history in op._history.values():
        for key_attr, (buckets, overflow) in history.index.items():
            carrying = [e for e in history.events if key_attr in e]
            indexed = [e for bucket in buckets.values() for e in bucket]
            assert sorted(map(id, indexed + overflow)) == sorted(map(id, carrying))
            position = {id(e): i for i, e in enumerate(history.events)}
            for bucket in [*buckets.values(), overflow]:
                order = [position[id(e)] for e in bucket]
                assert order == sorted(order)
            assert all(buckets.values())


def gap_spec(neg_type, guard):
    return Sequence(
        (
            EventMatch("A", "x"),
            NegatedSpec(EventMatch(neg_type, "neg"), guard=guard),
            EventMatch("B", "y"),
        )
    )


def leading_spec(guard):
    return Sequence(
        (
            NegatedSpec(EventMatch("C", "neg"), guard=guard),
            EventMatch("A", "x"),
            EventMatch("B", "y"),
        )
    )


def gap_reference(events, neg_type, guard, retention=None):
    return reference_sequence_matches(
        events, [("A", "x"), ("B", "y")], [[], [(neg_type, guard)], []],
        retention,
    )


class TestKeyedNegationHistory:
    @given(
        in_order_keyed,
        st.sampled_from(GAP_GUARDS),
        st.sampled_from(["A", "C"]),
    )
    @settings(max_examples=250, deadline=None)
    @example(  # an unhashable key (overflow) equal to a hashable probe
        keyed_events(
            [
                ("A", 1, {"k": frozenset({1})}),
                ("C", 2, {"k": {1}, "v": 4}),
                ("B", 3, {"v": 4}),
            ]
        ),
        GAP_GUARDS[3],
        "C",
    )
    def test_keyed_gap_guards(self, events, guard, neg_type):
        op = PatternOperator(gap_spec(neg_type, guard), retention=1000)
        expected = gap_reference(events, neg_type, guard)
        assert sorted(run_events(op, events)) == sorted(
            binding_key(b) for b in expected
        )
        assert_index_consistent(op)

    @given(
        in_order_keyed,
        st.sampled_from(LEADING_GUARDS),
        st.sampled_from([3, 8, 20]),
    )
    @settings(max_examples=200, deadline=None)
    @example(  # a blocker exactly ``retention`` before the first positive
        keyed_events([("C", 2, {}), ("A", 5, {}), ("B", 6, {})]), None, 3
    )
    def test_leading_negation_bounded_by_retention(self, events, guard, retention):
        op = PatternOperator(leading_spec(guard), retention=retention)
        expected = reference_sequence_matches(
            events, [("A", "x"), ("B", "y")], [[("C", guard)], [], []],
            retention,
        )
        assert sorted(run_events(op, events)) == sorted(
            binding_key(b) for b in expected
        )
        assert_index_consistent(op)

    @given(
        out_of_order_keyed,
        st.sampled_from(GAP_GUARDS),
        st.sampled_from(["A", "C"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_out_of_order_arrival(self, events, guard, neg_type):
        op = PatternOperator(gap_spec(neg_type, guard), retention=1000)
        expected = gap_reference(events, neg_type, guard)
        assert sorted(run_events(op, events)) == sorted(
            binding_key(b) for b in expected
        )
        assert_index_consistent(op)


    def test_unnamed_negation_leaves_the_binding_alone(self):
        # unnamed elements share the self variable: the guard sees the
        # negated event under it, the emitted match the positive one (the
        # leading negation only makes the history keep the C event)
        spec = Sequence(
            (
                NegatedSpec(EventMatch("C"), guard=attr("v").eq(1)),
                EventMatch("A"),
                NegatedSpec(EventMatch("C"), guard=attr("v").gt(5)),
                EventMatch("B"),
            )
        )
        op = PatternOperator(spec, retention=1000)
        events = keyed_events([("A", 1, {}), ("C", 2, {"v": 1}), ("B", 3, {})])
        (match,) = [m for e in events for m in op.process([e], ctx())]
        assert match.binding == {"": events[2]}


class TestKeyedHistoryLifecycle:
    """Snapshot/restore, expiry and reset keep the key buckets consistent
    with the history deque: a suffix then matches what an uninterrupted
    operator emits."""

    @given(
        in_order_keyed,
        st.sampled_from(GAP_GUARDS),
        st.sampled_from(["A", "C"]),
        st.integers(min_value=0, max_value=14),
    )
    @settings(max_examples=150, deadline=None)
    @example(  # the blocking event is only in the restored history
        keyed_events([("A", 1, {"k": 1}), ("C", 2, {"k": 1}), ("B", 3, {"k": 1})]),
        GAP_GUARDS[1],
        "C",
        2,
    )
    def test_snapshot_restore_then_suffix(self, events, guard, neg_type, split):
        prefix, suffix = events[:split], events[split:]
        spec = gap_spec(neg_type, guard)
        uninterrupted = PatternOperator(spec, retention=1000)
        run_events(uninterrupted, prefix)
        expected = run_events(uninterrupted, suffix)

        original = PatternOperator(spec, retention=1000)
        run_events(original, prefix)
        snapshot = original.snapshot_state()
        restored = PatternOperator(spec, retention=1000)
        restored.restore_state(snapshot)
        assert restored.state_size() == original.state_size()
        assert_index_consistent(restored)
        assert run_events(restored, suffix) == expected
        # the snapshot is a copy: the original can run on and rewind to it
        assert run_events(original, suffix) == expected
        original.restore_state(snapshot)
        assert_index_consistent(original)
        assert run_events(original, suffix) == expected

    @given(
        in_order_keyed,
        st.sampled_from(GAP_GUARDS),
        st.sampled_from(["A", "C"]),
        st.integers(min_value=0, max_value=14),
        st.integers(min_value=-31, max_value=31),
    )
    @settings(max_examples=150, deadline=None)
    def test_expire_then_suffix(self, events, guard, neg_type, split, cutoff):
        prefix, suffix = events[:split], events[split:]
        spec = gap_spec(neg_type, guard)
        # an operator that never saw the state the expiry drops
        uninterrupted = PatternOperator(spec, retention=1000)
        run_events(uninterrupted, [e for e in prefix if e.timestamp >= cutoff])
        kept = uninterrupted.state_size()
        expected = run_events(uninterrupted, suffix)

        expired = PatternOperator(spec, retention=1000)
        run_events(expired, prefix)
        expired.expire_state_before(cutoff)
        assert expired.state_size() == kept
        assert_index_consistent(expired)
        assert run_events(expired, suffix) == expected

    @given(
        in_order_keyed,
        st.sampled_from(GAP_GUARDS),
        st.sampled_from(["A", "C"]),
        st.integers(min_value=0, max_value=14),
    )
    @settings(max_examples=150, deadline=None)
    def test_reset_then_suffix(self, events, guard, neg_type, split):
        prefix, suffix = events[:split], events[split:]
        spec = gap_spec(neg_type, guard)
        reset = PatternOperator(spec, retention=1000)
        run_events(reset, prefix)
        reset.reset_state()
        assert reset.state_size() == 0
        assert_index_consistent(reset)
        fresh = PatternOperator(spec, retention=1000)
        assert run_events(reset, suffix) == run_events(fresh, suffix)
