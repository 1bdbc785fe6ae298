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
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import And, Or, attr, conjoin, const
from repro.algebra.operators import ExecutionContext
from repro.algebra.pattern import (
    EventMatch,
    NegatedSpec,
    PatternOperator,
    Sequence,
)
from repro.algebra.plan import QueryPlan
from repro.algebra.relational_ops import Projection
from repro.core.queries import EventQuery, QueryAction
from repro.core.windows import ContextWindowStore
from repro.errors import ExpressionError
from repro.events.event import Event
from repro.events.types import EventType
from repro.optimizer.planner import build_query_plan

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


# ---------------------------------------------------------------------------
# trailing negation with WITHIN
# ---------------------------------------------------------------------------

#: the end of time for a final tick: flushes every pending match
END = 10**6

#: guards of a trailing ``NOT neg``: keyed and unkeyed, with and without
#: own conjuncts (``NEG_V.ge`` raises when ``v`` is missing, ``NEG_K + 1``
#: when ``k`` is a string or a set)
TRAILING_GUARDS = [
    NEG_K.eq(attr("k", "x")),
    conjoin([NEG_K.eq(attr("k", "x")), NEG_V.ge(2)]),
    NEG_V.gt(attr("v", "x")),
    NEG_V.ge(5),
    (NEG_K + 1).gt(1),
    And(NEG_V.ge(3), attr("k", "x").eq(NEG_K)),
    Or(NEG_K.eq(attr("k", "x")), NEG_V.gt(8)),
    None,
]

#: guards of a second trailing negation, over its own variable ``neg2``
NEG2_K, NEG2_V = attr("k", "neg2"), attr("v", "neg2")
SECOND_TRAILING_GUARDS = [
    NEG2_V.eq(attr("v", "y")),
    And(NEG2_K.eq(attr("k", "x")), NEG2_V.ge(4)),
    NEG2_V.ge(4),
    None,
]


def trailing_spec(positives, trailing, within):
    """``SEQ(positives..., NOT t var [guard]...)`` all bounded by ``within``."""
    return Sequence(
        tuple(EventMatch(type_name, var) for type_name, var in positives)
        + tuple(
            NegatedSpec(EventMatch(type_name, var), guard=guard, within=within)
            for type_name, var, guard in trailing
        )
    )


def trailing_reference(events, positives, trailing, within):
    """Matches of the positives that no trailing event blocks: an event of
    a negated type in ``(last, last + within]`` whose guard holds."""
    matches = reference_sequence_matches(
        events, positives, [[] for _ in range(len(positives) + 1)]
    )
    kept = []
    for binding in matches:
        last = max(e.timestamp for e in binding.values())
        blocked = False
        for type_name, var, guard in trailing:
            for event in events:
                if event.type_name != type_name:
                    continue
                if not last < event.timestamp <= last + within:
                    continue
                guard_binding = dict(binding)
                guard_binding[var] = event
                try:
                    holds = guard is None or bool(guard.evaluate(guard_binding))
                except ExpressionError:
                    holds = False
                if holds:
                    blocked = True
                    break
            if blocked:
                break
        if not blocked:
            kept.append(binding)
    return kept


def run_to_end(op, events):
    """Feed ``events`` one at a time, then tick past every deadline."""
    out = run_events(op, events)
    out.extend(binding_key(m.binding) for m in op.on_time_advance(END, ctx()))
    return out


class TestTrailingNegation:
    @given(
        in_order_keyed,
        st.sampled_from(TRAILING_GUARDS),
        st.sampled_from(["A", "C"]),
        st.sampled_from([1, 5, 20]),
    )
    @settings(max_examples=250, deadline=None)
    @example(  # the negated type is the positive type (PAM's fall_warning)
        keyed_events(
            [("A", 1, {"k": 1}), ("A", 4, {"k": 1, "v": 7}), ("A", 30, {})]
        ),
        TRAILING_GUARDS[5],
        "A",
        5,
    )
    @example(  # a later event whose guard fails leaves the block standing
        keyed_events(
            [("A", 0, {"v": 3}), ("C", 1, {"v": 7}), ("C", 2, {"v": 1})]
        ),
        TRAILING_GUARDS[2],
        "C",
        5,
    )
    def test_single_trailing_negation(self, events, guard, neg_type, within):
        positives = [("A", "x")]
        trailing = [(neg_type, "neg", guard)]
        op = PatternOperator(
            trailing_spec(positives, trailing, within), retention=1000
        )
        expected = trailing_reference(events, positives, trailing, within)
        assert sorted(run_to_end(op, events)) == sorted(
            binding_key(b) for b in expected
        )

    @given(
        in_order_keyed,
        st.sampled_from(TRAILING_GUARDS),
        st.sampled_from(SECOND_TRAILING_GUARDS),
        st.sampled_from(["B", "C"]),
        st.sampled_from([1, 5, 20]),
    )
    @settings(max_examples=200, deadline=None)
    @example(  # the first negation blocks, the second's guard fails
        keyed_events(
            [("A", 0, {"v": 1}), ("B", 1, {"v": 1}), ("C", 2, {"v": 2})]
        ),
        TRAILING_GUARDS[2],
        SECOND_TRAILING_GUARDS[0],
        "C",
        5,
    )
    def test_two_trailing_negations(
        self, events, guard, other_guard, other_type, within
    ):
        # of different types, or both of the type ``C``
        positives = [("A", "x"), ("B", "y")]
        trailing = [("C", "neg", guard), (other_type, "neg2", other_guard)]
        op = PatternOperator(
            trailing_spec(positives, trailing, within), retention=1000
        )
        expected = trailing_reference(events, positives, trailing, within)
        assert sorted(run_to_end(op, events)) == sorted(
            binding_key(b) for b in expected
        )

    @given(
        in_order_keyed,
        st.sampled_from(TRAILING_GUARDS),
        st.sampled_from([1, 5, 20]),
        st.integers(min_value=0, max_value=14),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    @example(  # an event at the last positive's timestamp never blocks
        keyed_events([("A", 1, {}), ("C", 1, {}), ("C", 9, {})]), None, 5, 1, True
    )
    def test_snapshot_restore_mid_pending(
        self, events, guard, within, split, legacy
    ):
        prefix, suffix = events[:split], events[split:]
        spec = trailing_spec([("A", "x")], [("C", "neg", guard)], within)
        uninterrupted = PatternOperator(spec, retention=1000)
        run_events(uninterrupted, prefix)
        expected = run_to_end(uninterrupted, suffix)

        original = PatternOperator(spec, retention=1000)
        run_events(original, prefix)
        snapshot = original.snapshot_state()
        if legacy:
            # a snapshot taken before pending matches stored ``last_time``
            snapshot = dict(snapshot)
            snapshot["pending"] = [
                SimpleNamespace(
                    binding=p.binding, deadline=p.deadline, blocked=p.blocked
                )
                for p in snapshot["pending"]
            ]
        restored = PatternOperator(spec, retention=1000)
        restored.restore_state(snapshot)
        assert restored.state_size() == original.state_size()
        assert run_to_end(restored, suffix) == expected
        # the snapshot is a copy: the original can run on and rewind to it
        assert run_to_end(original, suffix) == expected
        original.restore_state(snapshot)
        assert run_to_end(original, suffix) == expected


# ---------------------------------------------------------------------------
# WHERE predicates through the planner
# ---------------------------------------------------------------------------

X_V, Y_V, Z_V = attr("v", "x"), attr("v", "y"), attr("v", "z")

#: top-level WHERE conjuncts: own (one positive), cross-variable, variable
#: free, unqualified (reads the sole bound event, or raises), and raising
#: (``v`` is optional, ``w`` never present, ``k`` may be a string or set)
WHERE_CONJUNCTS = [
    X_V.ge(3),
    Y_V.lt(7),
    (attr("k", "y") + 1).gt(1),
    Z_V.ne(4),
    Y_V.gt(X_V),
    (Z_V + X_V).lt(12),
    Or(Z_V.eq(Y_V), attr("k", "x").eq(attr("k", "z"))),
    const(1).lt(2),
    const(2).lt(1),
    attr("v").ge(2),
    attr("w", "y").gt(0),
]

OUT = EventType.define("PlacementOut", n="int")


def placement_spec(n_positives, leading, gap, trailing, within, y_type="B"):
    """``SEQ`` over ``x`` (A), ``y`` (``y_type``), ``z`` (C) with optional
    leading and gap (before ``y``) negations of type ``C`` and a trailing
    one of type ``A``."""
    positives = [
        EventMatch("A", "x"), EventMatch(y_type, "y"), EventMatch("C", "z")
    ]
    elements = []
    if leading is not _ABSENT:
        elements.append(NegatedSpec(EventMatch("C", "lead"), guard=leading))
    elements.append(positives[0])
    if gap is not _ABSENT and n_positives > 1:
        elements.append(NegatedSpec(EventMatch("C", "neg"), guard=gap))
    elements.extend(positives[1:n_positives])
    if trailing is not _ABSENT:
        elements.append(
            NegatedSpec(EventMatch("A", "tail"), guard=trailing, within=within)
        )
    return Sequence(tuple(elements))


_ABSENT = object()

LEAD_GUARDS = [_ABSENT, None, attr("k", "lead").eq(attr("k", "x")), attr("v", "lead").ge(5)]
GAP_GUARDS_XY = [_ABSENT, None, attr("k", "neg").eq(attr("k", "x")), NEG_V.gt(3)]
TAIL_GUARDS = [_ABSENT, None, attr("k", "tail").eq(attr("k", "x")), attr("v", "tail").ge(4)]


def placement_query(spec, where):
    return EventQuery(
        name="placed",
        action=QueryAction.DERIVE,
        pattern=spec,
        where=where,
        derive_type=OUT,
        derive_items=(("n", const(0)),),
    )


def matching_pipeline(query):
    """The planner's operators below the projection: what a match passes."""
    plan = build_query_plan(
        query, "default", retention=1000, with_context_window=False
    )
    assert isinstance(plan.operators[-1], Projection)
    return QueryPlan(plan.operators[:-1], name="placed")


def run_pipeline(pipeline, events, *, finish=True):
    out = []
    for event in events:
        out.extend(pipeline.execute([event], ctx()))
    if finish:
        out.extend(pipeline.advance_time(END, ctx()))
    return [binding_key(m.binding) for m in out]


def placement_reference(events, spec, where, within):
    """Brute-force matches of ``spec`` (gap, leading and trailing
    negations) that satisfy ``where``, a raise counting as false."""
    positives = [(p.type_name, p.var) for p in spec.positives]
    gaps = [[] for _ in range(len(positives) + 1)]
    trailing = []
    index = 0
    for element in spec.elements:
        if isinstance(element, EventMatch):
            index += 1
        elif element.within is not None:
            trailing.append(
                (element.inner.type_name, element.inner.var, element.guard)
            )
        else:
            guard = element.guard
            if guard is not None:
                guard = _rename(guard, element.inner.var)
            gaps[index].append((element.inner.type_name, guard))
    matches = reference_sequence_matches(events, positives, gaps, 1000)
    kept = []
    for binding in matches:
        if trailing and _trailing_blocked(events, binding, trailing, within):
            continue
        try:
            holds = where is None or bool(where.evaluate(binding))
        except ExpressionError:
            holds = False
        if holds:
            kept.append(binding)
    return kept


def _rename(guard, var):
    """The guard with ``var`` renamed to the reference's ``neg``."""
    from repro.algebra.expressions import AttrRef, BinaryOp, Not

    if isinstance(guard, AttrRef):
        return AttrRef("neg", guard.attr) if guard.var == var else guard
    if isinstance(guard, BinaryOp):
        return BinaryOp(guard.op, _rename(guard.left, var), _rename(guard.right, var))
    if isinstance(guard, (And, Or)):
        return type(guard)(_rename(guard.left, var), _rename(guard.right, var))
    if isinstance(guard, Not):
        return Not(_rename(guard.operand, var))
    return guard


def _trailing_blocked(events, binding, trailing, within):
    last = max(e.timestamp for e in binding.values())
    for type_name, var, guard in trailing:
        for event in events:
            if event.type_name != type_name:
                continue
            if not last < event.timestamp <= last + within:
                continue
            guard_binding = {**binding, var: event}
            try:
                if guard is None or guard.evaluate(guard_binding):
                    return True
            except ExpressionError:
                pass
    return False


placement_wheres = st.lists(
    st.sampled_from(WHERE_CONJUNCTS), min_size=0, max_size=4, unique=True
).map(lambda cs: conjoin(cs) if cs else None)


class TestWherePlacement:
    """Whatever the planner does with WHERE — a Filter above the pattern
    or conjuncts evaluated inside it — the plan emits exactly the
    brute-force matches that satisfy the predicate."""

    @given(
        in_order_keyed,
        st.integers(min_value=1, max_value=3),
        st.sampled_from(LEAD_GUARDS),
        st.sampled_from(GAP_GUARDS_XY),
        st.sampled_from(TAIL_GUARDS),
        st.sampled_from([2, 10]),
        placement_wheres,
        st.sampled_from(["B", "A"]),
    )
    @settings(max_examples=300, deadline=None)
    @example(  # the own conjunct of ``y`` fails on the first ``y``
        keyed_events(
            [("A", 1, {"v": 3}), ("B", 2, {"v": 9}), ("B", 3, {"v": 5})]
        ),
        2, _ABSENT, _ABSENT, _ABSENT, 2,
        conjoin([Y_V.lt(7), Y_V.gt(X_V)]), "B",
    )
    @example(  # an unqualified attribute over a single-positive binding
        keyed_events([("A", 1, {"v": 1}), ("A", 2, {"v": 3})]),
        1, _ABSENT, _ABSENT, TAIL_GUARDS[3], 2,
        conjoin([attr("v").ge(2), const(1).lt(2)]), "B",
    )
    @example(  # one event at two stages: it fails y's gate, passes x's
        keyed_events(
            [("A", 1, {"v": 4}), ("A", 2, {"v": 8}), ("A", 3, {"v": 5})]
        ),
        2, _ABSENT, _ABSENT, _ABSENT, 2,
        conjoin([X_V.ge(3), Y_V.lt(7)]), "A",
    )
    @example(  # no gate, and the residual y.v > x.v drops the only match
        keyed_events([("A", 1, {"v": 5}), ("B", 2, {"v": 1})]),
        2, _ABSENT, _ABSENT, _ABSENT, 2, Y_V.gt(X_V), "B",
    )
    @example(  # a residual over x and z waits for z
        keyed_events(
            [("A", 1, {"v": 1}), ("B", 2, {"v": 2}), ("C", 3, {"v": 3})]
        ),
        3, _ABSENT, _ABSENT, _ABSENT, 2,
        (Z_V + X_V).lt(12), "B",
    )
    def test_plan_equals_filtered_reference(
        self, events, n_positives, leading, gap, trailing, within, where, y_type
    ):
        spec = placement_spec(n_positives, leading, gap, trailing, within, y_type)
        pipeline = matching_pipeline(placement_query(spec, where))
        expected = placement_reference(events, spec, where, within)
        assert sorted(run_pipeline(pipeline, events)) == sorted(
            binding_key(b) for b in expected
        )

    @given(
        in_order_keyed,
        st.integers(min_value=2, max_value=3),
        st.sampled_from(GAP_GUARDS_XY),
        st.sampled_from(TAIL_GUARDS),
        placement_wheres,
        st.integers(min_value=0, max_value=14),
    )
    @settings(max_examples=150, deadline=None)
    def test_snapshot_restore_mid_stream(
        self, events, n_positives, gap, trailing, where, split
    ):
        spec = placement_spec(n_positives, _ABSENT, gap, trailing, 5)
        prefix, suffix = events[:split], events[split:]
        uninterrupted = matching_pipeline(placement_query(spec, where))
        before = run_pipeline(uninterrupted, prefix, finish=False)
        after = run_pipeline(uninterrupted, suffix)
        expected = placement_reference(events, spec, where, 5)
        assert sorted(before + after) == sorted(binding_key(b) for b in expected)

        original = matching_pipeline(placement_query(spec, where))
        run_pipeline(original, prefix, finish=False)
        snapshot = original.snapshot_state()
        restored = original.clone()
        restored.restore_state(snapshot)
        assert restored.state_size() == original.state_size()
        assert run_pipeline(restored, suffix) == after
        assert run_pipeline(original, suffix) == after
