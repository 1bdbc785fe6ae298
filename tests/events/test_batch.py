"""Columnar batch codec: round-trip fidelity and directory discipline.

The wire codec feeds the process backend's shared-memory transport, so the
contract is strict: decode(encode(batch)) must reproduce the original
events *by value and by payload type* (an ``int`` column value must not
come back as a ``float`` that merely compares equal), for every payload
shape — including the irregular ones that ride the pickled object lane.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.pattern import MatchEvent
from repro.events import (
    Event,
    EventBatch,
    EventSchema,
    EventType,
    TimeInterval,
    TypeDirectory,
)
from repro.events.batch import build_view
from repro.events.event import derive_complex_event

READING = EventType.define("Reading", value="int")
PRESSURE = EventType.define("Pressure", value="float", zone="int")
FREEFORM = EventType("Freeform", EventSchema())


def roundtrip(events, encode_directory=None, decode_directory=None):
    batch = EventBatch.encode(events, encode_directory)
    batch.commit()
    return batch, EventBatch.decode(batch.data, decode_directory)


def assert_faithful(original, decoded):
    assert list(decoded) == list(original)
    for before, after in zip(original, decoded):
        assert after.event_type == before.event_type
        assert after.time == before.time
        assert after.derived_from == () or isinstance(after, Event)
        for key, value in before._payload.items():
            assert type(after._payload[key]) is type(value), (
                key,
                value,
                after._payload[key],
            )


# ---------------------------------------------------------------------------
# directed round-trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_homogeneous_int_batch(self):
        events = [Event(READING, t, {"value": t * 3}) for t in range(50)]
        batch, decoded = roundtrip(events)
        assert_faithful(events, decoded)
        assert batch.stats.columnar == 50
        assert batch.stats.object_lane == 0
        assert batch.stats.object_columns == 0

    def test_mixed_types_and_float_columns(self):
        events = [Event(READING, t, {"value": t}) for t in range(5)]
        events += [
            Event(PRESSURE, t, {"value": t / 2, "zone": t}) for t in range(5)
        ]
        _, decoded = roundtrip(events)
        assert_faithful(events, decoded)

    def test_negative_timestamps(self):
        events = [Event(READING, t, {"value": t}) for t in (-10, -3, 0, 7)]
        _, decoded = roundtrip(events)
        assert_faithful(events, decoded)
        assert decoded[0].timestamp == -10

    def test_decode_returns_a_plain_list(self):
        events = [Event(READING, 1, {"value": 1})]
        _, decoded = roundtrip(events)
        assert type(decoded) is list
        assert decoded == events

    def test_empty_batch(self):
        batch, decoded = roundtrip([])
        assert list(decoded) == []
        assert batch.stats.events == 0

    def test_plus_named_type_survives_the_wire(self):
        # Type names are validated as identifiers at construction; a name
        # like "+" can only exist through the constructor bypass.  The
        # codec must still ship it faithfully (via the header pickle).
        weird = object.__new__(EventType)
        object.__setattr__(weird, "name", "+")
        object.__setattr__(weird, "schema", EventSchema())
        events = [Event(weird, t, {"value": t}) for t in range(3)]
        _, decoded = roundtrip(events)
        assert_faithful(events, decoded)
        assert decoded[0].type_name == "+"

    def test_bool_values_take_the_object_column(self):
        # bool is an int subclass; a typed int64 column would decode it as
        # int and break payload-type fidelity.
        events = [Event(READING, t, {"value": t % 2 == 0}) for t in range(4)]
        batch, decoded = roundtrip(events)
        assert_faithful(events, decoded)
        assert batch.stats.object_columns == 1
        assert type(decoded[0]["value"]) is bool

    def test_beyond_int64_values_take_the_object_column(self):
        events = [Event(READING, 1, {"value": 2**70}), Event(READING, 2, {"value": -(2**70)})]
        batch, decoded = roundtrip(events)
        assert_faithful(events, decoded)
        assert batch.stats.object_columns == 1

    def test_string_and_none_payloads(self):
        events = [
            Event(FREEFORM, 1, {"tag": "a", "note": None}),
            Event(FREEFORM, 2, {"tag": "b", "note": "x"}),
        ]
        batch, decoded = roundtrip(events)
        assert_faithful(events, decoded)

    def test_interval_timed_event_rides_the_object_lane(self):
        spanning = Event(READING, TimeInterval(3, 9), {"value": 1})
        events = [Event(READING, 1, {"value": 0}), spanning]
        batch, decoded = roundtrip(events)
        assert_faithful(events, decoded)
        assert batch.stats.object_lane == 1
        assert decoded[1].time == TimeInterval(3, 9)

    def test_derived_event_rides_the_object_lane(self):
        base = Event(READING, 4, {"value": 2})
        complex_event = derive_complex_event(PRESSURE, [base], {"value": 1.0, "zone": 9})
        events = [base, complex_event]
        batch, decoded = roundtrip(events)
        assert batch.stats.object_lane == 1
        assert list(decoded) == events
        assert decoded[1].derived_from == (base,)

    def test_match_event_rides_the_object_lane(self):
        base = Event(READING, 4, {"value": 2})
        match = MatchEvent({"r": base}, base.time)
        batch, decoded = roundtrip([match])
        assert batch.stats.object_lane == 1
        assert isinstance(decoded[0], MatchEvent)
        assert decoded[0].binding["r"] == base

    def test_heterogeneous_keys_within_a_type(self):
        # Same type, different payload key sets: the first shape defines
        # the segment, the others go irregular — and still round-trip.
        events = [
            Event(FREEFORM, 1, {"a": 1}),
            Event(FREEFORM, 2, {"a": 2, "b": 3}),
            Event(FREEFORM, 3, {"b": 4}),
            Event(FREEFORM, 4, {"a": 5}),
        ]
        batch, decoded = roundtrip(events)
        assert_faithful(events, decoded)
        assert batch.stats.columnar == 2
        assert batch.stats.object_lane == 2

    def test_order_is_preserved_across_lanes(self):
        events = []
        for t in range(20):
            if t % 3 == 0:
                events.append(Event(FREEFORM, TimeInterval(t, t + 1), {"k": t}))
            else:
                events.append(Event(READING, t, {"value": t}))
        _, decoded = roundtrip(events)
        assert [e.type_name for e in decoded] == [e.type_name for e in events]
        assert_faithful(events, decoded)


# ---------------------------------------------------------------------------
# property-based round-trip
# ---------------------------------------------------------------------------

_VALUES = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
)

_TYPES = (READING, PRESSURE, FREEFORM)


@st.composite
def event_batches(draw):
    count = draw(st.integers(min_value=0, max_value=25))
    events = []
    for _ in range(count):
        event_type = draw(st.sampled_from(_TYPES))
        keys = draw(
            st.lists(
                st.sampled_from(["value", "zone", "tag", "note"]),
                unique=True,
                max_size=3,
            )
        )
        payload = {key: draw(_VALUES) for key in keys}
        time = draw(
            st.integers(min_value=-(10**6), max_value=10**6)
            | st.floats(
                allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
            )
        )
        if draw(st.booleans()):
            events.append(Event(event_type, time, payload))
        else:
            end = time + abs(draw(st.integers(min_value=0, max_value=100)))
            events.append(Event(event_type, TimeInterval(time, end), payload))
    return events


class TestRoundTripProperty:
    @given(event_batches())
    @settings(max_examples=60, deadline=None)
    def test_decode_encode_is_identity(self, events):
        _, decoded = roundtrip(events)
        assert_faithful(events, decoded)

    @given(event_batches())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_with_shared_directory(self, events):
        encoder_side = TypeDirectory()
        decoder_side = TypeDirectory()
        _, first = roundtrip(events, encoder_side, decoder_side)
        assert_faithful(events, first)
        # Second batch over the same link: already-registered types must
        # not be re-shipped, and decode must resolve them by id.
        batch, second = roundtrip(events, encoder_side, decoder_side)
        assert_faithful(events, second)
        regular_types = {
            segment.event_type for segment in build_view(events).regular
        }
        assert not [
            t for _id, t in batch.new_types if t in regular_types
        ]


# ---------------------------------------------------------------------------
# type directory discipline
# ---------------------------------------------------------------------------


class TestTypeDirectory:
    def test_commit_is_explicit(self):
        directory = TypeDirectory()
        events = [Event(READING, 1, {"value": 1})]
        batch = EventBatch.encode(events, directory)
        assert len(directory) == 0  # encode must not mutate
        batch.commit()
        assert len(directory) == 1

    def test_uncommitted_batch_does_not_drift_the_link(self):
        # A batch that falls back to pipe pickling is never committed; the
        # next committed batch must re-ship the type so decode still works.
        encoder_side = TypeDirectory()
        decoder_side = TypeDirectory()
        events = [Event(READING, 1, {"value": 1})]
        EventBatch.encode(events, encoder_side)  # shipped as pickle: no commit
        batch = EventBatch.encode(events, encoder_side)
        batch.commit()
        decoded = EventBatch.decode(batch.data, decoder_side)
        assert list(decoded) == events
        assert len(decoder_side) == len(encoder_side) == 1

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError, match="magic"):
            EventBatch.decode(b"\x00" * 32)


# ---------------------------------------------------------------------------
# columnar view
# ---------------------------------------------------------------------------


class TestColumnarView:
    def test_view_segments_and_irregular(self):
        base = Event(READING, 4, {"value": 2})
        view = build_view(
            [
                Event(READING, 1, {"value": 1}),
                derive_complex_event(PRESSURE, [base], {"value": 1.0, "zone": 0}),
                Event(READING, 2, {"value": 5}),
            ]
        )
        assert view.n == 3
        assert view.irregular == [1]
        (segment,) = view.regular
        assert segment.columns["value"] == [1, 5]
        assert segment.indices == [0, 2]
