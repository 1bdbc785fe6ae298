"""Hypothesis property suite over the differential harness.

Instead of the fixed seeded streams of ``test_axes``, these properties let
hypothesis pick the stream — arbitrary timestamps (including simultaneous
and negative ones), values crossing every threshold, zone gaps — and
assert the equivalences hold on *all* of them.  The per-rule optimizer
properties check each rewrite in isolation, which the composed pipelines
cannot: a rule that is only correct when a later rule repairs it would
pass "none vs full" and fail here.
"""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.difftest import RunSpec, execute, first_divergence, get_scenario
from repro.difftest.scenarios import DIFF_READING
from repro.events.event import Event
from repro.optimizer.apply import OptimizationRules

SCENARIO = get_scenario("threshold")

SINGLE_RULES = [
    OptimizationRules(pushdown=True, filter_swap=False,
                      filter_reorder=False, filter_merge=False),
    OptimizationRules(pushdown=False, filter_swap=True,
                      filter_reorder=False, filter_merge=False),
    OptimizationRules(pushdown=False, filter_swap=False,
                      filter_reorder=True, filter_merge=False),
    OptimizationRules(pushdown=False, filter_swap=False,
                      filter_reorder=False, filter_merge=True),
]


@st.composite
def streams(draw):
    """Short threshold-model streams with adversarial shapes."""
    times = draw(st.lists(
        st.integers(min_value=-20, max_value=120),
        min_size=1, max_size=25,
    ))
    events = []
    for t in sorted(times):
        value = draw(st.integers(min_value=0, max_value=20))
        zone = draw(st.integers(min_value=0, max_value=1))
        events.append(
            Event(DIFF_READING, t, {"value": value, "sec": t, "zone": zone})
        )
    return events


def assert_agree(left: RunSpec, right: RunSpec, events):
    divergence = first_divergence(
        execute(SCENARIO, left, events), execute(SCENARIO, right, events)
    )
    assert divergence is None, divergence.describe()


class TestOptimizerRules:
    @given(streams())
    @settings(max_examples=30, deadline=None)
    def test_each_rule_alone_is_result_preserving(self, events):
        base = RunSpec(label="none", optimize="none")
        for rules in SINGLE_RULES:
            assert_agree(
                base, RunSpec(label=repr(rules), optimize=rules), events
            )

    @given(streams())
    @settings(max_examples=30, deadline=None)
    def test_full_pipeline_is_result_preserving(self, events):
        assert_agree(
            RunSpec(label="none", optimize="none"),
            RunSpec(label="full", optimize="full"),
            events,
        )


class TestContextEquivalence:
    @given(streams())
    @settings(max_examples=30, deadline=None)
    def test_aware_matches_independent(self, events):
        assert_agree(
            RunSpec(label="aware"),
            RunSpec(label="independent", context_aware=False),
            events,
        )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method",
)
class TestBackendEquivalence:
    @given(streams())
    @settings(max_examples=20, deadline=None)
    def test_process_matches_serial(self, events):
        assert_agree(
            RunSpec(label="serial"),
            RunSpec(label="process", backend="process"),
            events,
        )


class TestCheckpointEquivalence:
    @given(streams(), st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_restore_mid_stream_matches_straight(self, events, fraction):
        if len(events) < 2:
            return
        assert_agree(
            RunSpec(label="straight"),
            RunSpec(label="restored", checkpoint_at=fraction),
            events,
        )


class TestReorderEquivalence:
    @given(streams(), st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=999))
    @settings(max_examples=30, deadline=None)
    def test_jittered_matches_inorder(self, events, jitter, seed):
        assert_agree(
            RunSpec(label="inorder"),
            RunSpec(label="jittered", jitter=jitter, jitter_seed=seed),
            events,
        )
