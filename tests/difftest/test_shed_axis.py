"""The ``shed`` differential axis: overload admission is deterministic
and never touches protected derivations.

Two contracts under test, on noise-ballasted streams so the admission
ladder actually sheds (the bare scenario streams consist entirely of
protected types):

1. *Protected-subset equality* — a shed-off and a shed-on run agree
   exactly once derivations whose lineage touches a shed input are
   projected out of both sides.
2. *Decision determinism* — shed runs on the serial and process backends
   produce byte-identical decision digests: same seed, same stream, same
   per-event decisions everywhere.
"""

import multiprocessing

import pytest

from repro.difftest import AXES, comparisons_for, get_scenario
from repro.difftest.axes import run_axis, with_overload_noise
from repro.difftest.harness import DIFF_SHED_CONFIG, RunSpec, execute

SEED = 11
SCALE = 0.4

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend requires the fork start method",
)


def test_shed_is_a_registered_axis():
    assert "shed" in AXES
    assert len(AXES) == 8


@needs_fork
def test_shed_comparison_labels():
    labels = [c.label for c in comparisons_for(get_scenario("threshold"), "shed")]
    assert labels == ["off-vs-on-protected", "shed-serial-vs-process"]


@pytest.mark.parametrize("scenario_name", ["traffic", "pam", "threshold"])
def test_shed_axis_agrees_with_real_shedding(scenario_name):
    """run_axis ballasts the stream, every comparison passes, and the
    shedder actually dropped something (the axis is not vacuous)."""
    scenario = get_scenario(scenario_name)
    results = run_axis(scenario, "shed", seed=SEED, scale=SCALE, shrink=False)
    assert results
    for result in results:
        assert result.passed, (
            f"{scenario_name}/shed/{result.label}: "
            f"{result.divergence.describe()}"
        )
    # prove sheds occurred: rerun one shed side and inspect its counters
    events = with_overload_noise(scenario.make_events(SEED, SCALE), SEED)
    canon = execute(scenario, RunSpec(label="shed:probe", shed=True), events)
    counters = dict(canon.counters)
    assert counters["shed:events"] > 0
    assert counters["shed:protected"] > 0


@needs_fork
def test_decision_digest_identical_across_backends():
    scenario = get_scenario("threshold")
    events = with_overload_noise(scenario.make_events(SEED, SCALE), SEED)
    digests = {}
    for backend in ("serial", "process"):
        canon = execute(
            scenario,
            RunSpec(label=f"shed:{backend}", backend=backend, shed=True),
            events,
        )
        digests[backend] = dict(canon.counters)["shed:digest"]
    assert digests["serial"] == digests["process"]
    assert digests["serial"]  # non-empty hex digest


def test_noise_ballast_is_deterministic_and_ordered():
    scenario = get_scenario("traffic")
    events = scenario.make_events(SEED, SCALE)
    a = with_overload_noise(events, SEED)
    b = with_overload_noise(events, SEED)
    assert [(e.event_type.name, e.timestamp, dict(e.payload)) for e in a] \
        == [(e.event_type.name, e.timestamp, dict(e.payload)) for e in b]
    assert len(a) == len(events) + 3 * len({e.timestamp for e in events})
    assert all(
        a[i].timestamp <= a[i + 1].timestamp for i in range(len(a) - 1)
    )


def test_diff_shed_config_is_independent_of_the_environment(monkeypatch):
    """The harness pins its own SheddingConfig; CAESAR_SHED must not
    perturb any axis — shed or otherwise — under CI's env leg."""
    monkeypatch.setenv("CAESAR_SHED", "on,fixed_pressure=1.0")
    scenario = get_scenario("traffic")
    events = scenario.make_events(SEED, 0.2)
    baseline = execute(scenario, RunSpec(label="baseline"), events)
    # a fixed_pressure=1.0 engine would shed the stream's cold events and
    # change outputs; the baseline spec passes shedding=False through
    monkeypatch.delenv("CAESAR_SHED")
    clean = execute(scenario, RunSpec(label="baseline"), events)
    assert baseline == clean
    assert DIFF_SHED_CONFIG.record_decisions
