"""Figure 14(b): varying the length of the context window overlap.

The paper fixes 30 windows of 15 minutes and sweeps the minimal overlap
length (0-16 minutes): the sharing gain grows roughly linearly with the
overlap — the longer two windows overlap, the longer their shared queries
execute once instead of twice (6× at 15 minutes in the paper).

Scaled setup: windows of 120 s whose consecutive overlap sweeps 0-105 s.
"""

import pytest

from benchmarks.bench_fig14_common import (
    lr_event_stream,
    make_window_specs,
    run_pair,
    run_workload,
)
from benchmarks.common import FigureTable, calibrate_seconds_per_cost_unit
from repro.optimizer.sharing import build_nonshared_workload

OVERLAPS = (0, 30, 60, 90, 105)
WINDOW_COUNT = 10
WINDOW_LENGTH = 120
SHARED_QUERIES = 4


def make_specs(overlap):
    return make_window_specs(
        count=WINDOW_COUNT,
        length=WINDOW_LENGTH,
        stride=WINDOW_LENGTH - overlap,
        shared_queries=SHARED_QUERIES,
        start_offset=30,
    )


def total_seconds():
    # the longest span occurs at zero overlap
    return 30 + WINDOW_LENGTH + (WINDOW_COUNT - 1) * WINDOW_LENGTH + 60


def make_stream():
    return lr_event_stream(total_seconds())


@pytest.fixture(scope="module")
def spc():
    workload = build_nonshared_workload(make_specs(OVERLAPS[-1]))
    report = run_workload(workload, make_stream())
    return calibrate_seconds_per_cost_unit(
        report.cost_units, stream_seconds=total_seconds(), utilization=0.5
    )


@pytest.fixture(scope="module")
def fig14b_results(spc):
    rows = []
    for overlap in OVERLAPS:
        shared, nonshared = run_pair(
            make_specs(overlap), make_stream, seconds_per_cost_unit=spc
        )
        rows.append((overlap, shared, nonshared))
    return rows


def test_fig14b_overlap_length(fig14b_results, benchmark, spc):
    table = FigureTable(
        "Figure 14(b)", "max latency vs overlap length", "overlap_s"
    )
    for overlap, shared, nonshared in fig14b_results:
        table.add(
            overlap,
            shared_s=shared.max_latency,
            nonshared_s=nonshared.max_latency,
            gain=nonshared.max_latency / max(shared.max_latency, 1e-9),
        )
    table.show()

    gains = table.series("gain")

    # Shape 1: no overlap → nothing to share → gain ≈ 1.
    assert gains[0] < 1.3

    # Shape 2: the gain grows with the overlap length.
    assert all(b >= a * 0.95 for a, b in zip(gains, gains[1:]))

    # Shape 3: a many-fold gain at the longest overlap (paper: 6x at 15 of
    # 15 minutes; our top overlap is 105 of 120 seconds → multiplicity 8).
    print(f"\ngain at {OVERLAPS[-1]}s overlap: {gains[-1]:.1f}x (paper: 6x)")
    assert gains[-1] >= 4.0

    benchmark(
        lambda: run_pair(
            make_specs(OVERLAPS[0]), make_stream, seconds_per_cost_unit=spc
        )
    )
