"""Workload sharing across overlapping context windows (Section 5.3).

Builds overlapping context windows carrying partially identical query
workloads (the Figure 7 scenario), runs the context window grouping
algorithm (Listing 1), and compares shared versus non-shared execution of
the same stream — the Figure 14 experiments in miniature.

Run:  python examples/shared_workloads.py
"""

from repro import (
    EngineConfig,
    WindowSpec,
    create_engine,
    group_context_windows,
)
from repro.events import Event, EventStream, EventType
from repro.language import parse_query
from repro.optimizer.sharing import (
    build_nonshared_workload,
    build_shared_workload,
)

READING = EventType.define("Reading", value="int", sec="int")
SECONDS_PER_COST_UNIT = 1e-4


def make_query(name: str, threshold: int):
    return parse_query(
        f"DERIVE Spike(r.value, r.sec) PATTERN Reading r "
        f"WHERE r.value > {threshold}",
        name=name,
    )


def main() -> None:
    # Three overlapping windows; q_shared appears in all of them,
    # q_a / q_b / q_c are window-specific (Figure 7's structure).
    q_shared = make_query("q_shared", 50)
    specs = [
        WindowSpec("w1", start=0, end=300, queries=(q_shared, make_query("q_a", 10))),
        WindowSpec("w2", start=120, end=480, queries=(q_shared, make_query("q_b", 20))),
        WindowSpec("w3", start=360, end=600, queries=(q_shared, make_query("q_c", 30))),
    ]

    print("grouped context windows (Listing 1):")
    for window in group_context_windows(specs):
        names = ", ".join(q.name for q in window.queries)
        print(
            f"  [{window.start:>3}, {window.end:>3})  "
            f"sources={'/'.join(window.source_names):<8}  queries: {names}"
        )

    stream_events = [
        Event(READING, t, {"value": (t * 7) % 100, "sec": t})
        for t in range(0, 600, 5)
    ]

    shared = build_shared_workload(specs)
    nonshared = build_nonshared_workload(specs)
    print(f"\nplan instances — shared: {shared.plan_count}, "
          f"non-shared: {nonshared.plan_count}")

    # each workload runs on the one engine runtime: every execution unit
    # becomes a context opened and closed at its interval bounds
    config = EngineConfig(seconds_per_cost_unit=SECONDS_PER_COST_UNIT)
    shared_report = create_engine(shared, config).run(
        EventStream(stream_events)
    )
    nonshared_report = create_engine(nonshared, config).run(
        EventStream(stream_events)
    )

    print(f"\nshared:     {shared_report.summary()}")
    print(f"non-shared: {nonshared_report.summary()}")
    print(f"\nCPU cost saving from sharing: "
          f"{nonshared_report.cost_units / shared_report.cost_units:.2f}x")

    # The shared q_shared instance derived each spike once; the non-shared
    # execution derived it once per covering window.
    shared_spikes = shared_report.outputs_by_type.get("Spike", 0)
    nonshared_spikes = nonshared_report.outputs_by_type.get("Spike", 0)
    print(f"Spike derivations — shared: {shared_spikes}, "
          f"non-shared: {nonshared_spikes} "
          f"(duplicates from overlapping windows)")


if __name__ == "__main__":
    main()
