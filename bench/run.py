"""Entry point of the benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m bench.run --seed N [--workload NAME] [--trace]
                                       [--scale X] [--out FILE]

One invocation generates the workload's inputs from ``--seed``, measures
for about ``--seconds`` seconds, checks every pass's emissions against a
reference computation, prints every metric by name with its unit, and ends
its standard output with one JSON line.  With ``--trace 0`` (default) the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a separate traced run.

Without ``--workload`` all four workloads run in turn and the last line is
a summary of all of them.  The exit code is non-zero when an output check
fails.
"""

import os
import sys

if __name__ == "__main__" and __package__ in (None, ""):
    # started as a script: make `bench` and `repro` importable, and keep
    # this directory itself off the path (bench/trace.py would otherwise
    # shadow the standard library's trace module)
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[0:1] = [_root, os.path.join(_root, "src")]

import argparse
import json
import platform
import signal
import subprocess
import time

from bench import harness
from bench.harness import spread
from bench.workloads import WORKLOADS, Workload

#: share of ``--seconds`` spent on closed-loop passes by the service
#: workloads; the rest goes to paced passes
CLOSED_LOOP_SHARE = 0.4
#: in-process set-ups timed before every pass: a set-up takes 2 ms, and
#: timing them all at the start makes ``setup_s`` the state of the machine
#: in one tenth of a second
SETUPS_PER_PASS = 5
#: paced passes per run at least: the latency profile is a minimum over them
PACED_PASSES = 3
#: extra spawn-and-drain cycles of ``repro serve`` per run
SERVE_STARTUPS = 3


def latency_profile(passes: list) -> list[float]:
    """Per emission, the shortest latency any of the passes measured.

    Every pass drives the same input and — checked against the reference —
    emits the same events in the same order, so emission *i* of one pass
    is the same work as emission *i* of the next.  What the program needs
    for it shows in every pass; what a noisy neighbour added shows in one.
    Taking the minimum over passes before the percentiles over emissions
    keeps the first and drops the second: a disturbance has to hit the
    same emission in every pass to move the result.  (So does a stall of
    the program that strikes at random, which is why p99 and the maximum
    of a single pass are reported with the per-layer metrics.)  For the
    batch workload the "emissions" are the stream batches.
    """
    return [min(column) for column in zip(*(r.latencies_ms for r in passes))]


def repeat_for(budget_s: float, one_pass, *, minimum: int) -> list:
    """Repeat ``one_pass`` until another repetition would overrun."""
    results = []
    started = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        if len(results) >= minimum and now - started + (now - before) > budget_s:
            return results


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)
# ---------------------------------------------------------------------------


def run_end_to_end(workload: Workload, seed: int, seconds: float, scale: float) -> dict:
    """Every end-to-end metric of one workload, with its output checks."""
    inputs = workload.make_inputs(seed, scale)
    tcp = workload.kind == "tcp"

    # -- set-up: query text -> ready-to-ingest system ----------------------
    setups = []
    if tcp:
        startups = [harness.serve_startup() for _ in range(SERVE_STARTUPS)]
        setups = [setup for setup, _ in startups]
        idle_cpu = spread([cpu for _, cpu in startups])["median"]
        wire = harness.wire_lines(inputs)
    else:
        harness.build_engine(workload).close()  # discarded warm-up
        idle_cpu = 0.0

    def time_setups():
        for _ in range(SETUPS_PER_PASS):
            before = time.perf_counter()
            engine = harness.build_engine(workload)
            setups.append(time.perf_counter() - before)
            engine.close()

    unreaped = []

    def reap_servers():
        while unreaped:
            result = harness.finish_tcp_pass(unreaped.pop())
            result.cpu_s = max(result.cpu_s - idle_cpu, 0.0)

    def one_pass(rate=None, track_outputs=False):
        if not tcp:
            time_setups()
        if workload.kind == "batch":
            result = harness.batch_pass(
                workload, inputs, track_outputs=track_outputs
            )
        elif tcp:
            result = harness.tcp_pass(inputs, wire, rate=rate)
            setups.append(result.setup_s)
            # the previous pass's server has long finished shutting down
            reap_servers()
            unreaped.append(result)
        else:
            result = harness.service_pass(workload, inputs, rate=rate)
        # only the traced run looks at the end state; holding every
        # pass's engine here would show up in peak_rss_mb
        result.engine = None
        return result

    # -- closed loop: one discarded warm-up, then measured repetitions -----
    # (the batch workload measures with track_outputs=False; its warm-up
    # keeps the outputs so they can be compared line by line)
    share = 1.0 if workload.kind == "batch" else CLOSED_LOOP_SHARE
    warm_up = one_pass(track_outputs=True)
    closed = repeat_for(seconds * share - warm_up.wall_s, one_pass, minimum=2)
    reap_servers()
    rss = harness.peak_rss_mb(children=tcp)

    # -- open loop at the workload's frozen rate ---------------------------
    paced = []
    if workload.paced_rate_eps:
        rate = float(workload.paced_rate_eps)
        late = harness.generator_dry_run_late_p99_ms(rate)
        if late > harness.GENERATOR_LATE_LIMIT_MS:
            # the contract wants a result from every run, so this is a
            # loud warning instead of a refusal: on a shared box a noisy
            # neighbour trips it, and the latencies below say so too
            print(
                f"WARNING: the load generator alone runs {late:.2f} ms late "
                f"(p99) at {rate:.0f} events/s: the paced latencies measure "
                "the generator or the machine, not the program",
                file=sys.stderr,
            )
        paced = repeat_for(
            seconds * (1.0 - share), lambda: one_pass(rate),
            minimum=PACED_PASSES,
        )
        reap_servers()

    # -- reference check (after the timed passes: it holds every output) ---
    expected, reference = harness.reference_lines(workload, inputs)
    mismatched = behind = 0
    for result in [warm_up] + closed + paced:
        if workload.kind == "batch" and result is not warm_up:
            # track_outputs=False: the counters stand in for the lines
            same = (
                result.report.outputs_by_type == reference.outputs_by_type
                and result.report.cost_units == reference.cost_units
            )
            mismatched += 0 if same else len(expected)
        else:
            mismatched += harness.emission_mismatches(result.lines, expected)
    for result in paced:
        if not harness.kept_up(result):
            print(
                f"paced pass fell behind (backlog {result.backlog_end} "
                f"events, last send {result.late_ms[-1]:.0f} ms late): the "
                "frozen rate is not sustainable here",
                file=sys.stderr,
            )
            behind += result.events

    latency_passes = paced if paced else closed
    profile = latency_profile(latency_passes)
    metrics = {
        "setup_s": spread(setups),
        "throughput_eps": spread([r.events / r.wall_s for r in closed]),
        "cpu_us_per_event": spread([r.cpu_s / r.events * 1e6 for r in closed]),
        "emit_latency_p50_ms": spread([harness.percentile(profile, 50)]),
        "emit_latency_p95_ms": spread([harness.percentile(profile, 95)]),
        "peak_rss_mb": spread([rss]),
    }
    metrics["emit_latency_p50_ms"]["samples"] = metrics["emit_latency_p95_ms"][
        "samples"
    ] = sum(len(r.latencies_ms) for r in latency_passes)
    summary = harness.outcome(
        metrics, inputs, expected, [warm_up] + closed + paced,
        mismatched, extra_failed=behind,
    )
    summary["generator_late_p99_ms"] = max(
        (harness.percentile(r.late_ms, 99) for r in paced), default=0.0
    )
    summary["backlog_end"] = max((r.backlog_end for r in paced), default=0)
    return summary


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def header(args) -> dict:
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "sizes": {name: w.sizes for name, w in WORKLOADS.items()},
        "paced_rates_eps": {
            name: w.paced_rate_eps for name, w in WORKLOADS.items()
        },
    }


def print_table(name: str, outcome: dict, units: dict) -> None:
    print(f"== {name}: correct={outcome['correct']} "
          f"ops_attempted={outcome['attempted']} ops_failed={outcome['failed']}")
    for metric, stats in outcome["metrics"].items():
        line = f"  {metric:<40} {stats['median']:>14.4f} {units[metric]:<6}"
        if stats.get("n", 1) > 1:
            line += (f" q1={stats['q1']:.4f} q3={stats['q3']:.4f} "
                     f"n={stats['n']}")
        if "samples" in stats:
            line += f" samples={stats['samples']}"
        print(line)
    for extra in ("generator_late_p99_ms", "backlog_end"):
        if extra in outcome:
            print(f"  ({extra} = {outcome[extra]:.3f})")


def contract_line(outcome: dict, units: dict) -> str:
    """The one JSON object a single-workload invocation ends with."""
    return json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": stats["median"], "unit": units[name]}
            for name, stats in outcome["metrics"].items()
        },
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (smoke tests); frozen "
                        "rates are unchanged")
    parser.add_argument("--out", default=None,
                        help="also write the full summary (quartiles, "
                        "sample counts, header) to this file")
    args = parser.parse_args(argv)

    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are randomised per process, and how a handful of
        # payload keys collide makes one process up to 15 % slower than
        # the next: noise for a regression gate.  Pin the hash seed (the
        # server child inherits it) and start over.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(
            sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:]
        )

    # a SIGTERM unwinds like any other way out, through the clean-up below
    if argv is None:
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return measure(args)
    finally:
        harness.stop_all_processes()


def measure(args) -> int:
    contract = harness.load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[kind]}
    harness.clear_engine_env()

    head = header(args)
    if args.workload == "all":
        outcomes = run_each_in_its_own_process(args)
    else:
        print("# " + json.dumps(head))
        workload = WORKLOADS[args.workload]
        if args.trace:
            from bench.layers import run_traced

            outcome = run_traced(workload, args.seed, args.seconds, args.scale)
        else:
            outcome = run_end_to_end(
                workload, args.seed, args.seconds, args.scale
            )
        missing = set(units) - set(outcome["metrics"])
        if missing:
            raise SystemExit(f"metrics not reported: {sorted(missing)}")
        print_table(args.workload, outcome, units)
        outcomes = {args.workload: outcome}

    summary = {"header": head, "units": units, "workloads": outcomes,
               "claim": None}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
    sys.stdout.flush()
    if args.workload == "all":
        print(json.dumps(summary))
    else:
        print(contract_line(outcomes[args.workload], units))
    return 0 if all(o["correct"] for o in outcomes.values()) else 1


def run_each_in_its_own_process(args) -> dict:
    """All four workloads, each measured exactly as the driver measures it:
    alone in a fresh process (peak RSS, warm caches and collector state of
    one workload must not leak into the next)."""
    out_dir = os.path.join(harness.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    outcomes = {}
    for name in WORKLOADS:
        out = os.path.join(out_dir, f"summary-{name}-{args.seed}.json")
        completed = subprocess.run([
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", str(args.scale), "--out", out,
        ], stdout=subprocess.PIPE, text=True)
        # pass the tables on, keep the child's closing JSON line out
        sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
        if completed.returncode not in (0, 1):
            raise SystemExit(f"{name}: exit code {completed.returncode}")
        with open(out, encoding="utf-8") as handle:
            outcomes[name] = json.load(handle)["workloads"][name]
    return outcomes


if __name__ == "__main__":
    sys.exit(main())
