"""Smoke test of the benchmark itself (not collected by the tier-1 suite).

    python -m pytest bench/tests

Every workload runs end to end at ``--scale 0.05`` — traced and untraced —
through the same command line the driver uses.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[0:0] = [ROOT, os.path.join(ROOT, "src")]

from bench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)

SEED = 5


def run_benchmark(workload: str, trace: int, out: str) -> dict:
    process = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--scale", "0.05", "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    return {
        "stdout": process.stdout,
        "last": json.loads(process.stdout.strip().splitlines()[-1]),
    }


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    name = request.param
    return name, {
        trace: run_benchmark(name, trace, str(out / f"{name}-{trace}.json"))
        | {"out": str(out / f"{name}-{trace}.json")}
        for trace in (0, 1)
    }


def test_contract_lists_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert "setup_s" in [m["name"] for m in CONTRACT["end_to_end"]]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(runs, trace, kind):
    name, by_trace = runs
    last = by_trace[trace]["last"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    expected = {m["name"]: m["unit"] for m in CONTRACT[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for metric in expected:
        assert metric in by_trace[trace]["stdout"]
    if trace == 0:
        assert all(v["value"] > 0 for v in last["metrics"].values()), last


def test_summary_file_ends_with_null_claim(runs):
    _, by_trace = runs
    with open(by_trace[0]["out"], encoding="utf-8") as handle:
        text = handle.read()
    summary = json.loads(text)
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert summary["header"]["seed"] == SEED
    assert summary["header"]["nproc"] == os.cpu_count()


def test_spans_nest_and_self_time_is_not_negative(runs):
    name, _ = runs
    prefix = "serve" if WORKLOADS[name].kind == "tcp" else "trace"
    path = os.path.join(ROOT, ".bench_out", f"{prefix}-{name}-{SEED}.json")
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["spans"], "no spans recorded"
    by_thread = {}
    for thread, index, _name, start, end, parent, _txn in trace["spans"]:
        by_thread.setdefault(thread, {})[index] = (start, end, parent)
    for spans in by_thread.values():
        for start, end, parent in spans.values():
            assert end >= start
            if parent >= 0:
                parent_start, parent_end, _ = spans[parent]
                assert parent_start <= start and end <= parent_end
    for layer, stats in trace["layers"].items():
        assert stats["self_ms"] >= -1e-6, (layer, stats)
        assert stats["self_ms"] <= stats["total_ms"] + 1e-6


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_determines_the_stream(name):
    workload = WORKLOADS[name]
    first = workload.make_inputs(3, 0.05)
    again = workload.make_inputs(3, 0.05)
    other = workload.make_inputs(4, 0.05)
    assert first.digest == again.digest
    assert first.ops == again.ops
    assert first.digest != other.digest
