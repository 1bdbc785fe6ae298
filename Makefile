# Convenience targets for the CAESAR reproduction.

PYTHON ?= python

.PHONY: install test test-chaos test-overload test-service test-aggregation difftest bench bench-smoke bench-sharing bench-aggregation bench-hotpath bench-parallel bench-observability bench-shedding bench-tables examples validate lint-smoke all

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

# deterministic chaos suite: injected faults, crash recovery, dead letters.
# Fault schedules are fixed stream timestamps, so ordering plugins that
# shuffle tests (pytest-randomly et al.) are disabled for reproducibility.
test-chaos:
	$(PYTHON) -m pytest tests/runtime/test_supervisor.py \
		tests/runtime/test_recovery.py \
		tests/runtime/test_deadletter.py \
		-q -p no:randomly

# differential correctness harness: pairs of configurations that must
# agree (optimizer rules, context-aware vs baseline, backends,
# checkpoint/restore, reordered arrival) — pytest suite plus a
# small-budget CLI sweep over every scenario and axis (docs/difftest.md)
difftest:
	$(PYTHON) -m pytest tests/difftest/ -q
	$(PYTHON) -m repro diff --scenario all --axis all --scale 0.5

# overload-management suite: admission control, controller determinism,
# breaker re-entry under time regressions, and the shed difftest axis.
# Fixed seeds drive every shedding decision, so ordering plugins are
# disabled as in test-chaos.
test-overload:
	$(PYTHON) -m pytest tests/runtime/test_shedding.py \
		tests/runtime/test_breaker_reentry.py \
		tests/difftest/test_shed_axis.py \
		-q -p no:randomly

# online SEQ aggregation: operator/property suites plus the aggregate
# difftest axis (online vs materialize oracle, across backends, and
# shared vs non-shared aggregate state under the grouping optimizer)
test-aggregation:
	$(PYTHON) -m pytest tests/algebra/test_seq_aggregate.py \
		tests/language/test_roundtrip.py \
		-q -p no:randomly
	$(PYTHON) -m repro diff --scenario all --axis aggregate --scale 0.5

# streaming service mode: continuous ingestion, online deployment, the
# session/service difftest axis, the network front ends, and the
# `repro serve` round-trip smokes (stdin and TCP/HTTP)
test-service:
	$(PYTHON) -m pytest tests/service/ \
		tests/net/ \
		tests/runtime/test_session.py \
		tests/runtime/test_session_backends.py \
		tests/runtime/test_preserve_state.py \
		tests/difftest/test_service_axis.py \
		-q -p no:randomly
	$(PYTHON) -m repro diff --scenario all --axis service --scale 0.5

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# smoke run of the end-to-end benchmark (bench/): all four workloads at
# --scale 0.05, traced and untraced, each checked against its reference
# outputs — a pattern change that alters emissions fails here
bench-smoke:
	$(PYTHON) -m pytest bench/tests -q

# shape checks of the workload-sharing experiments (Figure 14 a-c and the
# ablations), benchmark timing off: each runs a SharedWorkload on the
# engine and asserts the paper-figure shape
bench-sharing:
	$(PYTHON) -m pytest benchmarks/bench_fig14a_overlap_number.py \
		benchmarks/bench_fig14b_overlap_length.py \
		benchmarks/bench_fig14c_shared_size.py \
		benchmarks/bench_ablations.py \
		--benchmark-disable -q -p no:randomly

# online SEQ aggregation vs match materialization: asserts identical
# aggregate values, linear-vs-combinatorial scaling, and >=10x at the
# largest size (table recorded in docs/benchmarks.md)
bench-aggregation:
	$(PYTHON) -m pytest benchmarks/bench_aggregation.py --benchmark-only -s

# hot-path micro-benchmarks only (predicate eval, partial advance, routing)
bench-hotpath:
	$(PYTHON) -m pytest benchmarks/bench_hotpath.py --benchmark-only

# serial vs process[2] execution backend throughput (asserts the backends
# produce identical outputs before printing any number)
bench-parallel:
	$(PYTHON) benchmarks/bench_parallel.py

# observability overhead: metrics off vs on vs detailed vs tracing
# (asserts all modes produce the same report, prints overhead %)
bench-observability:
	$(PYTHON) benchmarks/bench_observability.py

# overload shedding under burst: bounded backlog vs unbounded queue
# growth (asserts protected outputs are identical before printing)
bench-shedding:
	$(PYTHON) benchmarks/bench_shedding.py

# benchmarks with the per-figure tables printed inline
bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for example in examples/*.py; do \
		echo "== $$example =="; \
		$(PYTHON) $$example > /dev/null || exit 1; \
	done; echo "all examples ok"

validate:
	$(PYTHON) -m repro validate-traffic

# quick import smoke over every module
lint-smoke:
	$(PYTHON) -m pytest tests/test_misc.py -q

all: test bench
