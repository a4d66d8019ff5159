# Convenience entry points; all targets assume the in-tree layout
# (src/ on PYTHONPATH, no install needed).

PYTHON ?= python

.PHONY: test chaos smoke bench-smoke bench-check docs-check docs trace \
	analyze history-check service-check fleet-check tune-check slo-check \
	perfbench-check perfbench verify

# Tier-1: the fast default profile (chaos sweeps deselected via addopts).
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Full randomized fault-injection sweeps.
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest -m chaos -q

# Just the fault/resilience smoke subset (also part of `make test`).
smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_faults.py

# Quick execution-backend comparison (numpy vs batched vs device) on an
# over-cache-limit system, plus the dense-vs-screened block-sparse
# payoff on a polyethylene chain; writes BENCH_backends.json and
# BENCH_sparse.json at the repo root.
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_backends.py --quick
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sparse.py --quick
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fleet.py --quick \
		--output /tmp/BENCH_fleet_quick.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_tuner.py --quick \
		--output /tmp/BENCH_tuner_quick.json

# Perf-regression gate: re-run each benchmark at its committed
# baseline's own parameters and compare metric-by-metric (exact bands
# for deterministic counters, one-sided bands for wall times/speedups).
# Every run appends one provenance-stamped entry to BENCH_history.jsonl.
bench-check:
	PYTHONPATH=src $(PYTHON) -m repro bench-check --baseline BENCH_backends.json \
		--history BENCH_history.jsonl
	PYTHONPATH=src $(PYTHON) -m repro bench-check --baseline BENCH_sparse.json \
		--history BENCH_history.jsonl

# Documentation gate: every doctest in the observability-facing modules
# must run, every audited public object must carry a docstring, and the
# generated CLI/settings reference (docs/CLI.md, docs/SETTINGS.md) must
# match what the code actually exposes.
docs-check:
	PYTHONPATH=src $(PYTHON) -m pytest --doctest-modules -q \
		src/repro/obs src/repro/service src/repro/utils/timing.py \
		src/repro/utils/balance.py src/repro/utils/artifacts.py \
		src/repro/runtime/trace.py src/repro/testing/docs.py \
		src/repro/grids/sparsity.py src/repro/fleet src/repro/tune
	PYTHONPATH=src $(PYTHON) tools/check_docstrings.py
	PYTHONPATH=src $(PYTHON) tools/gen_cli_docs.py --check

# Regenerate the committed CLI/settings reference from the code.
docs:
	PYTHONPATH=src $(PYTHON) tools/gen_cli_docs.py

# Span trace of a real physics run, openable at https://ui.perfetto.dev.
# --force: the artifacts are regenerated on every invocation.
trace:
	PYTHONPATH=src $(PYTHON) -m repro trace --molecule water --level minimal \
		--out trace.json --report run_report.json --force

# Post-mortem analytics: record a trace, then render the timeline /
# critical-path / imbalance dashboard and the scaling-attribution tables.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro trace --molecule water --level minimal \
		--out trace.json --report run_report.json --force
	PYTHONPATH=src $(PYTHON) -m repro analyze trace trace.json --top 12
	PYTHONPATH=src $(PYTHON) -m repro analyze scaling --atoms 602 \
		--base-ranks 8 --points 2

# Trend detection over the benchmark history (non-fatal when empty).
history-check:
	PYTHONPATH=src $(PYTHON) -m repro analyze history --path BENCH_history.jsonl

# Simulation-service correctness contract: the statestore + cache-key
# suites, the default-off worker-crash chaos sweeps, and the end-to-end
# CLI demo (second identical submit must be a cache hit served from the
# journal-replayed result store, no recomputation).
service-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/test_service_statestore.py tests/test_service_keys.py
	PYTHONPATH=src $(PYTHON) -m pytest -q -m service tests/test_service_chaos.py
	rm -rf .service-demo
	PYTHONPATH=src $(PYTHON) -m repro submit --molecule h2 --level minimal \
		--store .service-demo/journal.jsonl
	PYTHONPATH=src $(PYTHON) -m repro submit --molecule h2 --level minimal \
		--store .service-demo/journal.jsonl | grep -q "cache hit"
	PYTHONPATH=src $(PYTHON) -m repro status --store .service-demo/journal.jsonl
	rm -rf .service-demo

# Fleet contract: the bit-exactness parity suite (fleet-of-N vs N
# sequential runs across backends/screening/submission order) plus the
# fleet-throughput regression gate against the committed baseline.
fleet-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_fleet.py
	PYTHONPATH=src $(PYTHON) -m repro bench-check --baseline BENCH_fleet.json \
		--history BENCH_history.jsonl

# Auto-tuner contract: the decision determinism/round-trip/never-slower
# property suite plus the tuned-vs-default regression gate against the
# committed baseline (its own lineage in BENCH_history.jsonl).
tune-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_tune.py
	PYTHONPATH=src $(PYTHON) -m repro bench-check --baseline BENCH_tuner.json \
		--history BENCH_history.jsonl

# Service-telemetry contract: the rollup/alert/health property suite
# plus the deterministic SLO scenario gated against its committed
# baseline (steady run fires zero alerts; the seeded worker_crash
# chaos run fires the crash-rate alert byte-stably).
slo-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_telemetry.py
	PYTHONPATH=src $(PYTHON) -m repro slo --gate BENCH_slo.json

# Unit tests of the wall-clock benchmark's instrument (span recorder,
# statistics, correctness checks, traffic generator); they sit outside
# the tier-1 testpaths.
perfbench-check:
	$(PYTHON) -m pytest -q perfbench/tests

# The wall-clock benchmark itself: one traced run (an untraced and a
# traced repetition) of every BENCHMARK.json workload, failing unless
# each run's last output line reports "correct": true.  Takes ~2 min,
# so it is not part of `make verify`.
perfbench:
	@set -e; \
	for w in $$($(PYTHON) -c "import json; print(*(w['name'] for w in \
			json.load(open('BENCHMARK.json'))['workloads']))"); do \
		echo "perfbench: $$w"; \
		last=$$($(PYTHON) perfbench/run.py --workload $$w --seed 1 \
			--seconds 20 --trace 1 | tail -n 1); \
		echo "$$last"; \
		echo "$$last" | $(PYTHON) -c "import json, sys; \
			sys.exit(json.load(sys.stdin).get('correct') is not True)"; \
	done

# Physics-invariant + golden + differential-conformance check on H2,
# plus the perf-regression, documentation, history-trend, service,
# fleet, tuner, telemetry and benchmark-instrument gates (all tier-1
# sized).  `python -m repro verify` (no args) covers both reference
# molecules.
verify: bench-check docs-check history-check service-check fleet-check \
		tune-check slo-check perfbench-check
	PYTHONPATH=src $(PYTHON) -m repro verify --molecule h2
