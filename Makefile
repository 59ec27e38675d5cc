# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test test-fast test-slow lint lint-repro lint-graph bench \
	bench-quick bench-check bench-promote gradcheck \
	reproduce report api serve-net-smoke index-smoke \
	perfbench-smoke train-smoke clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The two CI tiers: the fast tier runs on every interpreter of the matrix,
# the slow tier (kill-and-resume integration, worker pools) once on 3.11.
test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-slow:
	$(PYTHON) -m pytest tests/ -m slow

# Style gate (configuration lives in pyproject.toml).
lint:
	ruff check src/ tests/ tools/ benchmarks/
	ruff format --check src/ tests/ tools/ benchmarks/

# Repo-aware static analysis (repro.lint): per-module concurrency, RNG
# discipline, atomic-IO, and metric/token-drift rules plus the
# interprocedural lock-order/blocking/deadline/resource flow rules.
# Stdlib-only; composes with ruff rather than replacing it.  Warm runs
# replay the SHA-keyed summary cache (tools/.lint_cache.json) in about
# 0.1 s of analysis and leave it unrewritten; a cold run parses and walks
# each file once, about 1.7 s on a 2-vCPU VM.  The wall-time gate
# matches the CI fast tier.
lint-repro:
	$(PYTHON) tools/run_lint.py --max-seconds 10

# Dump the resolved call graph + lock-acquisition graph (what
# RL008/RL009 reason over) as JSON, for debugging a flow finding.
lint-graph:
	$(PYTHON) tools/run_lint.py --graph

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The quick-mode suites the CI slow tier runs: each emits its
# BENCH_<name>.json through the shared repro.bench emitter, feeding the
# regression gate below.
bench-quick:
	$(PYTHON) -m pytest \
	  benchmarks/test_train_step_throughput.py \
	  benchmarks/test_serving_throughput.py \
	  benchmarks/test_serving_degradation.py \
	  benchmarks/test_netserve_load.py \
	  benchmarks/test_index_retrieval.py -q -rs

# CI regression gate: compare BENCH_*.json against the committed
# baselines; exits non-zero on any out-of-tolerance regression.
bench-check:
	$(PYTHON) -m repro bench check

# Intentionally move the baselines to the current results (journaled in
# benchmarks/baselines/promotions.jsonl).  Pass NOTE="why".
bench-promote:
	$(PYTHON) -m repro bench promote --note "$(NOTE)"

# Finite-difference verification of every layer/loss gradient
# (repro.diagnostics sweep; exits non-zero on any mismatch).
gradcheck:
	$(PYTHON) tools/run_gradcheck.py

# Regenerate every table/figure straight from the CLI (single seed).
reproduce:
	$(PYTHON) -m repro reproduce --table all --out benchmarks/results

# Rebuild EXPERIMENTS.md from the latest benchmark outputs.
report:
	$(PYTHON) -c "from repro.experiments import generate_report; \
	generate_report('benchmarks/results', 'EXPERIMENTS.md')"

# Regenerate the checked-in API reference.
api:
	$(PYTHON) tools/gen_api_docs.py docs/api.md

# Boot the TCP frontend as a real subprocess, drive a short open-loop
# mix over the tenant quota with the load generator, and SIGTERM it:
# asserts zero protocol errors, structured rate-limit rejections, and a
# clean drain.  Then the restart phase boots the stub-encoder server
# twice over one --store directory and sends each the same session: the
# restarted server must read the names back from the disk log (cache
# hits >= 1, then >= 3) without a batcher flush (at most 1, then 0, on
# one flush thread), and under a 1 s flush timer the p95 bound (0.5 s)
# fails a batcher that waits for the timer with no other caller (see
# tools/run_netserve_smoke.py).  Bounded by timeout so a wedged server
# fails the step instead of stalling CI.
serve-net-smoke:
	timeout 120 $(PYTHON) tools/run_netserve_smoke.py

# Build a 10k-entity synthetic ANN index, query a few stored names, and
# dump its manifest stats — the retrieval tier end to end through the
# real CLI.  Bounded by timeout so a wedged build fails the step instead
# of stalling CI.
index-smoke:
	rm -rf .index-smoke
	timeout 120 $(PYTHON) -m repro index build --dir .index-smoke \
	  --synthetic 10000 --dim 32
	timeout 60 $(PYTHON) -m repro index query --dir .index-smoke \
	  --name entity-0 --name entity-42 --k 5
	timeout 60 $(PYTHON) -m repro index stats --dir .index-smoke
	rm -rf .index-smoke

# One-second run of each real-encoder benchmark workload (perfbench/): a
# non-zero exit means a correctness check failed (served vector vs the
# offline encode, knn/rca/eap/fct replies, finite stage-2 losses) or the
# benchmark could not run.  Each workload runs untraced and then traced
# (--trace 1), so the tracer's wraps of serving, index and training
# methods by name run too.  The first run builds and caches the `small`
# checkpoint under .bench_build/.
PERFBENCH_WORKLOADS = serve_cold_bulk serve_hot_mix train_stage2

perfbench-smoke:
	set -e; for workload in $(PERFBENCH_WORKLOADS); do \
	  for trace in 0 1; do \
	    timeout 600 $(PYTHON) perfbench/run.py --workload $$workload \
	      --seed 1 --seconds 1 --trace $$trace; \
	  done; \
	done

# Exercise the fault-tolerant training runtime end to end: train two steps,
# pause (simulated interruption), tear the journal's last line as a killed
# process would, resume from the snapshot, finish the schedule, and check
# the journal saw every step exactly once and kept the resume event that
# followed the torn line.  The cycle runs serially and then through the
# CLI's worker pool (--workers 2).  A pool that fails falls back to serial
# and still finishes the run, so any fallback_serial event fails the target.
# With --keep-last 1, retention by step leaves only the final snapshot.
train-smoke:
	set -e; for workers in 1 2; do \
	  rm -rf .train-smoke; \
	  $(PYTHON) -m repro train --run-dir .train-smoke --size smoke \
	    --steps 4 --checkpoint-every 2 --keep-last 1 --stop-after 2 \
	    --workers $$workers; \
	  printf '%s' '{"kind": "step", "st' >> .train-smoke/journal.jsonl; \
	  $(PYTHON) -m repro train --run-dir .train-smoke --size smoke \
	    --steps 4 --checkpoint-every 2 --keep-last 1 --workers $$workers; \
	  $(PYTHON) -c "import os; from collections import Counter; \
	  from repro.ioutil import read_records; \
	  kinds = Counter(e['kind'] for e in \
	    read_records('.train-smoke/journal.jsonl')); \
	  assert kinds['step'] == 4, kinds; \
	  assert kinds['run_complete'] == 1, kinds; \
	  assert kinds['resume'] == 1, kinds; \
	  assert kinds['fallback_serial'] == 0, kinds; \
	  kept = sorted(os.listdir('.train-smoke/snapshots')); \
	  assert kept == ['step-00000004.npz'], kept; \
	  print('train-smoke ok (workers=$$workers):', dict(kinds), kept)"; \
	done
	rm -rf .train-smoke

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks .train-smoke
	find . -name __pycache__ -type d -exec rm -rf {} +
