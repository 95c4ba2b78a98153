# Developer entry points for the EARL reproduction.
#
#   make test        - tier-1 test suite (the gate every PR must keep green;
#                      excludes tests marked `slow`, see pytest.ini)
#   make test-all    - the whole suite including the slow statistical-
#                      stability tests
#   make bench       - every figure benchmark (writes benchmarks/results/)
#   make bench-smoke - quick benchmark subset (~30 s)
#   make figures-check - regenerate the simulated Fig. 5/6/7/9/10
#                      records (~10 s) and fail if any differs from its
#                      committed copy under benchmarks/results/
#   make bench-json  - every benchmark of benchmarks/bench_gates.json
#                      (kernel, ingest, query, scheduler, faults,
#                      durability, telemetry, exec) at smoke size ->
#                      benchmarks/results/BENCH_<name>.json, each gated
#                      against its committed baseline
#                      benchmarks/BENCH_<name>.json (a >20% speedup
#                      regression fails the target, after all have run)
#   make test-chaos  - the randomized chaos-harness sweeps (marker
#                      `chaos`, deselected from tier-1; see tests/chaos/)
#   make test-durability - the crash-recovery suite: store contract,
#                      engine checkpoints, restart byte-identity (incl.
#                      the SIGKILL subprocess drill) and the
#                      kill-and-restart chaos sweep
#   make bench-service - the 1,000-session service load harness
#                      (tests/service/test_load.py, slow tier)
#   make bench-e2e   - the end-to-end latency benchmark of BENCHMARK.json:
#                      every workload untraced + traced ->
#                      benchmarks/results/BENCH_e2e_report.json
#   make bench-pairs PARENT=<rev> WORKLOAD=<name>[,<name>...]|all [N=10]
#                      - alternating parent/change pairs of BENCHMARK.json
#                      workloads (tools/bench_pairs.py; the parent is
#                      exported once): medians, quartiles, pairs won and a
#                      verdict per end-to-end metric, one table per
#                      workload plus a Markdown block over all of them
#   make docs-check  - every .md referenced from tracked code/docs exists
#   make doctest     - run the docstring examples under src/repro
#   make examples    - run every example script end to end
#   make clean       - purge bytecode caches, tool state, stray
#                      durable-store directories and bench-pairs exports
#                      (__pycache__/, .pytest_cache/, .hypothesis/, var/,
#                      benchmarks/results/pairs/)

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-all test-chaos test-durability bench bench-smoke \
	figures-check bench-json bench-service bench-e2e bench-pairs \
	docs-check doctest examples clean

test:
	$(PYTHON) -m pytest -x -q

test-all:
	$(PYTHON) -m pytest -x -q -m "slow or not slow"

test-chaos:
	$(PYTHON) -m pytest -x -q -m chaos tests/chaos

# The whole durability surface in one go: the SessionStore contract,
# the engine checkpoint/replay contract, crash-recovery byte-identity
# (including the real-SIGKILL subprocess drill) and the randomized
# kill-and-restart chaos sweep.
test-durability:
	$(PYTHON) -m pytest -x -q -m "chaos or not chaos" \
		tests/service/test_store_contract.py \
		tests/core/test_checkpoint.py \
		tests/service/test_restart.py \
		tests/chaos/test_kill_restart.py

# bench_*.py does not match pytest's default test-file pattern, so the
# files are passed explicitly (explicit args are always collected).
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

# The sampling-bias ablation is the only caller of sample_blocks and
# reservoir_sample, so it runs here to keep both baselines exercised.
bench-smoke:
	$(PYTHON) -m pytest -q \
		benchmarks/bench_fig2_bootstrap_convergence.py \
		benchmarks/bench_fig10_delta_maintenance.py \
		benchmarks/bench_exec_backends.py \
		benchmarks/bench_exec.py \
		benchmarks/bench_ablation_sampling_bias.py

# The figure records are simulated seconds and counts, byte-identical
# run to run on any machine, and tracked.  The wall-clock records that
# bench-smoke and bench-json write (kernel_throughput.txt,
# exec_backends.txt, ingest_throughput.txt, BENCH_kernel.json,
# BENCH_ingest.json under benchmarks/results/) are host timings: not
# tracked, so a green CI run leaves the work tree clean (its last step
# checks `git status --porcelain`).
FIGURE_BENCHES = benchmarks/bench_fig5_mean_speedup.py \
	benchmarks/bench_fig6_median.py benchmarks/bench_fig7_kmeans.py \
	benchmarks/bench_fig9_sampling_modes.py \
	benchmarks/bench_fig10_delta_maintenance.py
FIGURE_RECORDS = $(addprefix benchmarks/results/, fig5_loading.txt \
	fig5_mean_speedup.txt fig6_median.txt fig7_kmeans.txt \
	fig9_kv_counts.txt fig9_sampling_modes.txt fig10_resampling.txt \
	fig10_update_procedure.txt)

figures-check:
	$(PYTHON) -m pytest -q $(FIGURE_BENCHES)
	git diff --exit-code -- $(FIGURE_RECORDS)

# Smoke sizes only; the machine-independent gates (speedup ratio vs the
# committed baselines) live in tools/check_bench_regression.py — the
# absolute >=10x / >=5x assertions are exercised by `make bench` / full
# CLI runs.  benchmarks/bench_gates.json lists the gated benchmarks
# (name, script, gated stages; the kernel gate keeps its historical
# expand-only contract); every one is run and gated even after a
# failure, and the target fails at the end if any did.
bench-json:
	$(PYTHON) tools/check_bench_regression.py \
		--manifest benchmarks/bench_gates.json

bench-service:
	$(PYTHON) -m pytest -q -m slow tests/service/test_load.py

bench-e2e:
	python3 benchmarks/e2e/run.py --seed 1 \
		--out benchmarks/results/BENCH_e2e_report.json

N ?= 10
bench-pairs:
	$(PYTHON) tools/bench_pairs.py --parent $(PARENT) \
		--workload $(WORKLOAD) --pairs $(N)

docs-check:
	$(PYTHON) tools/check_docs.py

# The examples in docstrings (EarlSession, QueryScheduler, Figure4Sampler,
# ...).  `addopts=` drops pytest.ini's marker filter, which is about
# tests/, not docstrings.
doctest:
	$(PYTHON) -m pytest -q --doctest-modules src/repro -o addopts=

examples:
	@set -e; for f in examples/*.py; do \
		echo "== $$f"; $(PYTHON) $$f > /dev/null; \
	done; echo "all examples ran"

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .benchmarks
	rm -rf var
	rm -rf benchmarks/results/pairs
	find . -name "sessions.wal*" -not -path "./.git/*" -delete
	@echo "bytecode, tool caches, durable-store state and bench-pairs exports purged"
