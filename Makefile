# CI-style entry points.  The repo needs no build step; PYTHONPATH=src
# stands in for an editable install (the offline image lacks `wheel`).

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: test test-net test-chaos test-cover test-all bench bench-smoke bench-compare bench-layers counters check examples serve loc

# Tier-1 verification: everything except @pytest.mark.slow benchmarks.
test:
	$(PYTEST) -x -q

# CI gate: tier-1 tests plus a full-source compile sweep.
check:
	$(PYTEST) -x -q
	PYTHONPATH=src python -m compileall -q src

# The network-archive tests plus the service tier's, whose isolation,
# MyDB and result-cache tests drive an authenticated server over
# localhost TCP (every test carries a SIGALRM timeout guard so a wedged
# socket fails instead of hanging).
test-net:
	$(PYTEST) -x -q tests/net tests/service

# Chaos tests: scripted server kills over a replicated cluster, with
# the same SIGALRM guard — a hung failover fails, never wedges.
test-chaos:
	$(PYTEST) -x -q tests/chaos

# The HTM cover held to the trixel-at-a-time reference walk over 2 000
# drawn regions at depths 0-7 and the benchmark generators' regions
# (slow-marked, so tier-1 deselects it).
test-cover:
	$(PYTEST) -x -q -m slow tests/htm/test_cover.py

# The full suite including slow-marked benchmark cases.
test-all:
	$(PYTEST) -x -q -o addopts="--durations=10"

# Every example script end to end, each under its own timeout: a change
# to the public surface that breaks an example fails here.
examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src timeout 120 python $$script > /dev/null; \
	done

# Lines of src/repro per package, total last: the number ROADMAP's
# "less code, same surface" targets are judged by.  A directory without
# Python files (an interpreter's __pycache__) is not a package.
loc:
	@for package in src/repro/*/; do \
		ls $$package*.py > /dev/null 2>&1 || continue; \
		printf "%7d %s\n" \
			$$(find $$package -name '*.py' | xargs cat | wc -l) $$package; \
	done
	@printf "%7d %s\n" $$(find src/repro -name '*.py' | xargs cat | wc -l) src/repro

# Host a synthetic archive on localhost TCP; connect from another
# process with Archive.connect("archive://127.0.0.1:7744").
serve:
	PYTHONPATH=src python -m repro.net.server --port 7744

# All benchmarks, including slow ones, with their printed tables.
bench:
	$(PYTEST) -q -s benchmarks -o addopts=""

# The deterministic-counter gate: record the session-API perf artifact
# (time-to-first-row / completion for a fixed corpus over both backends,
# so the trajectory is on disk) and compare its exact I/O counters with
# the committed artifact.  Latencies drift with the host; a counter that
# moves means the engine reads or evaluates differently.
counters:
	PYTHONPATH=src python benchmarks/bench_session.py \
		--out BENCH_session.json --trace-out BENCH_trace_breakdown.json
	PYTHONPATH=src python benchmarks/check_counters.py BENCH_session.json

# One quick benchmark per family as a smoke check (~30s): the counter
# gate, then every benchmark fixture chain without the multi-second
# timing rounds.
bench-smoke: counters
	$(PYTEST) -q -x \
		"benchmarks/test_bench_cartesian_vs_trig.py::test_bench_cone_dot_vs_haversine" \
		"benchmarks/test_bench_container_pruning.py::test_bench_pruning_savings" \
		"benchmarks/test_bench_distributed_servers.py::test_bench_query_locality" \
		"benchmarks/test_bench_fig2_dataflow.py::test_bench_fig2_flow" \
		"benchmarks/test_bench_fig3_subdivision.py::test_bench_fig3_point_location" \
		"benchmarks/test_bench_fig4_rangequery.py::test_bench_fig4_query_correctness" \
		"benchmarks/test_bench_hash_machine.py::test_bench_hash_vs_naive_scaling" \
		"benchmarks/test_bench_loading.py::test_bench_load_touches" \
		"benchmarks/test_bench_qet_streaming.py::test_bench_engine_throughput" \
		"benchmarks/test_bench_river_sort.py::test_bench_river_commodity_rate_claim" \
		"benchmarks/test_bench_sampling.py::test_bench_sample_preserves_statistics" \
		"benchmarks/test_bench_scan_machine.py::test_bench_scan_cost_model" \
		"benchmarks/test_bench_table1_products.py::test_bench_table1" \
		"benchmarks/test_bench_tags_speedup.py::test_bench_tag_byte_ratio" \
		"benchmarks/test_bench_typical_queries.py::test_bench_indexed_vs_scan"

# Shell lines unpacking BASE (a `git archive` of the ref) into $$tree, a
# temp dir removed on exit, with this tree's cached catalogs linked in.
define base_tree
tree=$$(mktemp -d); trap 'rm -rf "$$tree"' EXIT; \
	mkdir -p $$tree/bench/out; \
	git archive $(BASE) | tar -x -C $$tree; \
	for catalog in $(CURDIR)/bench/out/catalog-*.npy; do \
		if [ -e $$catalog ]; then ln -s $$catalog $$tree/bench/out/; fi; \
	done
endef

# What a performance PR is judged by: `python3 -m bench` on BASE and on
# this tree, PAIRS pairs from seed 11, alternating which side runs
# first, then the bench.compare verdicts.  The result files stay in
# bench/out/compare/{base,head} (git-ignored).
PAIRS ?= 10
bench-compare:
	@test -n "$(BASE)" || { \
		echo "usage: make bench-compare BASE=<ref> [PAIRS=10] [WORKLOAD=<name>]" >&2; \
		exit 2; }
	@set -e; $(base_tree); \
	out=$(CURDIR)/bench/out/compare; rm -rf $$out; \
	mkdir -p $$out/base $$out/head; \
	for pair in $$(seq $(PAIRS)); do \
		seed=$$((10 + pair)); \
		if [ $$((pair % 2)) = 1 ]; then sides="base head"; else sides="head base"; fi; \
		for side in $$sides; do \
			if [ $$side = base ]; then dir=$$tree; else dir=$(CURDIR); fi; \
			echo "== pair $$pair/$(PAIRS): $$side, seed $$seed"; \
			(cd $$dir && python3 -m bench $(if $(WORKLOAD),--workload $(WORKLOAD)) \
				--seed $$seed --out $$out/$$side > $$out/$$side/seed$$seed.log); \
		done; \
	done; \
	python3 -m bench.compare $$out/base $$out/head

# Where the saving appeared: one traced run (`--trace 1`) of WORKLOAD at
# SEED on BASE and on this tree, then their per-layer metrics and
# per-shape latencies side by side (benchmarks/compare_layers.py).  The
# result files stay in bench/out/layers/{base,head} (git-ignored).
SEED ?= 21
bench-layers:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { \
		echo "usage: make bench-layers BASE=<ref> WORKLOAD=<name> [SEED=21]" >&2; \
		exit 2; }
	@set -e; $(base_tree); \
	out=$(CURDIR)/bench/out/layers; rm -rf $$out; \
	mkdir -p $$out/base $$out/head; \
	for side in base head; do \
		if [ $$side = base ]; then dir=$$tree; else dir=$(CURDIR); fi; \
		echo "== $$side, seed $(SEED)"; \
		(cd $$dir && python3 -m bench --workload $(WORKLOAD) --seed $(SEED) \
			--trace 1 --out $$out/$$side > $$out/$$side/seed$(SEED).log); \
	done; \
	python3 benchmarks/compare_layers.py \
		$$out/base/$(WORKLOAD)-seed$(SEED)-trace1.json \
		$$out/head/$(WORKLOAD)-seed$(SEED)-trace1.json
