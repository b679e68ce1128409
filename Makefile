# Convenience targets for the coMtainer reproduction.
#
#   make test    - the tier-1 test suite (includes the chaos sweeps)
#   make chaos   - randomized fault-injection sweeps (minus federation/service)
#   make federation-chaos - federation-tier chaos sweeps only
#   make federation-test - all federated-registry tests
#   make service-test - all multi-tenant adaptation-service tests
#   make service-chaos - service-tier chaos sweeps only
#   make recovery-test - durable crash-restart + origin-failover sweeps
#   make recovery-bench - WAL replay/resume/failover benchmarks
#   make verify-all - tier-1 suite plus every marker-gated suite
#   make service-bench - service throughput/latency/dedup benchmark
#   make serve   - multi-tenant service demo: noisy tenant + seeded chaos
#   make bench   - regenerate the evaluation tables / benchmarks
#   make resilience-bench - just the resilience happy-path overhead check
#   make trace   - traced adaptation; Chrome trace JSON + span tree
#   make metrics - traced adaptation; Prometheus-style metrics dump
#   make telemetry-bench - the NullTelemetry happy-path overhead check
#   make obs-bench - control-plane (sampler+rules+profiler) overhead check
#   make health  - component health demo: chaos adaptation + stale mirror
#   make integrity-bench - the verified-reads happy-path overhead check
#   make perf-bench - incremental short-circuit speedup + VFS hot-path bars
#   make incremental-test - plan-diff + byte-identity incremental sweeps
#   make parallel-bench - wavefront makespan scaling + artifact-cache reuse
#   make fleet-bench - worker-fleet no-fault overhead vs the slot scheduler
#   make federation-bench - incremental mirror-sync bytes-on-wire vs naive push
#   make fsck-demo - save a layout, corrupt it on disk, detect and repair
#   make bench-e2e - wall-clock harness: all four workloads, untraced, to BENCH_OUT
#   make bench-trace - wall-clock harness with per-layer trace, to TRACE_OUT
#   make bench-compare A=parent.json B=change.json [CLAIM=workload:metric]
#                - compare two harness --out files (pair-win rule with CLAIM)
#   make bench-pairs BASE=rev W=workload [PAIRS=10] [SEED=7] [CLAIM=W:METRIC] OUT=dir
#                - alternating parent/change harness pairs, merged and compared
#   make harness-test - the wall-clock harness's self-tests
#   make profile W=workload [OPS=30] [SEED=7] [SELF=1] [FN=name[,name...]]
#                [CALLERS=name[,name...]] [WINDOW=n] [WALL=module:qualname[,...]]
#                [GC=1] [MEMO=1] [MEMO_OFF=name[,name...]] [RSS=1]
#                - cProfile of one workload's timed ops: top repro functions
#                  with calls per op and share of the profiled time (with
#                  SELF=1, also the top functions of any module by self
#                  time; with FN, also every repro function of those names;
#                  with CALLERS, each caller of every repro function of
#                  those names; file-suffix:name reaches outside repro;
#                  with WINDOW, the mean ms/op of each n-op window; with
#                  WALL, no cProfile: the calls and inclusive wall-clock
#                  ms/op of those functions instead; with GC=1, also the
#                  garbage collector's collections, ms/op and freed
#                  objects per op per generation; with MEMO=1, also each
#                  memo's lookups and stores per op, hit ratio and entries;
#                  with MEMO_OFF, those memos get a cap of 0 for the ops;
#                  with RSS=1, also the RSS high-water mark (ru_maxrss) and
#                  the gc-tracked objects after set-up and after the ops)
#   make loc [BASE=rev] - code and docstring/comment lines of src/ (per
#                file and total; with BASE, BASE's counts and the delta)

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest
CLI     = PYTHONPATH=src $(PYTHON) -m repro.cli

TRACE_APP ?= lammps

HARNESS   = $(PYTHON) -m benchmarks.harness
SEED      ?= 0
REPEAT    ?= 1
BENCH_OUT ?= benchmarks/results/harness/e2e.json
TRACE_OUT ?= benchmarks/results/harness/trace.json

.PHONY: test chaos federation-chaos federation-test service-test \
        service-chaos recovery-test recovery-bench verify-all \
        service-bench serve bench resilience-bench \
        trace metrics telemetry-bench obs-bench health integrity-bench \
        perf-bench incremental-test parallel-bench fleet-bench \
        federation-bench fsck-demo bench-e2e bench-trace bench-compare \
        bench-pairs harness-test profile loc

test:
	$(PYTEST) -x -q

# The marker split bounds each chaos invocation's runtime: the original
# sweeps, the federation sweeps, the service sweeps, and the recovery
# sweeps can run (and time out) independently.
chaos:
	$(PYTEST) -m "chaos and not federation and not service and not recovery" -q

federation-chaos:
	$(PYTEST) -m "chaos and federation" -q

federation-test:
	$(PYTEST) -m federation -q

service-test:
	$(PYTEST) -m service -q

service-chaos:
	$(PYTEST) -m "chaos and service and not recovery" -q

recovery-test:
	$(PYTEST) -m recovery -q

recovery-bench:
	$(PYTEST) benchmarks/bench_recovery.py -q -s

# Everything: the tier-1 suite, then each marker-gated suite in turn.
verify-all: test chaos federation-chaos service-chaos recovery-test \
        federation-test service-test incremental-test harness-test

service-bench:
	$(PYTEST) benchmarks/bench_service_throughput.py -q -s

serve:
	$(CLI) serve --tenants 3 --requests 3 --noisy --fault-rate 0.05 \
	    --seed 5 --mirrors 1

bench:
	$(PYTEST) benchmarks -q -s

resilience-bench:
	$(PYTEST) benchmarks/bench_resilience_overhead.py -q -s

# Warm >=5x cold, repeat-tenant fast path, VFS hot-path bars.
perf-bench:
	$(PYTEST) benchmarks/bench_incremental_adaptation.py \
	    benchmarks/bench_vfs_hotpaths.py -q -s

incremental-test:
	$(PYTEST) -m incremental -q

trace:
	mkdir -p benchmarks/results
	$(CLI) --trace trace $(TRACE_APP) --out benchmarks/results/trace.json

metrics:
	$(CLI) --metrics trace $(TRACE_APP)

telemetry-bench:
	$(PYTEST) benchmarks/bench_telemetry_overhead.py -q -s

obs-bench:
	$(PYTEST) benchmarks/bench_telemetry_overhead.py::test_controlplane_overhead -q -s

health:
	$(CLI) health $(TRACE_APP) --fault-rate 0.3 --seed 3 --stale-mirrors 1 || true

integrity-bench:
	$(PYTEST) benchmarks/bench_integrity_overhead.py -q -s

parallel-bench:
	$(PYTEST) benchmarks/bench_parallel_rebuild.py -q -s

fleet-bench:
	$(PYTEST) benchmarks/bench_fleet_overhead.py -q -s

federation-bench:
	$(PYTEST) benchmarks/bench_federation_sync.py -q -s

fsck-demo:
	PYTHONPATH=src $(PYTHON) examples/fsck_demo.py

# The wall-clock harness (benchmarks/harness/README.md).  SEED, REPEAT,
# BENCH_OUT and TRACE_OUT override the defaults; traced runs write one
# Chrome trace per workload next to TRACE_OUT.
bench-e2e:
	mkdir -p $(dir $(BENCH_OUT))
	$(HARNESS) --seed $(SEED) --repeat $(REPEAT) --trace 0 --out $(BENCH_OUT)

bench-trace:
	mkdir -p $(dir $(TRACE_OUT))
	$(HARNESS) --seed $(SEED) --trace 1 --out $(TRACE_OUT)

bench-compare:
	$(if $(and $(A),$(B)),,$(error usage: make bench-compare \
	    A=parent.json B=change.json [CLAIM=workload:metric]))
	$(HARNESS) compare $(A) $(B) $(if $(CLAIM),--claim $(CLAIM))

# SEED defaults to 0 above; bench-pairs passes it only when it is given,
# so the script's own default (7) applies otherwise.
bench-pairs:
	$(if $(and $(BASE),$(W),$(OUT)),,$(error usage: make bench-pairs BASE=<rev> \
	    W=<workload> [PAIRS=10] [SEED=7] [CLAIM=W:METRIC] OUT=<dir>))
	$(PYTHON) scripts/bench_pairs.py $(BASE) $(W) $(OUT) \
	    $(if $(PAIRS),--pairs $(PAIRS)) \
	    $(if $(filter-out file,$(origin SEED)),--seed $(SEED)) \
	    $(if $(CLAIM),--claim $(CLAIM))

harness-test:
	$(PYTEST) benchmarks/harness -q

# Profiles only workload.run(i), the region the harness times; set-up and
# checks run outside the profile.  SEED is passed only when given, so the
# script's own default (7) applies otherwise.
profile:
	$(if $(W),,$(error usage: make profile W=<workload> [OPS=30] [SEED=7] \
	    [SELF=1] [FN=name[,name...]] [CALLERS=name[,name...]] [WINDOW=n] \
	    [WALL=module:qualname[,...]] [GC=1] [MEMO=1] [MEMO_OFF=name[,name...]] \
	    [RSS=1]))
	$(PYTHON) scripts/profile_ops.py $(W) $(if $(OPS),--ops $(OPS)) \
	    $(if $(filter-out file,$(origin SEED)),--seed $(SEED)) $(if $(SELF),--self) \
	    $(if $(FN),--fn $(FN)) $(if $(CALLERS),--callers $(CALLERS)) \
	    $(if $(WINDOW),--window $(WINDOW)) $(if $(WALL),--wall $(WALL)) \
	    $(if $(GC),--gc) $(if $(MEMO),--memo) $(if $(MEMO_OFF),--memo-off $(MEMO_OFF)) \
	    $(if $(RSS),--rss)

loc:
	$(PYTHON) scripts/loc.py $(BASE)
