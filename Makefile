# Verification tiers. tier1 is the gate every change must keep green
# (build, vet, tests); tier2 adds the race detector (the experiment
# harness runs simulations on a worker pool, so -race now guards real
# concurrency), a parallel-determinism smoke that diffs sstbench -j 4
# against -j 1, the fault-fuzz smoke (fixed seeds, bounded wall-clock)
# of the speculation-invisibility oracle, the leak-fuzz smoke (gadget
# corpus + fixed seeds through the transient-leakage oracle), a bounded
# coverage-guided differential fuzz session plus the scout period-jump
# sweep (fuzz-short), the mutation checks (mutants: each kept mutant of
# the simulator must fail its named test), the rocksimd
# service smoke (serve-smoke: curl load, predictor counters on /metrics,
# grid byte-identity with B1 included, SIGTERM drain), the fleet smoke
# (fleet-smoke: 3 shards behind rockgate, curl /v1/run load, grid
# byte-identity, loss-free drain of all four processes), the
# rockbench golden digests of every experiment's text (rockbench-test),
# the full-scale results check (results-check: results_full.txt is
# regenerated and diffed, about 3 min), and the benchmark guard
# (bench-guard: three rockbench runs compared against the committed
# BENCH_rockbench.json, about 6–7 min);
# determinism re-runs the observability tests twice in one process to
# prove the exports are byte-stable across map-iteration orders.

GO ?= go

.PHONY: all tier1 tier2 race smoke-parallel fault-fuzz leak-fuzz fuzz-short mutants serve-smoke fleet-smoke trace-smoke rockbench-test results-check determinism ci golden bench bench-guard profile

all: tier1

tier1:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# Fault-injection smoke: fixed seeds through the speculation-
# invisibility oracle (see docs/ROBUSTNESS.md). The full 200-seed sweep
# runs as TestFaultFuzzEquivalence in the ordinary test suite; this
# target is the quick, always-reproducible subset for pre-commit runs.
fault-fuzz:
	$(GO) test ./internal/sim -run 'TestFaultFuzzSmoke|TestFaultOracleTeeth' -count=1 -timeout 10m

# Transient-leakage smoke: the gadget corpus must leak unmitigated and
# go clean under the secure modes, and fixed-seed generated programs
# with secret-tainted data must pass the differential leakage oracle on
# every core kind (see docs/SECURITY.md). The wider 60-seed sweep runs
# as TestLeakFuzzNoFalsePositives in the ordinary test suite.
leak-fuzz:
	$(GO) test ./internal/sim -run 'TestLeakFuzzSmoke|TestGadgetsLeakUnmitigated|TestGadgetLeakMatrix' -count=1 -timeout 10m

# Prove the -j worker pool changes nothing but wall clock: regenerate
# every experiment at test scale serially and with 4 workers and
# require byte-identical tables (only the "regenerated in" wall-clock
# lines may differ).
smoke-parallel:
	$(GO) build -o /tmp/sstbench-smoke ./cmd/sstbench
	/tmp/sstbench-smoke -scale test -j 1 | grep -v 'regenerated in' > /tmp/sstbench-j1.txt
	/tmp/sstbench-smoke -scale test -j 4 | grep -v 'regenerated in' > /tmp/sstbench-j4.txt
	diff -u /tmp/sstbench-j1.txt /tmp/sstbench-j4.txt
	@echo "smoke-parallel: -j 1 and -j 4 output identical"

tier2: race smoke-parallel fault-fuzz leak-fuzz fuzz-short mutants serve-smoke fleet-smoke trace-smoke rockbench-test results-check bench-guard

# Regenerate every experiment at full scale and require the committed
# results_full.txt to match byte for byte (only the wall-clock
# "regenerated in" lines are dropped). EXPERIMENTS.md quotes that file,
# and TestExperimentsQuoteResults keeps the quotes current. About 3 min
# on a 2-vCPU Xeon VM.
results-check:
	$(GO) build -o /tmp/sstbench-results ./cmd/sstbench
	/tmp/sstbench-results -scale full -j 2 | grep -v 'regenerated in' > /tmp/results_full.txt
	diff -u results_full.txt /tmp/results_full.txt
	@echo "results-check: results_full.txt is current"

# The rockbench module has its own go.mod, so `go test ./...` skips it;
# its tests hold the golden digests of every experiment's test-scale
# text and every benchmarked /v1/run body.
rockbench-test:
	cd cmd/rockbench && $(GO) test .

# Bounded coverage-guided session of the native differential fuzz
# target (internal/sim FuzzDifferential): the mutator drives the
# program generator's choice stream, so every input is a valid program
# diffed emulator-vs-every-core. The seed corpus under
# internal/sim/testdata/corpus runs in plain `go test` as regressions.
fuzz-short:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzDifferential -fuzztime 20s
	$(GO) test ./internal/sim -run 'TestScoutJump' -scout-sweep -count=1 -timeout 20m

# Mutation checks: apply each mutant of mutants_test.go, one at a time,
# in a temporary copy of the module, and require its named test to
# report --- FAIL (a build failure is no kill). Tier 1 checks only that
# every mutant's anchor text occurs exactly once
# (TestMutantAnchorsOccurOnce).
mutants:
	$(GO) test . -run TestMutantsKilled -mutants -count=1 -v -timeout 20m

# The daemon smokes drive rocksimd and rockgate with curl. SMOKE_KINDS
# names every core kind in sim.Kinds (TestSmokeKindsAreSimKinds checks
# it); the /v1/run load cycles it crossed with chase and oltp by request
# index.
SMOKE_KINDS := inorder ooo-small ooo-large scout sst-ea sst sst-big

# wait_ready polls base URL $(1) until /healthz answers 200 (at most
# 10 s); the last probe fails the recipe if it never does.
define wait_ready
for i in $$(seq 1 50); do curl -sf $(1)/healthz >/dev/null && break; sleep 0.2; done; curl -sf $(1)/healthz >/dev/null
endef

# load_run sends $(2) /v1/run requests of the smoke cell mix to base URL
# $(1), $(3) at a time. $(3) stays below serve.DefaultQueueDepth (32),
# so no request meets a 429. Every reply must be a 200 with a JSON body;
# one that is not makes xargs, and so the recipe, fail.
define load_run
awk -v n=$(2) -v kinds='$(SMOKE_KINDS)' 'BEGIN { k = split(kinds, K, " "); split("chase oltp", W, " "); for (i = 0; i < n; i++) printf "{\"kind\":\"%s\",\"workload\":\"%s\",\"scale\":\"test\"}\n", K[i % k + 1], W[int(i / k) % 2 + 1] }' | \
	xargs -d '\n' -P $(3) -I{} sh -c 'b=$$(curl -sf -d "$$1" $(1)/v1/run) && printf %s "$$b" | jq -e . >/dev/null' _ {}; \
	echo "$(2) /v1/run requests, $(3) at a time: every reply 200 and JSON"
endef

# End-to-end daemon smoke: boot rocksimd, load it, require the bpred/*
# predictor counters on /metrics, prove the daemon's /v1/grid output
# (B1's kind-x-sharing grid included) is byte-identical to sstbench,
# then SIGTERM it and require a clean (exit 0) drain.
serve-smoke:
	$(GO) build -o /tmp/rocksimd-smoke ./cmd/rocksimd
	$(GO) build -o /tmp/sstbench-smoke ./cmd/sstbench
	@set -e; \
	/tmp/rocksimd-smoke -addr 127.0.0.1:8321 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	$(call wait_ready,http://127.0.0.1:8321); \
	$(call load_run,http://127.0.0.1:8321,120,8); \
	curl -sf http://127.0.0.1:8321/metrics > /tmp/serve-metrics.txt; \
	grep -q '^rocksim_bpred_dir_lookups ' /tmp/serve-metrics.txt; \
	grep -q '^rocksim_bpred_deferred_dir_trains ' /tmp/serve-metrics.txt; \
	curl -sf -d '{"exps":["T1","F3","F12","B1"],"scale":"test"}' http://127.0.0.1:8321/v1/grid -o /tmp/serve-grid.txt; \
	/tmp/sstbench-smoke -scale test -j 1 -exp T1,F3,F12,B1 | grep -v 'regenerated in' > /tmp/serve-grid-ref.txt; \
	diff -u /tmp/serve-grid-ref.txt /tmp/serve-grid.txt; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	echo "serve-smoke: bpred/* counters on /metrics; grid byte-identical to sstbench; daemon drained cleanly on SIGTERM"

# Fleet smoke: boot 3 rocksimd shards and a rockgate router in front,
# load the gateway's /v1/run proxy (every request must succeed), prove
# the gateway's /v1/grid (every cell fanned out by cache key, F12's SMT
# pairs included) is byte-identical to sstbench, then SIGTERM all four
# processes and require clean (exit 0) drains.
fleet-smoke:
	$(GO) build -o /tmp/rocksimd-smoke ./cmd/rocksimd
	$(GO) build -o /tmp/rockgate-smoke ./cmd/rockgate
	$(GO) build -o /tmp/sstbench-smoke ./cmd/sstbench
	@set -e; \
	/tmp/rocksimd-smoke -addr 127.0.0.1:8331 -shard-id s0 & p0=$$!; \
	/tmp/rocksimd-smoke -addr 127.0.0.1:8332 -shard-id s1 & p1=$$!; \
	/tmp/rocksimd-smoke -addr 127.0.0.1:8333 -shard-id s2 & p2=$$!; \
	trap 'kill $$p0 $$p1 $$p2 $$pg 2>/dev/null || true' EXIT; \
	for port in 8331 8332 8333; do $(call wait_ready,http://127.0.0.1:$$port); done; \
	/tmp/rockgate-smoke -addr 127.0.0.1:8330 -shards http://127.0.0.1:8331,http://127.0.0.1:8332,http://127.0.0.1:8333 & pg=$$!; \
	$(call wait_ready,http://127.0.0.1:8330); \
	$(call load_run,http://127.0.0.1:8330,60,4); \
	curl -sf -d '{"exps":["T1","F3","F12"],"scale":"test"}' http://127.0.0.1:8330/v1/grid -o /tmp/fleet-grid.txt; \
	/tmp/sstbench-smoke -scale test -j 1 -exp T1,F3,F12 | grep -v 'regenerated in' > /tmp/fleet-grid-ref.txt; \
	diff -u /tmp/fleet-grid-ref.txt /tmp/fleet-grid.txt; \
	kill -TERM $$pg; wait $$pg; \
	kill -TERM $$p0 $$p1 $$p2; wait $$p0; wait $$p1; wait $$p2; \
	trap - EXIT; \
	echo "fleet-smoke: /v1/run proxied cleanly; 3-shard grid byte-identical to sstbench; gateway and shards drained cleanly"

# Tracing and cycle-accounting smoke on real tool output (the unit
# tests cover the libraries; this covers what the binaries write):
# run a traced single cell and a traced small grid, lint the Chrome
# trace JSON (parses; every span has ts/dur/pid/tid), and check the
# cpi_stack sum invariant on the emitted report.
trace-smoke:
	$(GO) build -o /tmp/sstsim-trace ./cmd/sstsim
	$(GO) build -o /tmp/sstbench-trace ./cmd/sstbench
	$(GO) build -o /tmp/tracelint ./cmd/tracelint
	/tmp/sstsim-trace -core sst -workload chase -scale test -json -trace /tmp/trace-run.json > /tmp/trace-report.json
	/tmp/sstbench-trace -scale test -j 2 -exp T1,F3 -trace /tmp/trace-grid.json > /dev/null
	/tmp/tracelint -trace /tmp/trace-run.json -report /tmp/trace-report.json
	/tmp/tracelint -trace /tmp/trace-grid.json
	@echo "trace-smoke: traces render-valid; cpi_stack sums to cycles"

# Record the benchmark baseline: ten all-workload rockbench reports
# (cmd/rockbench/bench.sh, seeds 1-10, the default 25 s per workload),
# one compact JSON line each, concatenated into BENCH_rockbench.json.
# A report with wrong output ("correct":false) is refused. Takes about
# 23 min on a 2-vCPU Xeon VM (one run is about 2.3 min). Work files stay
# under .bench_build/.
bench:
	@set -e; $(call bench_runs,.bench_build/record,1 2 3 4 5 6 7 8 9 10); \
	cp .bench_build/record/all.json BENCH_rockbench.json; \
	echo "bench: wrote BENCH_rockbench.json (10 reports)"

# Defend the baseline: three fresh rockbench runs (seeds 1-3) into
# .bench_build/guard/, then `bench.sh -compare` against the committed
# BENCH_rockbench.json. Fails when the baseline is missing, when any
# fresh report has wrong output ("correct":false), or on any REGRESSION
# verdict (an end-to-end median worse than its bound in BENCHMARK.json).
# There is no skip path. Takes about 6–7 min on a 2-vCPU Xeon VM.
bench-guard:
	@set -e; \
	test -f BENCH_rockbench.json || { echo "bench-guard: FAIL: BENCH_rockbench.json is missing (record it with make bench)" >&2; exit 1; }; \
	$(call bench_runs,.bench_build/guard,1 2 3); \
	bash cmd/rockbench/bench.sh -compare BENCH_rockbench.json .bench_build/guard/all.json; \
	echo "bench-guard: no regression against BENCH_rockbench.json"

# bench_runs runs rockbench once per seed in $(2), writing each report
# into directory $(1) and appending it to $(1)/all.json. It fails the
# recipe on a report with "correct":false (an operation failed or its
# simulated output missed the golden digest), for which rockbench itself
# exits 0.
bench_runs = rm -rf $(1); mkdir -p $(1); \
	for s in $(2); do \
		bash cmd/rockbench/bench.sh -seed $$s -o $(1)/seed$$s.json; \
		if grep -q '"correct":false' $(1)/seed$$s.json; then echo "bench: FAIL: $(1)/seed$$s.json has wrong output (\"correct\":false)" >&2; exit 1; fi; \
		cat $(1)/seed$$s.json >> $(1)/all.json; \
	done

# CPU+heap profile of a test-scale sstbench run, for hot-loop work (see
# docs/PERFORMANCE.md). Inspect with: go tool pprof cpu.prof
# To profile one /v1/run-shaped cell instead:
#   go run ./cmd/sstsim -core ooo-large -workload dense -scale test -cpuprofile cpu.prof
profile:
	$(GO) build -o /tmp/sstbench-prof ./cmd/sstbench
	/tmp/sstbench-prof -scale test -j 1 -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "profile: wrote cpu.prof and mem.prof (go tool pprof cpu.prof)"

determinism:
	$(GO) test -run TestObs -count=2 ./...

ci: tier1 tier2 determinism

# Regenerate every pin of simulated or rendered output after a
# deliberate change: the Chrome-trace golden, the timing goldens, the
# experiments' failure-path digests, rockbench's /v1/run body and grid
# digests (cmd/rockbench/testdata/golden.json) and results_full.txt at
# full scale (about 3 min, as results-check). Review the diff before
# committing it. TestGoldenRecipeCoversEveryPin fails when a package's
# tests declare an -update flag this recipe does not pass.
golden:
	$(GO) test ./internal/obs -run TestObsChromeGolden -update
	$(GO) test ./internal/sim -run TestTimingGolden -update
	$(GO) test ./internal/experiments -run TestFailurePathDigests -update
	cd cmd/rockbench && $(GO) run . -update-golden
	$(GO) build -o /tmp/sstbench-results ./cmd/sstbench
	/tmp/sstbench-results -scale full -j 2 > /tmp/results_full.raw
	grep -v 'regenerated in' /tmp/results_full.raw > results_full.txt
