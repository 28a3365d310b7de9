GO ?= go

.PHONY: all build test cover race vet bench bench-full bench-compare bench-gate bench-baseline perfbench-test profile fuzz serve-smoke shard-smoke clean

all: build test vet

build:
	$(GO) build ./...

# vet runs first so structural mistakes fail fast; the -race pass covers
# the new cross-process / singleflight machinery in addition to the plain
# test run. The bench gate fails the build when a micro-benchmark's ns/op
# regresses more than 50% against the committed BENCH_BASELINE.json;
# MLPSIM_BENCH_GATE=off demotes it to report-only.
test:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/atrace -run 'TestCacheSingleflight|TestCacheBuildPanic|TestCrossProcessSingleflight|TestCacheDiskSpill|TestBuildLeavesNoLockOrLease|TestMonolithicSpillQuarantined|TestCorruptSpillQuarantined|TestDiskEviction|TestSegmented|TestCrashDuringPublishRecovery|TestLease'
	$(GO) test -race ./internal/server
	$(GO) test -race ./internal/experiments -run 'TestGangMatchesSequential|TestCycleSimGangsMatchPointAtATime|TestExtStoreSets|Memo|PointKey|TestCancelledSweepStoresOnlyCompletedPoints|TestRunPoints|TestShard'
	$(GO) test -race ./internal/core -run 'TestRunGangDivergentMatchesSequential|TestDisambMatchesBruteForceReferenceRandom'
	$(GO) test -race ./internal/storeset
	$(GO) test -race ./internal/smt -run 'TestSchedBracketingRandom|TestRoundRobinK1BitIdentity'
	$(GO) test -race ./internal/mem ./internal/prefetch ./internal/annotate \
		-run 'MatchesMapReference|ZeroAllocSteadyState|AnnotateIntoMatchesNext'
	$(MAKE) perfbench-test
	$(MAKE) bench-gate

# perfbench-test runs the repo benchmark's own package test. perfbench is
# a separate Go module, so the root `go test ./...` skips it; its test
# checks that every workload runs clean, that fleet bytes equal solo,
# and that digests and counts repeat from run to run.
perfbench-test:
	cd perfbench && $(GO) test ./...

bench-gate:
	$(GO) run ./cmd/bench -scale quick -skip-sweep -skip-gang -skip-storesets -skip-smtsched \
		-out /tmp/bench_gate.json -compare BENCH_BASELINE.json -gate-pct 50

# bench-baseline refreshes the committed gate baseline. Run it on the
# machine class the gate will run on, with the tree otherwise idle.
bench-baseline:
	$(GO) run ./cmd/bench -scale quick -skip-sweep -skip-gang -skip-storesets -skip-smtsched -out BENCH_BASELINE.json

# cover prints per-package statement coverage and gates the scheduled-SMT
# package (internal/smt) against the floor in scripts/cover.sh;
# MLPSIM_COVER_GATE=off demotes the gate to report-only.
cover:
	sh scripts/cover.sh

# Concurrency-sensitive packages: the annotated-trace cache (singleflight,
# mmap, lease-coordinated disk spill) and the experiment worker pool that
# hammers it.
race:
	$(GO) test -race ./internal/experiments ./internal/atrace

vet:
	$(GO) vet ./...

# Performance report: micro-benchmarks (engine, gang dispatch at
# K=1/4/16/32/64, the SMT policy scheduler), the sequential-vs-gang
# Figure 4 sweep, the ext-storesets disambiguation and ext-smtsched
# policy sweeps, the
# uncached / in-heap-cached / memory-mapped Figure 4+5+6 sweeps, plus
# the peer-mode shard sweep (figure4 through a 3-replica in-process
# fleet, byte-compared against a solo daemon). `make bench` is the
# quick loop; `make bench-full` writes the committed BENCH_10.json at
# paper scale, and `make bench-compare` additionally prints deltas
# against BENCH_9.json.
bench:
	$(GO) run ./cmd/bench -scale quick -out /tmp/bench_quick.json

bench-full:
	$(GO) run ./cmd/bench -scale default -out BENCH_10.json

bench-compare:
	$(GO) run ./cmd/bench -scale default -out BENCH_10.json -compare BENCH_9.json

# profile writes CPU and heap profiles for the engine hot loop, the gang
# sweep end to end, and the SoA gang stepper in isolation (construction
# off the clock) into profiles/. Inspect with e.g.
#   go tool pprof -http=:8080 profiles/gang-soa.cpu.prof   # flamegraph view
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkMLPsimEngine$$' -benchtime 5s \
		-cpuprofile profiles/engine.cpu.prof -memprofile profiles/engine.mem.prof .
	$(GO) test -run '^$$' -bench 'BenchmarkGangSweep$$' -benchtime 5s \
		-cpuprofile profiles/gang.cpu.prof -memprofile profiles/gang.mem.prof .
	$(GO) test -run '^$$' -bench 'BenchmarkGangSweepSoA$$' -benchtime 5s \
		-cpuprofile profiles/gang-soa.cpu.prof -memprofile profiles/gang-soa.mem.prof .
	$(GO) test -run '^$$' -bench 'BenchmarkAnnotateStream$$' -benchtime 5s \
		-cpuprofile profiles/annotate.cpu.prof -memprofile profiles/annotate.mem.prof ./internal/atrace
	rm -f mlpsim.test atrace.test

fuzz:
	$(GO) test ./internal/trace -fuzz '^FuzzRoundTrip$$' -fuzztime 30s
	$(GO) test ./internal/trace -fuzz '^FuzzDecoder$$' -fuzztime 30s
	$(GO) test ./internal/atrace -fuzz FuzzOpenSegmentManifest -fuzztime 30s
	$(GO) test ./internal/storeset -fuzz FuzzStoreSetUpdate -fuzztime 30s
	$(GO) test ./internal/server -fuzz FuzzParsePoints -fuzztime 30s

# serve-smoke boots the real daemon binary on an ephemeral port, diffs
# one exhibit's CSV against the plain CLI's output and asserts a clean
# SIGTERM drain. See scripts/serve-smoke.sh.
serve-smoke:
	sh scripts/serve-smoke.sh

# shard-smoke boots three real daemon replicas sharing one trace-cache
# directory plus a coordinator-only observer that owns no points, then
# byte-diffs figure4 fetched through the observer against a solo
# daemon's answer. See scripts/shard-smoke.sh.
shard-smoke:
	sh scripts/shard-smoke.sh

clean:
	$(GO) clean ./...
