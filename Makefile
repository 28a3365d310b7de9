GO ?= go

.PHONY: all build test test-names cover race vet bench bench-full bench-compare bench-gate perfbench-test profile fuzz serve-smoke shard-smoke clean

all: build test vet

build:
	$(GO) build ./...

# vet runs first so structural mistakes fail fast; the -race pass covers
# the new cross-process / singleflight machinery in addition to the plain
# test run. test-names checks that every test the -race passes and the
# fuzz targets name still exists. The bench gate runs last (see
# bench-gate).
test:
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) test-names
	$(GO) test -race ./internal/atrace -run 'TestCacheSingleflight|TestCacheBuildPanic|TestCrossProcessSingleflight|TestCacheDiskSpill|TestBuildLeavesNoLockOrLease|TestMonolithicSpillQuarantined|TestCorruptSpillQuarantined|TestDiskEviction|TestSpillRoundTrip|TestSpillStream|TestSpillWriteFailure|TestSegmentedDisk|TestCrashDuringPublishRecovery|TestLease'
	$(GO) test -race ./internal/server
	$(GO) test -race ./internal/experiments -run 'TestGangMatchesSequential|TestCycleSimGangsMatchPointAtATime|TestBatchFetchesTracesFirst|TestTraceFetchReleasesWaitersOnPanic|TestExtStoreSets|Memo|PointKey|TestCancelledSweepStoresOnlyCompletedPoints|TestRunPoints|TestShard'
	$(GO) test -race ./internal/core -run 'TestRunGangDivergentMatchesSequential|TestDisambMatchesBruteForceReferenceRandom'
	$(GO) test -race ./internal/storeset
	$(GO) test -race ./internal/smt -run 'TestSchedBracketingRandom|TestRoundRobinK1BitIdentity'
	$(GO) test -race ./internal/mem ./internal/prefetch ./internal/annotate \
		-run 'MatchesMapReference|ZeroAllocSteadyState|AnnotateIntoMatchesNext'
	$(MAKE) perfbench-test
	$(MAKE) bench-gate

# test-names fails when a -run or -fuzz pattern in this Makefile names a
# test that no longer exists. See scripts/check-test-names.sh.
test-names:
	sh scripts/check-test-names.sh

# perfbench-test runs the repo benchmark's own package test. perfbench is
# a separate Go module, so the root `go test ./...` skips it; its test
# checks that every workload runs clean, that fleet bytes equal solo,
# and that digests and counts repeat from run to run.
perfbench-test:
	cd perfbench && $(GO) test ./...

# bench-gate runs the gated micro-benchmarks of a base revision and of
# the working tree in seven paired, alternating rounds on this host, and
# fails when a benchmark's median working-tree/base ns/op ratio exceeds
# 1.5 or its allocs/op leave zero. The base is HEAD while the working
# tree differs from it (changed or untracked files) and HEAD~1 when it is
# clean, so a committed change is gated against its parent, not against
# itself. It takes about a minute and a half.
bench-gate:
	@if [ -n "$$(git status --porcelain)" ]; then base=HEAD; else base=HEAD~1; fi; \
	echo "bench-gate: gating the working tree against $$base ($$(git rev-parse --short $$base))"; \
	$(GO) run ./cmd/bench -gate-base $$base

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

# Performance report: the gated micro-benchmarks of bench_test.go
# (annotation, replay, engine, gang dispatch at K=1/4/16/32/64, Table 5's
# in-order gang, the cycle-simulator gang, the SMT policy scheduler) and
# the uncached / in-heap-cached / memory-mapped Figure 4+5+6 sweeps.
# `make bench` is the quick loop; `make bench-full` writes the next
# committed record, BENCH_{N+1}.json at paper scale where BENCH_N.json
# is the highest existing one, and `make bench-compare` additionally
# prints deltas against BENCH_N.json.
BENCH_LAST = $(or $(shell ls BENCH_*.json 2>/dev/null | sed 's/[^0-9]//g' | sort -n | tail -n 1),0)
BENCH_NEXT = $(shell expr $(BENCH_LAST) + 1)

bench:
	$(GO) run ./cmd/bench -scale quick -out /tmp/bench_quick.json

bench-full:
	$(GO) run ./cmd/bench -scale default -out BENCH_$(BENCH_NEXT).json

bench-compare:
	$(GO) run ./cmd/bench -scale default -out BENCH_$(BENCH_NEXT).json -compare BENCH_$(BENCH_LAST).json

# profile writes CPU and heap profiles for the engine hot loop, the SoA
# gang stepper at K=16, the annotation pass (each with construction off
# the clock) and the cycle-simulator gang into profiles/. Inspect with
# e.g.
#   go tool pprof -http=:8080 profiles/gang-soa.cpu.prof   # flamegraph view
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkMLPsimEngine$$' -benchtime 5s \
		-cpuprofile profiles/engine.cpu.prof -memprofile profiles/engine.mem.prof .
	$(GO) test -run '^$$' -bench 'BenchmarkGangSweepK16$$' -benchtime 5s \
		-cpuprofile profiles/gang-soa.cpu.prof -memprofile profiles/gang-soa.mem.prof .
	$(GO) test -run '^$$' -bench 'BenchmarkAnnotateStream$$' -benchtime 5s \
		-cpuprofile profiles/annotate.cpu.prof -memprofile profiles/annotate.mem.prof .
	$(GO) test -run '^$$' -bench 'BenchmarkCycleSimGang$$' -benchtime 5s \
		-cpuprofile profiles/cyclesim.cpu.prof -memprofile profiles/cyclesim.mem.prof .
	rm -f mlpsim.test

fuzz:
	$(GO) test ./internal/trace -fuzz '^FuzzRoundTrip$$' -fuzztime 30s
	$(GO) test ./internal/trace -fuzz '^FuzzDecoder$$' -fuzztime 30s
	# A new spill input is minimized byte by byte at about 0.3 ms a run;
	# a 1s cap keeps minimization from taking most of the 30s.
	$(GO) test ./internal/atrace -run '^$$' -fuzz '^FuzzOpenSpill$$' -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/storeset -fuzz FuzzStoreSetUpdate -fuzztime 30s
	$(GO) test ./internal/server -fuzz FuzzParsePoints -fuzztime 30s
	# Each gang input runs several engines, so the default 60s minimization
	# of a new input would take the whole run; 1s keeps the 30s going to
	# mutation, not minimization.
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzGangMatchesEngine$$' -fuzztime 30s -fuzzminimizetime 1s
	# The cycle-simulator timer against the stepping pipeline it replaces.
	$(GO) test ./internal/cyclesim -run '^$$' -fuzz '^FuzzTimerMatchesStepper$$' -fuzztime 30s -fuzzminimizetime 1s

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
