package smt

import (
	"math/rand"
	"testing"
)

// syntheticTraces builds the same shape of per-thread epoch traces the
// root package's BenchmarkSMTSchedule replays.
func syntheticTraces(k, epochs int, seed int64) [][]EpochRec {
	rng := rand.New(rand.NewSource(seed))
	traces := make([][]EpochRec, k)
	for t := range traces {
		traces[t] = make([]EpochRec, epochs)
		for i := range traces[t] {
			traces[t][i] = EpochRec{
				Insts:     1 + rng.Int63n(200),
				Accesses:  uint64(rng.Intn(6)),
				Unretired: rng.Int63n(128),
			}
		}
	}
	return traces
}

// TestSchedulerZeroAllocSteadyState pins the satellite claim: after the
// first replay warms the Scheduler's buffers, a Schedule call allocates
// nothing under any policy. The package-level Schedule wrapper is the
// allocating form (fresh Scheduler + cloned Shares) and is not asserted
// here.
func TestSchedulerZeroAllocSteadyState(t *testing.T) {
	traces := syntheticTraces(4, 500, 9)
	sc := NewScheduler()
	for _, pol := range PolicyNames() {
		pol := pol
		// Warm once so grow-only buffers reach steady state, then assert.
		sc.Schedule(traces, pol, 64, 512, 0.125)
		allocs := testing.AllocsPerRun(5, func() {
			sc.Schedule(traces, pol, 64, 512, 0.125)
		})
		if allocs != 0 {
			t.Errorf("policy %s: %v allocs/op in steady state, want 0", pol, allocs)
		}
	}
}

// TestSchedulerMatchesSchedule pins the reusing form bit-identical to
// the package-level function across policies and thread counts,
// including reuse of one Scheduler across differently-shaped replays.
func TestSchedulerMatchesSchedule(t *testing.T) {
	sc := NewScheduler()
	for _, k := range []int{1, 2, 4, 8} {
		traces := syntheticTraces(k, 300, int64(10+k))
		for _, pol := range PolicyNames() {
			want := Schedule(traces, pol, 64, 512, 0.125)
			got := sc.Schedule(traces, pol, 64, 512, 0.125)
			if got.AggMLP != want.AggMLP || got.MachineEpochs != want.MachineEpochs ||
				got.Switches != want.Switches || got.Bursts != want.Bursts ||
				got.Overlapped != want.Overlapped || got.FloorPicks != want.FloorPicks ||
				got.MinShare != want.MinShare || got.MaxShare != want.MaxShare ||
				got.CombinedLower != want.CombinedLower || got.CombinedUpper != want.CombinedUpper {
				t.Fatalf("k=%d policy %s: Scheduler.Schedule diverged:\n got %+v\nwant %+v", k, pol, got, want)
			}
			if len(got.Shares) != len(want.Shares) {
				t.Fatalf("k=%d policy %s: shares length %d != %d", k, pol, len(got.Shares), len(want.Shares))
			}
			for i := range got.Shares {
				if got.Shares[i] != want.Shares[i] {
					t.Fatalf("k=%d policy %s: share[%d] %v != %v", k, pol, i, got.Shares[i], want.Shares[i])
				}
			}
		}
	}
}
