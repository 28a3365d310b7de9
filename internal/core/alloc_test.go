package core

import (
	"math/rand"
	"runtime"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
)

// replayStream builds an annotated-trace stream from a random
// instruction mix so the engine runs against the real replay decoder
// (the production fetch path).
func replayStream(n int) *atrace.Stream {
	rng := rand.New(rand.NewSource(1234))
	insts := randomStream(rng, n, 0.05, 0.01, 0.04, 0.02)
	b := atrace.NewBuilder(6, int64(n))
	for i := range insts {
		b.Append(insts[i])
	}
	return b.Finish(annotate.Stats{})
}

// profiledAllocs returns the objects and bytes the heap profile
// attributes to stacks passing through the function named fn, as of a
// fresh GC (which publishes every allocation made before it).
func profiledAllocs(fn string) (objects, bytes int64) {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	recs = recs[:n]
	for i := range recs {
		r := &recs[i]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == fn {
				objects += r.AllocObjects
				bytes += r.AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return objects, bytes
}

// runAllocs benchmarks body and returns its allocs/op plus the objects
// and bytes allocated under the function fn (a fully qualified name,
// e.g. "mlpsim/internal/core.(*Engine).Run") while it ran. allocs/op is
// process-wide; the attributed counts are not: with MemProfileRate 1
// the heap profile records every allocation with its stack, so
// allocations the runtime makes for itself meanwhile (new Ms, GC
// workers, the scavenger) count against nothing, while a single
// allocation inside fn — even one that allocs/op's integer division
// would round away — is reported.
func runAllocs(fn string, body func(b *testing.B)) (allocsPerOp, objects, bytes int64) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	objects0, bytes0 := profiledAllocs(fn)
	r := testing.Benchmark(body)
	objects1, bytes1 := profiledAllocs(fn)
	return r.AllocsPerOp(), objects1 - objects0, bytes1 - bytes0
}

// TestEngineRunZeroAllocSteadyState asserts the satellite guarantee
// behind BENCH_5: with the slot ring and pending buffer preallocated
// from the Config window bounds, replay-driven Run is exactly 0 allocs
// per op in steady state — engine construction excluded — and the heap
// profile attributes no object and no byte to Run.
func TestEngineRunZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	st := replayStream(200_000)
	configs := []Config{
		Default(),
		Default().WithWindow(256).WithIssue(ConfigA),
		func() Config {
			c := Default()
			c.Runahead, c.MaxRunahead = true, 512
			return c
		}(),
		func() Config {
			c := Default()
			c.Mode = InOrderStallOnUse
			return c
		}(),
	}
	for _, cfg := range configs {
		cfg := cfg
		a, objects, bytes := runAllocs("mlpsim/internal/core.(*Engine).Run", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := NewEngine(st.Replay(), cfg)
				b.StartTimer()
				e.Run()
			}
		})
		if a != 0 || objects != 0 || bytes != 0 {
			t.Errorf("%s: Run = %d allocs/op, %d objects and %d B under Run; want exactly 0/0/0", cfg.Name(), a, objects, bytes)
		}
	}
}

// TestRunGangZeroAllocSteadyState extends the guarantee to the gang
// path: once NewGang has built the ring and engines, Run allocates
// nothing, by allocs/op and by the heap profile (ring growth aside,
// which the min-position schedule avoids on miss-bearing streams). The
// config vectors cover K=1 (the BENCH_5 residual), the pure SoA fast
// path for plain configs and for runahead, finite MSHR files, perfect
// value prediction and finite store buffers, the pure scalar fallback,
// and a mixed gang where both ride one ring.
func TestRunGangZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	st := replayStream(200_000)
	inorder := Default()
	inorder.Mode = InOrderStallOnUse
	runahead := Default().WithIssue(ConfigD).WithRunahead()
	runaheadMSHR := runahead
	runaheadMSHR.MSHRs = 4
	mshr := Default()
	mshr.MSHRs = 2
	perfVP := Default().WithIssue(ConfigD).WithROB(256)
	perfVP.PerfectVP = true
	storeBuf := Default().WithIssue(ConfigB)
	storeBuf.StoreBuffer = 2
	widened := []Config{runahead, runaheadMSHR, mshr, perfVP, storeBuf}
	for _, cfg := range widened {
		if !SoAEligible(cfg) {
			t.Fatalf("%s is not SoA-eligible", cfg.Name())
		}
	}
	vectors := map[string][]Config{
		"k1-soa":    {Default()},
		"k1-scalar": {inorder},
		"soa": {
			Default(),
			Default().WithWindow(32),
			Default().WithWindow(128).WithIssue(ConfigA),
		},
		"soa-widened": widened,
		"mixed": {
			Default(),
			inorder,
			Default().WithWindow(64).WithIssue(ConfigE),
		},
	}
	for name, cfgs := range vectors {
		cfgs := cfgs
		a, objects, bytes := runAllocs("mlpsim/internal/core.(*Gang).Run", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := NewGang(st.Replay(), cfgs)
				b.StartTimer()
				g.Run()
			}
		})
		if a != 0 || objects != 0 || bytes != 0 {
			t.Errorf("%s: Gang.Run = %d allocs/op, %d objects and %d B under Gang.Run; want exactly 0/0/0", name, a, objects, bytes)
		}
	}
}
