package core

import (
	"math/rand"
	"runtime"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
)

// replayStream builds an annotated-trace stream from a random
// instruction mix, with value-prediction and store-set outcomes, so the
// engine runs against the real replay decoder (the production fetch
// path).
func replayStream(n int) *atrace.Stream {
	rng := rand.New(rand.NewSource(1234))
	insts := randomStream(rng, n, 0.05, 0.01, 0.04, 0.02)
	sprinkleVP(rng, insts)
	sprinkleDeps(rng, insts)
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
// behind BENCH_5 for every config kind an engine runs: with the ring and
// per-slot state preallocated from the Config window bounds,
// replay-driven Run is exactly 0 allocs per op in steady state — engine
// construction excluded — and the heap profile attributes no object and
// no byte to Run.
func TestEngineRunZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	st := replayStream(200_000)
	with := func(edit func(*Config)) Config {
		c := Default()
		edit(&c)
		return c
	}
	configs := []Config{
		Default(),
		Default().WithWindow(256).WithIssue(ConfigA),
		with(func(c *Config) { c.Runahead, c.MaxRunahead = true, 512 }),
		with(func(c *Config) { c.Mode = InOrderStallOnUse }),
		with(func(c *Config) { c.Mode = InOrderStallOnMiss }),
		with(func(c *Config) { c.ValuePredict = true }),
		with(func(c *Config) { c.PerfectVP = true }),
		with(func(c *Config) { c.Disamb = DisambStoreSets }),
		with(func(c *Config) { c.Disamb = DisambConservative }),
		with(func(c *Config) { c.MSHRs = 2 }),
		with(func(c *Config) { c.Issue, c.StoreBuffer = ConfigB, 2 }),
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
// config vectors cover K=1, plain configs, every config kind the
// stepper gates separately — runahead, finite MSHR files and store
// buffers, perfect and realistic value prediction, both in-order
// disciplines, store-set and conservative disambiguation — and a gang
// mixing them. Only an epoch observer allocates: each epoch hands it
// fresh index lists.
func TestRunGangZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	st := replayStream(200_000)
	inorder := func(mode WindowMode) Config {
		c := Default()
		c.Mode = mode
		return c
	}
	runahead := Default().WithIssue(ConfigD).WithRunahead()
	runaheadMSHR := runahead
	runaheadMSHR.MSHRs = 4
	mshr := Default()
	mshr.MSHRs = 2
	perfVP := Default().WithIssue(ConfigD).WithROB(256)
	perfVP.PerfectVP = true
	vp := Default().WithWindow(128)
	vp.ValuePredict = true
	storeBuf := Default().WithIssue(ConfigB)
	storeBuf.StoreBuffer = 2
	disamb := func(mode DisambMode) Config {
		c := Default()
		c.Disamb = mode
		return c
	}
	vectors := map[string][]Config{
		"k1":         {Default()},
		"k1-inorder": {inorder(InOrderStallOnUse)},
		"plain": {
			Default(),
			Default().WithWindow(32),
			Default().WithWindow(128).WithIssue(ConfigA),
		},
		"widened": {runahead, runaheadMSHR, mshr, perfVP, storeBuf},
		"kinds": {
			inorder(InOrderStallOnMiss), inorder(InOrderStallOnUse), vp,
			disamb(DisambStoreSets), disamb(DisambConservative),
		},
		"mixed": {
			Default(),
			inorder(InOrderStallOnUse),
			vp,
			disamb(DisambStoreSets),
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
