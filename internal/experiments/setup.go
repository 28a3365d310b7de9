// Package experiments reproduces every table and figure of the paper's
// evaluation (§2.2, §2.3, §5): one runner per exhibit, each returning
// typed rows plus a textual rendering in the paper's layout.
//
// All runners are deterministic for a fixed Setup: the annotated stream
// for a given (workload, annotation config, warmup, measure) is derived
// purely from the workload seed, so MLPsim and the cycle simulator always
// see identical miss and misprediction streams. With Setup.Cache set the
// stream is annotated once and replayed for every engine configuration;
// without it every run regenerates and re-annotates from the seed. Both
// paths are bit-identical.
package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/smt"
	"mlpsim/internal/workload"
)

// Setup fixes the workloads and run lengths for a batch of experiments.
type Setup struct {
	// Seed drives workload generation.
	Seed int64
	// Warmup instructions train caches and predictors before measurement.
	Warmup int64
	// Measure instructions are simulated for statistics.
	Measure int64
	// Workloads are the traced applications, in the paper's order
	// (database, SPECjbb2000, SPECweb99).
	Workloads []workload.Config
	// Parallelism bounds concurrent simulator runs (0 = GOMAXPROCS).
	Parallelism int
	// Cache, when non-nil, shares one annotation pass per
	// (workload, annotation config, warmup, measure) across every engine
	// run. The annotated stream is identical for all engine
	// configurations, so results are bit-identical to the direct path
	// (see TestCachedPathMatchesDirect); nil re-annotates on every run.
	Cache *atrace.Cache
	// Ctx, when non-nil, cancels a sweep early: forEach stops handing out
	// new points once Ctx is done, lets in-flight runs finish, and drains
	// its worker pool. A cancelled sweep returns partial rows; callers
	// that care (e.g. the HTTP server) must check Ctx.Err() and discard
	// the result. Nil means run to completion.
	Ctx context.Context
	// GangSize controls how RunMLPsimBatch and RunCycleSimBatch gang
	// sweep points that share an annotated stream (same workload,
	// annotation config, warmup and measure): 0 batches each
	// shared-stream group into just enough gangs to keep every worker
	// busy, 1 = one config per gang, and N >= 2 caps gangs at N
	// configs. Results are bit-identical across all settings; only
	// wall-clock changes. Parallelism bounds concurrent gangs and trace
	// fetches, not points.
	GangSize int
	// GangStats, when non-nil, accumulates gang occupancy counters
	// across sweeps (the daemon exports them on /metrics).
	GangStats *GangStats
	// DepStats, when non-nil, accumulates memory-dependence speculation
	// counters across every engine run (the daemon exports them on
	// /metrics).
	DepStats *DepStats
	// SMTSched, when non-nil, accumulates scheduled-SMT fetch-policy
	// counters across ext-smtsched sweeps (the daemon exports them on
	// /metrics).
	SMTSched *SMTSchedStats
	// Memo, when non-nil, answers sweep points that already ran — in an
	// earlier exhibit or earlier in this one — without running them
	// again (see PointMemo). Results are bit-identical either way; nil
	// runs every point.
	Memo *PointMemo
}

// SMTSchedStats accumulates scheduled-SMT policy counters across
// sweeps. Safe for concurrent use; the zero value is ready.
type SMTSchedStats struct {
	// Runs counts scheduled policy replays; Switches the fetch grants
	// that moved between threads; Bursts the issued miss bursts;
	// Overlapped the bursts issued while another was in flight;
	// FloorPicks the mlp-aware anti-starvation overrides.
	Runs       atomic.Uint64
	Switches   atomic.Uint64
	Bursts     atomic.Uint64
	Overlapped atomic.Uint64
	FloorPicks atomic.Uint64
}

// noteSMTSched folds one scheduled run into the accumulated counters.
func (s Setup) noteSMTSched(r smt.SchedResult) {
	if s.SMTSched == nil {
		return
	}
	s.SMTSched.Runs.Add(1)
	s.SMTSched.Switches.Add(r.Switches)
	s.SMTSched.Bursts.Add(r.Bursts)
	s.SMTSched.Overlapped.Add(r.Overlapped)
	s.SMTSched.FloorPicks.Add(r.FloorPicks)
}

// DepStats accumulates memory-dependence speculation counters across
// sweeps. Safe for concurrent use; the zero value is ready.
type DepStats struct {
	// Mispredicts counts store-set dependence mispredictions: loads that
	// issued past a store they depended on and paid a recovery flush.
	Mispredicts atomic.Uint64
	// Serializes counts loads a non-oracle disambiguation mode needlessly
	// held behind stores they did not depend on.
	Serializes atomic.Uint64
}

// noteDepStats folds one engine result into the accumulated counters.
func (s Setup) noteDepStats(res core.Result) {
	if s.DepStats == nil {
		return
	}
	s.DepStats.Mispredicts.Add(res.DepMispredicts)
	s.DepStats.Serializes.Add(res.DepSerializes)
}

// Context returns the sweep's cancellation context, never nil.
func (s Setup) Context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// Default returns the full-size setup used by cmd/experiments: the paper
// uses 50M warm-up + 100M measured instructions; the synthetic workloads
// are stationary by construction, so 2M + 8M reproduces the same
// statistics (see the stability test).
func Default(seed int64) Setup {
	return Setup{
		Seed:      seed,
		Warmup:    2_000_000,
		Measure:   8_000_000,
		Workloads: workload.Presets(seed),
		Cache:     atrace.NewCache(),
	}
}

// Quick returns a reduced setup for tests and benchmarks.
func Quick(seed int64) Setup {
	return Setup{
		Seed:      seed,
		Warmup:    300_000,
		Measure:   1_000_000,
		Workloads: workload.Presets(seed),
		Cache:     atrace.NewCache(),
	}
}

// directAnnotator builds and warms a fresh annotator for one run.
func (s Setup) directAnnotator(w workload.Config, acfg annotate.Config) *annotate.Annotator {
	a := annotate.New(workload.MustNew(w), acfg)
	a.Warm(s.Warmup)
	return a
}

// cachedStream returns the shared annotated trace for (w, acfg) when the
// configuration is cacheable, annotating at most once per key.
func (s Setup) cachedStream(w workload.Config, acfg annotate.Config) (*atrace.Stream, bool) {
	if s.Cache == nil {
		return nil, false
	}
	akey, fresh, ok := atrace.ConfigKey(acfg)
	if !ok {
		return nil, false
	}
	key := atrace.Key{Workload: w, Annot: akey, Warmup: s.Warmup, Measure: s.Measure}
	st := s.Cache.GetTrace(key, atrace.BuildSpec{
		Warmup:  s.Warmup,
		Measure: s.Measure,
		NewAnnotator: func() *annotate.Annotator {
			return annotate.New(workload.MustNew(w), fresh())
		},
	})
	return st, true
}

// annotatedSource yields the instruction stream for one engine run:
// a zero-allocation replay of the cached trace when possible, otherwise
// a fresh annotator.
func (s Setup) annotatedSource(w workload.Config, acfg annotate.Config) core.AnnotatedSource {
	if st, ok := s.cachedStream(w, acfg); ok {
		return st.Source()
	}
	return s.directAnnotator(w, acfg)
}

// AnnotateStats returns the annotator statistics over the measurement
// window for (w, acfg), served from the shared cache when possible.
func (s Setup) AnnotateStats(w workload.Config, acfg annotate.Config) annotate.Stats {
	if st, ok := s.cachedStream(w, acfg); ok {
		return st.Stats()
	}
	a := s.directAnnotator(w, acfg)
	a.Collect(s.Measure)
	return a.Stats()
}

// PrefetchStats returns the instruction- and data-prefetcher statistics
// for (w, acfg). When the configuration is cacheable the stats are served
// from the shared stream's metadata (the prefetchers ran once, inside the
// annotation pass that built the stream); otherwise — untracked prefetcher
// types, already-trained instances, or no cache — the caller's instances
// carry the statistics themselves, trained by the direct run. The two
// dispatch arms are mutually exclusive by construction: a trained instance
// makes atrace.ConfigKey refuse the key, which is also what forces
// RunMLPsim down the direct path. Zero stats are returned for absent
// prefetchers.
func (s Setup) PrefetchStats(w workload.Config, acfg annotate.Config) (ipf, dpf prefetch.Stats) {
	if st, ok := s.cachedStream(w, acfg); ok {
		ipf, _ = st.IPrefetchStats()
		dpf, _ = st.DPrefetchStats()
		return ipf, dpf
	}
	if p := acfg.IPrefetch; p != nil {
		ipf = p.Stats()
	}
	if p := acfg.DPrefetch; p != nil {
		dpf = p.Stats()
	}
	return ipf, dpf
}

// RunMLPsim generates, annotates and runs one MLPsim configuration,
// or answers it from s.Memo: a batch of one point.
func (s Setup) RunMLPsim(w workload.Config, cfg core.Config, acfg annotate.Config) core.Result {
	return s.RunMLPsimBatch([]MLPPoint{{Workload: w, Config: cfg, Annot: acfg}})[0]
}

// RunCycleSim generates, annotates and runs one cycle-simulator
// configuration, or answers it from s.Memo: a batch of one point.
func (s Setup) RunCycleSim(w workload.Config, cfg cyclesim.Config, acfg annotate.Config) cyclesim.Result {
	return s.RunCycleSimBatch([]CyclePoint{{Workload: w, Config: cfg, Annot: acfg}})[0]
}

// CyclePoint is one cycle-simulator sweep point: a workload, a pipeline
// configuration and an annotation configuration.
type CyclePoint struct {
	Workload workload.Config
	Config   cyclesim.Config
	Annot    annotate.Config
}

// cycleKey is memoKey for one cycle-simulator point run to s.Measure.
func (s Setup) cycleKey(p CyclePoint) (pointKey, bool) {
	p.Config.MaxInstructions = s.Measure
	return s.memoKey("cyclesim", p.Workload, p.Annot, p.Config)
}

// RunCycleSimBatch runs every point to s.Measure instructions and
// returns results in point order. The batch checks s.Memo first; the
// points it does not hold are planned and dispatched like an MLPsim
// sweep (runGangs: grouped by shared annotated stream, chunked by
// GangSize or the worker count, traces fetched ahead of the gangs) and
// each group runs as one cyclesim.RunGang — one decode and bind, one
// pipeline per point — with Parallelism bounding concurrent tasks.
// Results are bit-identical to one lone simulation per point.
func (s Setup) RunCycleSimBatch(points []CyclePoint) []cyclesim.Result {
	results := make([]cyclesim.Result, len(points))
	var todo []int
	for i, p := range points {
		if k, ok := s.cycleKey(p); ok {
			if res, hit := s.Memo.get(k); hit {
				results[i] = res.(cyclesim.Result)
				continue
			}
		}
		todo = append(todo, i)
	}
	stream := func(i int) (workload.Config, annotate.Config) { return points[i].Workload, points[i].Annot }
	s.runGangs(todo, stream, func(idxs []int, src core.AnnotatedSource) {
		cfgs := make([]cyclesim.Config, len(idxs))
		for k, pi := range idxs {
			cfgs[k] = points[pi].Config
			cfgs[k].MaxInstructions = s.Measure
		}
		rs := cyclesim.RunGang(src, cfgs)
		for k, pi := range idxs {
			results[pi] = rs[k]
			if key, ok := s.cycleKey(points[pi]); ok {
				s.Memo.put(key, rs[k])
			}
		}
	})
	return results
}

// parallelism resolves the worker count.
func (s Setup) parallelism() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for i in [0, n) with bounded parallelism. When the
// Setup carries a context, cancellation stops the dispatch of further
// points; runs already in flight complete and the worker pool always
// drains before forEach returns, so a cancelled sweep never leaks
// goroutines (see TestCancelMidSweepDrains).
func (s Setup) forEach(n int, fn func(i int)) {
	done := s.Context().Done()
	workers := s.parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return
			default:
			}
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
}
