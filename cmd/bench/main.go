// Command bench tracks the simulator's performance trajectory: it runs
// the annotator/replay/engine/gang micro-benchmarks (the cycle
// simulator's gang included), the Figure 4+5+6 sweep three ways —
// uncached, with the in-heap annotated-trace cache, and replaying
// memory-mapped spills from a warm on-disk cache — a
// sequential-vs-gang-dispatch comparison of the Figure 4 sweep, the
// ext-storesets memory disambiguation sweep (bracketing check plus
// dep-event totals), and the ext-smtsched scheduled-SMT policy sweep
// (every policy's aggregate MLP checked against its point's combined
// bounds), and a peer-mode shard sweep — figure4 answered by a
// 3-replica in-process fleet through a coordinator that owns none of
// the points, byte-compared against a solo daemon — then writes a JSON
// report with ns/op, wall times, peak Go-heap occupancy and headline
// MLP metrics.
//
// With -compare and -gate-pct the command doubles as a regression gate:
// it exits non-zero when any micro-benchmark's ns/op or a sweep heap
// peak grew more than the threshold over the baseline report. Setting
// MLPSIM_BENCH_GATE=off turns the gate into a report-only comparison.
//
// Usage:
//
//	go run ./cmd/bench -scale quick -out /tmp/bench.json
//	go run ./cmd/bench -scale default                    # the acceptance-criteria run
//	go run ./cmd/bench -scale default -compare BENCH_3.json
//	go run ./cmd/bench -scale quick -skip-sweep -compare BENCH_BASELINE.json -gate-pct 50
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/experiments"
	"mlpsim/internal/server"
	"mlpsim/internal/smt"
	"mlpsim/internal/workload"
	"testing"
)

type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type sweepResult struct {
	Exhibits        []string `json:"exhibits"`
	UncachedSeconds float64  `json:"uncached_seconds"`
	CachedSeconds   float64  `json:"cached_seconds"`
	Speedup         float64  `json:"speedup"`
	Identical       bool     `json:"results_identical"`
	CacheBuilds     uint64   `json:"cache_builds"`
	CacheHits       uint64   `json:"cache_hits"`
	CacheBytes      int64    `json:"cache_bytes"`

	// In-heap cached sweep peak Go-heap occupancy (sampled HeapAlloc).
	CachedHeapPeakBytes int64 `json:"cached_heap_peak_bytes"`
	// Warm-disk-cache sweep: every stream is a view over a memory-mapped
	// spill, so the columns live in the OS page cache, not the heap.
	MappedSeconds       float64 `json:"mapped_seconds"`
	MappedHeapPeakBytes int64   `json:"mapped_heap_peak_bytes"`
	MappedIdentical     bool    `json:"mapped_results_identical"`
	MappedDiskHits      uint64  `json:"mapped_disk_hits"`
	// HeapDropRatio is cached_heap_peak / mapped_heap_peak — the memory
	// win of replaying spills from the page cache.
	HeapDropRatio float64 `json:"heap_drop_ratio"`
}

// gangSweepResult records the sequential-vs-gang dispatch comparison of
// one multi-config sweep. Both sides replay the same warm annotated-trace
// cache, so the delta is pure per-point work: one decode plus dependence
// binding per gang versus one per point.
type gangSweepResult struct {
	Exhibit           string  `json:"exhibit"`
	Points            int     `json:"points"`
	Gangs             uint64  `json:"gangs"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	GangSeconds       float64 `json:"gang_seconds"`
	Speedup           float64 `json:"speedup"`
	Identical         bool    `json:"results_identical"`
}

// storeSetsResult records the ext-storesets disambiguation sweep:
// oracle and always-conservative bound runs plus the store-set
// predictor grid across all workloads. Bracketed asserts the physical
// invariant — every store-set point's MLP lies between its workload's
// conservative (lower) and oracle (upper) bounds — and the dep-event
// totals pin the predictor's behaviour across report generations.
type storeSetsResult struct {
	Rows           int     `json:"rows"`
	Seconds        float64 `json:"seconds"`
	DepMispredicts uint64  `json:"dep_mispredicts"`
	DepSerializes  uint64  `json:"dep_serializes"`
	Bracketed      bool    `json:"bracketed"`
}

// smtSchedResult records the ext-smtsched scheduled-SMT policy sweep.
// Bracketed asserts the exhibit's physical invariant — every policy's
// aggregate MLP lies inside its point's [CombinedLower, CombinedUpper]
// bracket — and the scheduler-event totals pin policy behaviour across
// report generations.
type smtSchedResult struct {
	Rows       int     `json:"rows"`
	Seconds    float64 `json:"seconds"`
	Switches   uint64  `json:"switches"`
	Bursts     uint64  `json:"bursts"`
	Overlapped uint64  `json:"overlapped"`
	FloorPicks uint64  `json:"floor_picks"`
	Bracketed  bool    `json:"bracketed"`
}

// shardSweepResult records the peer-mode fleet comparison: an
// in-process fleet of replicas plus a coordinator-only observer (on
// nobody's hash ring, so it owns zero points) answers one exhibit over
// HTTP, byte-compared in every format against a solo daemon.
// Identical is the correctness invariant; the fetched/served totals
// prove the observer's answer really was assembled from peer shards
// rather than silent local fallback.
type shardSweepResult struct {
	Exhibit       string  `json:"exhibit"`
	Replicas      int     `json:"replicas"`
	SoloSeconds   float64 `json:"solo_seconds"`
	FleetSeconds  float64 `json:"fleet_seconds"`
	PointsFetched uint64  `json:"points_fetched"`
	PointsServed  uint64  `json:"points_served"`
	FetchErrors   uint64  `json:"fetch_errors"`
	Identical     bool    `json:"results_identical"`
}

type report struct {
	Schema     string                 `json:"schema"`
	Scale      string                 `json:"scale"`
	Seed       int64                  `json:"seed"`
	Warmup     int64                  `json:"warmup"`
	Measure    int64                  `json:"measure"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
	Sweep      *sweepResult           `json:"sweep,omitempty"`
	GangSweep  *gangSweepResult       `json:"gang_sweep,omitempty"`
	StoreSets  *storeSetsResult       `json:"store_sets,omitempty"`
	SMTSched   *smtSchedResult        `json:"smt_sched,omitempty"`
	ShardSweep *shardSweepResult      `json:"shard_sweep,omitempty"`
	MLP        map[string]float64     `json:"mlp"`
}

// heapSampler tracks peak HeapAlloc on a background goroutine. A GC runs
// at start so the peak reflects the phase being measured, not garbage
// left over from the previous one.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		var ms runtime.MemStats
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > h.peak {
					h.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak, folding in one final reading.
func (h *heapSampler) Stop() int64 {
	close(h.stop)
	<-h.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
	return int64(h.peak)
}

func toResult(r testing.BenchmarkResult) benchResult {
	return benchResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func microBenchmarks(w workload.Config) map[string]benchResult {
	out := make(map[string]benchResult)

	out["AnnotateStream"] = toResult(testing.Benchmark(func(b *testing.B) {
		a := annotate.New(workload.MustNew(w), annotate.Config{})
		a.Warm(100_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := a.Next(); !ok {
				b.Fatal("stream ended")
			}
		}
	}))

	a := annotate.New(workload.MustNew(w), annotate.Config{})
	a.Warm(100_000)
	s := atrace.Capture(a, 1_000_000)
	out["ReplayStream"] = toResult(testing.Benchmark(func(b *testing.B) {
		r := s.Replay()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Next(); !ok {
				r = s.Replay()
			}
		}
	}))

	out["MLPsimEngine"] = toResult(testing.Benchmark(func(b *testing.B) {
		cfg := core.Default()
		b.ReportAllocs()
		b.ResetTimer()
		// One op = one instruction through the engine; restart the replay
		// whenever b.N exceeds the captured stream. Engine construction
		// happens off the clock so the numbers are steady-state: the hot
		// loop itself is zero-allocation.
		for remaining := int64(b.N); remaining > 0; {
			n := s.Len()
			if remaining < n {
				n = remaining
			}
			cfg.MaxInstructions = n
			b.StopTimer()
			e := core.NewEngine(s.Replay(), cfg)
			b.StartTimer()
			e.Run()
			remaining -= n
		}
	}))

	// Gang dispatch at K = 1..64 engines over one shared decode. One op
	// = one config·instruction, so ns/op falling with K is the win: the
	// per-instruction decode+bind cost amortizes across the gang, and
	// from K=16 up the SoA stepper's scaling (shared ring columns, no
	// per-engine instruction copies) carries the curve. Gang
	// construction happens off the clock — like MLPsimEngine above — so
	// every K reports the exact-zero steady-state allocation the core
	// asserts in its tests.
	for _, k := range []int{1, 4, 16, 32, 64} {
		k := k
		out[fmt.Sprintf("GangSweepK%d", k)] = toResult(testing.Benchmark(func(b *testing.B) {
			cfgs := gangConfigs(k)
			b.ReportAllocs()
			b.ResetTimer()
			for remaining := int64(b.N); remaining > 0; {
				n := s.Len()
				if per := (remaining + int64(k) - 1) / int64(k); per < n {
					n = per
				}
				b.StopTimer()
				run := make([]core.Config, k)
				for i := range cfgs {
					run[i] = cfgs[i]
					run[i].MaxInstructions = n
				}
				g := core.NewGang(s.Replay(), run)
				b.StartTimer()
				g.Run()
				remaining -= int64(k) * n
			}
		}))
	}
	// Table 3's cycle-simulator matrix for one workload: 27 pipelines
	// (windows x configurations A-C x penalties) over one decode. One op
	// = one config·instruction. Each gang's construction stays on the
	// clock; it is a few dozen allocations per gang of 27M ops, so the
	// steady state reports exactly zero allocations per op.
	out["CycleSimGang"] = toResult(testing.Benchmark(func(b *testing.B) {
		cfgs := experiments.Table3CycleConfigs()
		k := int64(len(cfgs))
		b.ReportAllocs()
		b.ResetTimer()
		for remaining := int64(b.N); remaining > 0; {
			n := min((remaining+k-1)/k, s.Len())
			for i := range cfgs {
				cfgs[i].MaxInstructions = n
			}
			cyclesim.RunGang(s.Replay(), cfgs)
			remaining -= k * n
		}
	}))
	// Pure policy replay over fixed synthetic per-thread epoch traces:
	// one op = one full Schedule pass (K=4 threads, 4k epochs each) under
	// the most stateful policy. The trace pre-pass is the annotator's
	// cost, already covered above; this pins the scheduler itself. The
	// reusable Scheduler is warmed before the clock starts, so steady
	// state is exactly zero allocations per pass — the gate treats any
	// return of per-op allocation here as a regression.
	out["SMTSchedule"] = toResult(testing.Benchmark(func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		traces := make([][]smt.EpochRec, 4)
		for t := range traces {
			traces[t] = make([]smt.EpochRec, 4000)
			for i := range traces[t] {
				traces[t][i] = smt.EpochRec{
					Insts:     1 + rng.Int63n(200),
					Accesses:  uint64(rng.Intn(6)),
					Unretired: rng.Int63n(128),
				}
			}
		}
		sched := smt.NewScheduler()
		sched.Schedule(traces, smt.PolicyMLPAware, 64, 512, 0.125)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched.Schedule(traces, smt.PolicyMLPAware, 64, 512, 0.125)
		}
	}))
	return out
}

// gangConfigs builds K distinct engine configurations cycling the
// Figure 4 axes (window size x issue policy).
func gangConfigs(k int) []core.Config {
	sizes := []int{16, 32, 64, 128, 256}
	issues := []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC, core.ConfigD, core.ConfigE}
	cfgs := make([]core.Config, k)
	for i := range cfgs {
		cfgs[i] = core.Default().
			WithWindow(sizes[i%len(sizes)]).
			WithIssue(issues[(i/len(sizes))%len(issues)])
	}
	return cfgs
}

// runSweep executes the Figure 4+5+6 sweep and returns elapsed time plus
// the Figure 4 results (for the equality check and MLP metrics).
func runSweep(s experiments.Setup) (time.Duration, experiments.Figure4, experiments.Figure6) {
	start := time.Now()
	f4 := experiments.RunFigure4(s)
	experiments.RunFigure5(s)
	f6 := experiments.RunFigure6(s)
	return time.Since(start), f4, f6
}

// runMappedSweep measures the warm-disk-cache configuration: one pass
// populates the spill directory, then a fresh cache re-runs the sweep
// with every stream served as a memory-mapped view of its spill.
func runMappedSweep(s experiments.Setup, dir string, sw *sweepResult, f4u experiments.Figure4) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "mlpsim-bench-cache-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: mapped sweep skipped: %v\n", err)
			return
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	warm := s
	warm.Cache = atrace.NewCache()
	warm.Cache.SetDir(dir)
	fmt.Fprintln(os.Stderr, "bench: warming the disk cache...")
	runSweep(warm)
	warm.Cache = nil

	mapped := s
	mapped.Cache = atrace.NewCache()
	mapped.Cache.SetDir(dir)
	fmt.Fprintln(os.Stderr, "bench: running Figure 4+5+6 sweep with WARM disk cache (memory-mapped)...")
	hs := startHeapSampler()
	dm, f4m, _ := runSweep(mapped)
	mappedPeak := hs.Stop()
	ms := mapped.Cache.Stats()

	sw.MappedSeconds = dm.Seconds()
	sw.MappedHeapPeakBytes = mappedPeak
	sw.MappedIdentical = sameCells(f4u, f4m)
	sw.MappedDiskHits = ms.DiskHits
	if mappedPeak > 0 {
		sw.HeapDropRatio = float64(sw.CachedHeapPeakBytes) / float64(mappedPeak)
	}
	fmt.Fprintf(os.Stderr, "bench: mapped sweep: %.1fs, heap peak %.1f MB (%.1fx below in-heap), disk hits %d, results identical: %v\n",
		dm.Seconds(), float64(mappedPeak)/(1<<20), sw.HeapDropRatio, ms.DiskHits, sw.MappedIdentical)
	if ms.Builds != 0 {
		fmt.Fprintf(os.Stderr, "bench: warning: warm sweep still performed %d annotation passes\n", ms.Builds)
	}
}

// runGangSweep times the Figure 4 sweep point-at-a-time (GangSize 1,
// one config per gang) and gang-dispatched (GangSize 0: every
// config sharing a workload's annotated stream steps in lock-step over
// one decode). A warm-up pass populates the in-heap trace cache first so
// both timed runs replay identical streams and the delta is pure
// dispatch cost.
func runGangSweep(s experiments.Setup) *gangSweepResult {
	s.Cache = atrace.NewCache()
	fmt.Fprintln(os.Stderr, "bench: gang sweep: warming the trace cache...")
	runSweepExhibit(s)

	seq := s
	seq.GangSize = 1
	fmt.Fprintln(os.Stderr, "bench: running figure4 point-at-a-time (one config per gang, warm cache)...")
	start := time.Now()
	f4s := runSweepExhibit(seq)
	ds := time.Since(start)

	gang := s
	gang.GangSize = 0
	gang.GangStats = &experiments.GangStats{}
	fmt.Fprintln(os.Stderr, "bench: running figure4 gang-dispatched (warm cache)...")
	start = time.Now()
	f4g := runSweepExhibit(gang)
	dg := time.Since(start)

	st := gang.GangStats
	g := &gangSweepResult{
		Exhibit:           "figure4",
		Points:            int(st.Configs.Load() + st.Solo.Load()),
		Gangs:             st.Gangs.Load(),
		SequentialSeconds: ds.Seconds(),
		GangSeconds:       dg.Seconds(),
		Speedup:           ds.Seconds() / dg.Seconds(),
		Identical:         sameCells(f4s, f4g),
	}
	fmt.Fprintf(os.Stderr, "bench: gang sweep: %d points in %d gangs, %.1fs -> %.1fs (%.2fx), results identical: %v\n",
		g.Points, g.Gangs, g.SequentialSeconds, g.GangSeconds, g.Speedup, g.Identical)
	return g
}

// runSweepExhibit runs the gang comparison's exhibit once.
func runSweepExhibit(s experiments.Setup) experiments.Figure4 {
	return experiments.RunFigure4(s)
}

// runStoreSets times the ext-storesets sweep, checks the bracketing
// invariant, and records per-workload MLP headline metrics (the bound
// rows plus the largest store-set geometry) into mlp for the CHANGED
// comparison.
func runStoreSets(s experiments.Setup, mlp map[string]float64) *storeSetsResult {
	s.DepStats = &experiments.DepStats{}
	fmt.Fprintln(os.Stderr, "bench: running ext-storesets disambiguation sweep...")
	start := time.Now()
	ext := experiments.RunExtStoreSets(s)
	d := time.Since(start)

	type bounds struct{ cons, oracle float64 }
	byWorkload := make(map[string]*bounds)
	for _, r := range ext.Rows {
		b := byWorkload[r.Workload]
		if b == nil {
			b = &bounds{}
			byWorkload[r.Workload] = b
		}
		switch r.Disamb {
		case core.DisambConservative.String():
			b.cons = r.MLP
			mlp[r.Workload+"/ss-cons"] = r.MLP
		case core.DisambOracle.String():
			b.oracle = r.MLP
		}
	}
	bigSSIT := maxStoreSetSSIT()
	bracketed := true
	for _, r := range ext.Rows {
		if r.Disamb != core.DisambStoreSets.String() {
			continue
		}
		b := byWorkload[r.Workload]
		const eps = 1e-9
		if r.MLP < b.cons-eps || r.MLP > b.oracle+eps {
			bracketed = false
			fmt.Fprintf(os.Stderr, "bench: warning: %s store-sets %d/%d/%d MLP %.4f outside [%.4f, %.4f]\n",
				r.Workload, r.SSIT, r.LFST, r.Conf, r.MLP, b.cons, b.oracle)
		}
		if r.SSIT == bigSSIT && r.Conf == 0 {
			mlp[fmt.Sprintf("%s/ss%dc0", r.Workload, r.SSIT)] = r.MLP
		}
	}

	res := &storeSetsResult{
		Rows:           len(ext.Rows),
		Seconds:        d.Seconds(),
		DepMispredicts: s.DepStats.Mispredicts.Load(),
		DepSerializes:  s.DepStats.Serializes.Load(),
		Bracketed:      bracketed,
	}
	fmt.Fprintf(os.Stderr, "bench: store-sets sweep: %d rows in %.1fs, %d mispredicts, %d serializes, bracketed: %v\n",
		res.Rows, res.Seconds, res.DepMispredicts, res.DepSerializes, res.Bracketed)
	return res
}

// runSMTSched times the ext-smtsched scheduled-SMT sweep, checks every
// policy row against its point's combined bounds, and records the
// heterogeneous-mix aggregate MLPs as headline metrics for the CHANGED
// comparison.
func runSMTSched(s experiments.Setup, mlp map[string]float64) *smtSchedResult {
	s.SMTSched = &experiments.SMTSchedStats{}
	fmt.Fprintln(os.Stderr, "bench: running ext-smtsched scheduled-SMT policy sweep...")
	start := time.Now()
	ext := experiments.RunExtSMTSched(s)
	d := time.Since(start)

	const eps = 1e-9
	bracketed := true
	for _, r := range ext.Rows {
		if r.AggMLP < r.CombinedLower-eps || r.AggMLP > r.CombinedUpper+eps {
			bracketed = false
			fmt.Fprintf(os.Stderr, "bench: warning: %s K=%d %s AggMLP %.4f outside [%.4f, %.4f]\n",
				r.Mix, r.Threads, r.Policy, r.AggMLP, r.CombinedLower, r.CombinedUpper)
		}
		if r.Mix == "hetero" {
			mlp[fmt.Sprintf("smt/%s%d/%s", r.Mix, r.Threads, r.Policy)] = r.AggMLP
		}
	}

	res := &smtSchedResult{
		Rows:       len(ext.Rows),
		Seconds:    d.Seconds(),
		Switches:   s.SMTSched.Switches.Load(),
		Bursts:     s.SMTSched.Bursts.Load(),
		Overlapped: s.SMTSched.Overlapped.Load(),
		FloorPicks: s.SMTSched.FloorPicks.Load(),
		Bracketed:  bracketed,
	}
	fmt.Fprintf(os.Stderr, "bench: smt-sched sweep: %d rows in %.1fs, %d switches, %d bursts (%d overlapped), %d floor picks, bracketed: %v\n",
		res.Rows, res.Seconds, res.Switches, res.Bursts, res.Overlapped, res.FloorPicks, res.Bracketed)
	return res
}

// runShardSweep answers figure4 through a 3-replica in-process peer
// fleet and byte-compares every response format against a solo daemon.
// The request goes to a coordinator-only observer whose id is on
// nobody's ring, so each point is fetched from the replica that owns
// it — the strongest form of the fabric's invariant: a daemon owning
// zero points still answers byte-identical to solo. Replica wall time
// includes the HTTP hops and each executor re-deriving its shard's
// points, so it is reported but never gated.
func runShardSweep(s experiments.Setup) *shardSweepResult {
	const exhibit, replicas = "figure4", 3
	fmt.Fprintf(os.Stderr, "bench: running %s through a %d-replica peer fleet...\n", exhibit, replicas)

	// Each daemon gets a private in-heap trace cache: fleet members
	// share nothing but the wire protocol, exactly like separate hosts.
	freshSetup := func() experiments.Setup {
		fs := s
		fs.Cache = atrace.NewCache()
		return fs
	}
	newHTTP := func(h http.Handler) *httptest.Server { return httptest.NewServer(h) }

	solo := server.New(server.Options{Setup: freshSetup(), RequestTimeout: 10 * time.Minute})
	soloHTTP := newHTTP(solo.Handler())
	defer soloHTTP.Close()

	// Peer URLs must exist before the Servers do, so each httptest
	// server fronts a swappable handler installed once the fleet list
	// is known.
	handlers := make([]atomic.Value, replicas)
	https := make([]*httptest.Server, replicas)
	for i := range https {
		i := i
		https[i] = newHTTP(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		defer https[i].Close()
	}
	peers := make([]server.Peer, replicas)
	for i := range peers {
		peers[i] = server.Peer{ID: fmt.Sprintf("r%d", i), URL: https[i].URL}
	}
	for i := range peers {
		rs := server.New(server.Options{
			Setup: freshSetup(), RequestTimeout: 10 * time.Minute,
			PeerID: peers[i].ID, Peers: peers,
		})
		handlers[i].Store(rs.Handler())
	}
	obs := server.New(server.Options{
		Setup: freshSetup(), RequestTimeout: 10 * time.Minute,
		PeerID: "bench-observer", Peers: peers,
	})
	obsHTTP := newHTTP(obs.Handler())
	defer obsHTTP.Close()

	get := func(base, path string) ([]byte, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		return body, nil
	}

	res := &shardSweepResult{Exhibit: exhibit, Replicas: replicas, Identical: true}
	for fi, format := range []string{"json", "csv", "text"} {
		path := "/v1/exhibits/" + exhibit + "?format=" + format
		start := time.Now()
		want, err := get(soloHTTP.URL, path)
		soloD := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: shard sweep skipped: solo %v\n", err)
			return nil
		}
		start = time.Now()
		got, err := get(obsHTTP.URL, path)
		fleetD := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: shard sweep skipped: fleet %v\n", err)
			return nil
		}
		if !bytes.Equal(got, want) {
			res.Identical = false
		}
		// Later formats re-render the result cache on both sides; only
		// the first pair measures the actual sweeps.
		if fi == 0 {
			res.SoloSeconds = soloD.Seconds()
			res.FleetSeconds = fleetD.Seconds()
		}
	}

	res.PointsFetched = scrapeCounter(get, obsHTTP.URL, "mlpsim_peer_points_fetched_total")
	res.FetchErrors = scrapeCounter(get, obsHTTP.URL, "mlpsim_peer_fetch_errors_total")
	for _, ts := range https {
		res.PointsServed += scrapeCounter(get, ts.URL, "mlpsim_peer_points_served_total")
	}
	fmt.Fprintf(os.Stderr, "bench: shard sweep: solo %.1fs, fleet %.1fs, %d points fetched (%d errors), %d served, identical: %v\n",
		res.SoloSeconds, res.FleetSeconds, res.PointsFetched, res.FetchErrors, res.PointsServed, res.Identical)
	return res
}

// scrapeCounter reads one counter from a daemon's /metrics page;
// unreachable pages and absent names read as zero (the report fields
// then make the failure visible instead of crashing the run).
func scrapeCounter(get func(base, path string) ([]byte, error), base, name string) uint64 {
	body, err := get(base, "/metrics")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, _ := strconv.ParseUint(fields[1], 10, 64)
			return v
		}
	}
	return 0
}

// maxStoreSetSSIT is the largest swept SSIT size (the headline
// geometry for the MLP metrics map).
func maxStoreSetSSIT() int {
	max := 0
	for _, v := range experiments.ExtStoreSetsSSITs {
		if v > max {
			max = v
		}
	}
	return max
}

// loadReport reads a previous JSON report; older schemas simply leave
// the newer fields zero.
func loadReport(path string) (report, error) {
	var old report
	data, err := os.ReadFile(path)
	if err != nil {
		return old, err
	}
	if err := json.Unmarshal(data, &old); err != nil {
		return old, fmt.Errorf("%s: %w", path, err)
	}
	return old, nil
}

// gateViolations compares cur against a baseline and lists every metric
// that regressed beyond pct percent: per-benchmark ns/op, and the
// cached/mapped sweep heap peaks when both reports carry them. Wall
// times are deliberately excluded — they depend on machine load — while
// ns/op comes from testing.Benchmark's calibrated loops and heap peaks
// are allocation-driven, so both are stable enough to gate on.
//
// A benchmark the two reports disagree on is a violation, not a skip:
// a name missing from a non-empty baseline (or carried with a zero
// ns/op) would otherwise pass ungated forever, and a baseline name
// missing from the current run hides a rename the same way. Only a
// baseline with no benchmarks at all (an older schema) is tolerated.
func gateViolations(old, cur report, pct float64) []string {
	var out []string
	for _, name := range sortedNames(old.Benchmarks) {
		o := old.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: in baseline but missing from this run (renamed or dropped? refresh the baseline)", name))
			continue
		}
		if o.NsPerOp <= 0 {
			out = append(out, fmt.Sprintf("%s: baseline ns/op is %g, cannot gate (refresh the baseline)", name, o.NsPerOp))
			continue
		}
		if growth := 100 * (c.NsPerOp - o.NsPerOp) / o.NsPerOp; growth > pct {
			out = append(out, fmt.Sprintf("%s: %.1f -> %.1f ns/op (+%.1f%%, limit %.0f%%)",
				name, o.NsPerOp, c.NsPerOp, growth, pct))
		}
		// A benchmark the baseline pins at zero allocations per op stays
		// there: any return of steady-state allocation is a regression in
		// kind, not degree, so it gates regardless of the percent limit.
		if o.AllocsPerOp == 0 && c.AllocsPerOp > 0 {
			out = append(out, fmt.Sprintf("%s: 0 -> %d allocs/op (zero-alloc steady state regressed)",
				name, c.AllocsPerOp))
		}
	}
	if len(old.Benchmarks) > 0 {
		for _, name := range sortedNames(cur.Benchmarks) {
			if _, ok := old.Benchmarks[name]; !ok {
				out = append(out, fmt.Sprintf("%s: new benchmark with no baseline entry (refresh the baseline to gate it)", name))
			}
		}
	}
	if old.Sweep != nil && cur.Sweep != nil {
		heap := func(label string, o, c int64) {
			if o <= 0 || c <= 0 {
				return
			}
			if growth := 100 * float64(c-o) / float64(o); growth > pct {
				out = append(out, fmt.Sprintf("%s heap peak: %.1f -> %.1f MB (+%.1f%%, limit %.0f%%)",
					label, float64(o)/(1<<20), float64(c)/(1<<20), growth, pct))
			}
		}
		heap("cached sweep", old.Sweep.CachedHeapPeakBytes, cur.Sweep.CachedHeapPeakBytes)
		heap("mapped sweep", old.Sweep.MappedHeapPeakBytes, cur.Sweep.MappedHeapPeakBytes)
	}
	// Bracketing is a physical invariant, not a percent threshold: a
	// store-set point outside its conservative/oracle bounds means the
	// disambiguation engine itself regressed.
	if cur.StoreSets != nil && !cur.StoreSets.Bracketed {
		out = append(out, "store-sets sweep: a predictor point's MLP fell outside the conservative/oracle bracket")
	}
	// Same for scheduled SMT: every policy's aggregate MLP must lie inside
	// its sweep point's combined lower/upper bounds.
	if cur.SMTSched != nil && !cur.SMTSched.Bracketed {
		out = append(out, "smt-sched sweep: a policy's aggregate MLP fell outside its combined-bounds bracket")
	}
	// The shard fabric's invariant is exact: a fleet answer that is not
	// byte-identical to solo is wrong no matter how fast it arrived.
	if cur.ShardSweep != nil && !cur.ShardSweep.Identical {
		out = append(out, "shard sweep: the peer fleet's answer differs from the solo daemon's")
	}
	return out
}

func sortedNames(m map[string]benchResult) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printComparison prints headline deltas against a previous report; a
// v1 report simply lacks the heap-peak fields.
func printComparison(path string, old, cur report) {
	fmt.Printf("comparison vs %s (%s):\n", path, old.Schema)
	for name, c := range cur.Benchmarks {
		if o, ok := old.Benchmarks[name]; ok && o.NsPerOp > 0 {
			fmt.Printf("  %-16s %8.1f -> %8.1f ns/op  (%+.1f%%)\n",
				name, o.NsPerOp, c.NsPerOp, 100*(c.NsPerOp-o.NsPerOp)/o.NsPerOp)
		}
	}
	if old.Sweep != nil && cur.Sweep != nil {
		o, c := old.Sweep, cur.Sweep
		fmt.Printf("  uncached sweep   %8.1f -> %8.1f s\n", o.UncachedSeconds, c.UncachedSeconds)
		fmt.Printf("  cached sweep     %8.1f -> %8.1f s\n", o.CachedSeconds, c.CachedSeconds)
		fmt.Printf("  speedup          %8.2f -> %8.2f x\n", o.Speedup, c.Speedup)
		if c.MappedSeconds > 0 {
			fmt.Printf("  mapped sweep     %17.1f s (no baseline in %s)\n", c.MappedSeconds, old.Schema)
		}
		if o.CachedHeapPeakBytes > 0 && c.MappedHeapPeakBytes > 0 {
			fmt.Printf("  heap peak        %7.1f MB -> %6.1f MB mapped (%.1fx drop)\n",
				float64(o.CachedHeapPeakBytes)/(1<<20), float64(c.MappedHeapPeakBytes)/(1<<20),
				float64(o.CachedHeapPeakBytes)/float64(c.MappedHeapPeakBytes))
		} else if c.MappedHeapPeakBytes > 0 {
			// The v1 report recorded the in-heap cache footprint, not a
			// sampled peak; it is the closest resident-memory baseline.
			fmt.Printf("  cache footprint  %7.1f MB in-heap -> heap peak %.1f MB mapped (%.1fx drop)\n",
				float64(o.CacheBytes)/(1<<20), float64(c.MappedHeapPeakBytes)/(1<<20),
				float64(o.CacheBytes)/float64(c.MappedHeapPeakBytes))
		}
	}
	if cur.GangSweep != nil {
		c := cur.GangSweep
		if old.GangSweep != nil {
			fmt.Printf("  gang dispatch    %8.2f -> %8.2f x over sequential\n", old.GangSweep.Speedup, c.Speedup)
		} else {
			fmt.Printf("  gang dispatch    %8.1f s -> %6.1f s (%.2fx, no baseline in %s)\n",
				c.SequentialSeconds, c.GangSeconds, c.Speedup, old.Schema)
		}
	}
	if cur.StoreSets != nil {
		c := cur.StoreSets
		if old.StoreSets != nil {
			fmt.Printf("  store-sets sweep %8d -> %8d mispredicts, %d -> %d serializes, bracketed: %v\n",
				old.StoreSets.DepMispredicts, c.DepMispredicts,
				old.StoreSets.DepSerializes, c.DepSerializes, c.Bracketed)
		} else {
			fmt.Printf("  store-sets sweep %8d rows in %.1f s, %d mispredicts, %d serializes, bracketed: %v (no baseline in %s)\n",
				c.Rows, c.Seconds, c.DepMispredicts, c.DepSerializes, c.Bracketed, old.Schema)
		}
	}
	if cur.SMTSched != nil {
		c := cur.SMTSched
		if old.SMTSched != nil {
			fmt.Printf("  smt-sched sweep  %8d -> %8d switches, %d -> %d overlapped, bracketed: %v\n",
				old.SMTSched.Switches, c.Switches, old.SMTSched.Overlapped, c.Overlapped, c.Bracketed)
		} else {
			fmt.Printf("  smt-sched sweep  %8d rows in %.1f s, %d switches, %d overlapped, bracketed: %v (no baseline in %s)\n",
				c.Rows, c.Seconds, c.Switches, c.Overlapped, c.Bracketed, old.Schema)
		}
	}
	if cur.ShardSweep != nil {
		c := cur.ShardSweep
		if old.ShardSweep != nil {
			fmt.Printf("  shard sweep      %8.1f -> %8.1f s fleet, %d -> %d points fetched, identical: %v\n",
				old.ShardSweep.FleetSeconds, c.FleetSeconds,
				old.ShardSweep.PointsFetched, c.PointsFetched, c.Identical)
		} else {
			fmt.Printf("  shard sweep      %8.1f s solo -> %.1f s via %d replicas, %d points fetched, identical: %v (no baseline in %s)\n",
				c.SoloSeconds, c.FleetSeconds, c.Replicas, c.PointsFetched, c.Identical, old.Schema)
		}
	}
	mismatch := false
	for k, v := range cur.MLP {
		if ov, ok := old.MLP[k]; ok && ov != v {
			fmt.Printf("  MLP %-18s %.4f -> %.4f  *** CHANGED\n", k, ov, v)
			mismatch = true
		}
	}
	if !mismatch {
		fmt.Println("  MLP metrics identical")
	}
}

func sameCells(a, b experiments.Figure4) bool {
	if len(a.Cells) != len(b.Cells) {
		return false
	}
	for i := range a.Cells {
		if !reflect.DeepEqual(a.Cells[i], b.Cells[i]) {
			return false
		}
	}
	return true
}

func main() {
	scale := flag.String("scale", "quick", "sweep scale: quick or default")
	out := flag.String("out", "BENCH_10.json", "output JSON path")
	seed := flag.Int64("seed", 1, "workload seed")
	skipSweep := flag.Bool("skip-sweep", false, "skip the cached-vs-uncached sweep comparison")
	skipGang := flag.Bool("skip-gang", false, "skip the sequential-vs-gang dispatch comparison")
	skipStoreSets := flag.Bool("skip-storesets", false, "skip the ext-storesets disambiguation sweep")
	skipSMTSched := flag.Bool("skip-smtsched", false, "skip the ext-smtsched scheduled-SMT policy sweep")
	skipShard := flag.Bool("skip-shard", false, "skip the peer-mode fleet-vs-solo shard sweep")
	compare := flag.String("compare", "", "print deltas against a previous report (e.g. BENCH_1.json)")
	gatePct := flag.Float64("gate-pct", 0, "with -compare: exit 1 if any ns/op or heap-peak metric grew more than this percent (0 = report only; MLPSIM_BENCH_GATE=off disables)")
	cacheDir := flag.String("cache-dir", "", "disk-cache directory for the mapped sweep (default: a temp dir, removed on exit)")
	flag.Parse()

	var s experiments.Setup
	switch *scale {
	case "quick":
		s = experiments.Quick(*seed)
	case "default":
		s = experiments.Default(*seed)
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	rep := report{
		Schema:  "mlpsim-bench/10",
		Scale:   *scale,
		Seed:    *seed,
		Warmup:  s.Warmup,
		Measure: s.Measure,
		MLP:     make(map[string]float64),
	}

	fmt.Fprintln(os.Stderr, "bench: running micro-benchmarks...")
	rep.Benchmarks = microBenchmarks(s.Workloads[0])
	for name, r := range rep.Benchmarks {
		fmt.Fprintf(os.Stderr, "bench: %-16s %8.1f ns/op  %d allocs/op\n", name, r.NsPerOp, r.AllocsPerOp)
	}

	if !*skipGang {
		rep.GangSweep = runGangSweep(s)
	}

	if !*skipSweep {
		uncached := s
		uncached.Cache = nil
		fmt.Fprintln(os.Stderr, "bench: running Figure 4+5+6 sweep WITHOUT cache...")
		du, f4u, _ := runSweep(uncached)
		fmt.Fprintf(os.Stderr, "bench: uncached sweep: %.1fs\n", du.Seconds())

		cached := s
		cached.Cache = atrace.NewCache()
		fmt.Fprintln(os.Stderr, "bench: running Figure 4+5+6 sweep WITH in-heap cache...")
		hs := startHeapSampler()
		dc, f4c, f6c := runSweep(cached)
		cachedPeak := hs.Stop()
		fmt.Fprintf(os.Stderr, "bench: cached sweep: %.1fs, heap peak %.1f MB\n",
			dc.Seconds(), float64(cachedPeak)/(1<<20))

		cs := cached.Cache.Stats()
		rep.Sweep = &sweepResult{
			Exhibits:            []string{"figure4", "figure5", "figure6"},
			UncachedSeconds:     du.Seconds(),
			CachedSeconds:       dc.Seconds(),
			Speedup:             du.Seconds() / dc.Seconds(),
			Identical:           sameCells(f4u, f4c),
			CacheBuilds:         cs.Builds,
			CacheHits:           cs.Hits,
			CacheBytes:          cs.Bytes,
			CachedHeapPeakBytes: cachedPeak,
		}
		fmt.Fprintf(os.Stderr, "bench: speedup %.2fx, results identical: %v\n",
			rep.Sweep.Speedup, rep.Sweep.Identical)

		// Drop the in-heap streams before the mapped sweep: its heap-peak
		// measurement must not count streams kept alive by this cache.
		cached.Cache = nil
		runMappedSweep(s, *cacheDir, rep.Sweep, f4u)

		for _, w := range s.Workloads {
			if c := f4c.Lookup(w.Name, 64, core.ConfigC); c != nil {
				rep.MLP[w.Name+"/64C"] = c.MLP
			}
			if c := f4c.Lookup(w.Name, 256, core.ConfigE); c != nil {
				rep.MLP[w.Name+"/256E"] = c.MLP
			}
			rep.MLP[w.Name+"/INF"] = f6c.INF[w.Name]
		}
	}

	// Last on purpose: the sweep's six extra per-workload annotated
	// streams (one per |ss{...} config) would otherwise sit in the
	// shared trace cache and inflate the cached/mapped heap peaks.
	if !*skipStoreSets {
		rep.StoreSets = runStoreSets(s, rep.MLP)
	}

	// Same reasoning: the scheduled-SMT pre-pass annotates K interleaved
	// streams per point, so it runs after the heap-peak measurements too.
	if !*skipSMTSched {
		rep.SMTSched = runSMTSched(s, rep.MLP)
	}

	// The fleet's four daemons each carry a private trace cache, so this
	// too stays clear of the heap-peak phases.
	if !*skipShard {
		rep.ShardSweep = runShardSweep(s)
	}

	var violations []string
	if *compare != "" {
		old, err := loadReport(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: compare: %v\n", err)
		} else {
			printComparison(*compare, old, rep)
			if *gatePct > 0 {
				violations = gateViolations(old, rep, *gatePct)
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *out)

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "bench: gate: %s\n", v)
		}
		if os.Getenv("MLPSIM_BENCH_GATE") == "off" {
			fmt.Fprintln(os.Stderr, "bench: gate: MLPSIM_BENCH_GATE=off, reporting only")
			return
		}
		fmt.Fprintf(os.Stderr, "bench: gate: %d regression(s) beyond %.0f%% vs %s\n",
			len(violations), *gatePct, *compare)
		os.Exit(1)
	}
}
