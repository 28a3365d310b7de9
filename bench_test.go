package mlpsim_test

// One benchmark per paper exhibit (Tables 1, 3-6; Figures 2, 4-11): each
// regenerates its table/figure on a reduced setup and reports the headline
// number as a custom metric, so `go test -bench=.` both exercises every
// experiment path end to end and prints the reproduced values. Engine
// micro-benchmarks at the bottom measure simulator throughput, ending
// with the eleven that cmd/bench records and gates.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"mlpsim"
	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/experiments"
	"mlpsim/internal/smt"
	"mlpsim/internal/trace"
	"mlpsim/internal/workload"
)

// benchSetup is small enough for repeated runs on one core.
func benchSetup() experiments.Setup {
	s := experiments.Quick(1)
	s.Warmup = 150_000
	s.Measure = 400_000
	s.Workloads = []workload.Config{workload.Database(1)}
	return s
}

func BenchmarkTable1(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1(s)
		b.ReportMetric(res.Rows[1].MLP, "MLP@1000")
	}
}

func BenchmarkFigure2(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure2(s)
		b.ReportMetric(res.Series[0].MeanDistance, "mean-inter-miss")
	}
}

func BenchmarkTable3(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable3(s)
		b.ReportMetric(res.MaxRelError(1000), "max-rel-err@1000")
	}
}

func BenchmarkTable4(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable4(s)
		b.ReportMetric(res.MaxRelError(), "max-rel-err")
	}
}

func BenchmarkTable5(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable5(s)
		b.ReportMetric(res.Rows[0].StallOnUse, "MLP-stall-on-use")
	}
}

func BenchmarkFigure4(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure4(s)
		b.ReportMetric(res.Lookup("Database", 64, core.ConfigC).MLP, "MLP-64C")
	}
}

func BenchmarkFigure5(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure5(s)
		fr := res.Cells[0].Result.LimiterFracs()
		b.ReportMetric(fr[core.LimMaxwin], "maxwin-frac")
	}
}

func BenchmarkFigure6(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure6(s)
		b.ReportMetric(res.INF["Database"], "MLP-INF")
	}
}

func BenchmarkFigure7(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure7(s)
		b.ReportMetric(res.Cells[0].MLP, "MLP-1MB")
	}
}

func BenchmarkFigure8(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure8(s)
		b.ReportMetric(res.Rows[0].RAE, "MLP-RAE")
	}
}

func BenchmarkTable6(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable6(s)
		b.ReportMetric(res.Rows[0].Correct, "vp-correct-frac")
	}
}

func BenchmarkFigure9(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure9(s)
		b.ReportMetric(res.Rows[len(res.Rows)-1].PerfGainPct, "vp-rae-gain-pct")
	}
}

func BenchmarkFigure10(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure10(s)
		b.ReportMetric(res.Rows[0].PerfVPBP, "MLP-RAE-perfVPBP")
	}
}

func BenchmarkFigure11(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFigure11(s)
		var rae float64
		for _, r := range res.Rows {
			if r.Config == "RAE" {
				rae = r.GainPct
			}
		}
		b.ReportMetric(rae, "rae-gain-pct")
	}
}

// --- simulator micro-benchmarks --------------------------------------------

// BenchmarkGenerator measures raw trace generation throughput.
func BenchmarkGenerator(b *testing.B) {
	g := workload.MustNew(workload.Database(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("generator ended")
		}
	}
}

// BenchmarkMLPsimRunahead measures runahead-mode simulation.
func BenchmarkMLPsimRunahead(b *testing.B) {
	a := annotate.New(workload.MustNew(workload.Database(1)), annotate.Config{})
	cfg := core.Default().WithIssue(core.ConfigD).WithRunahead()
	cfg.MaxInstructions = int64(b.N)
	b.ResetTimer()
	res := core.NewEngine(a, cfg).Run()
	if res.Instructions != int64(b.N) {
		b.Fatalf("simulated %d of %d", res.Instructions, b.N)
	}
}

// BenchmarkGangSweepDivergent measures a gang of ext-mshr's 12 configs
// (64C and runahead, each with 1, 2, 4, 8, 16 and unlimited MSHRs) over
// one captured Database trace, with gang construction off the clock.
// These are the finite-MSHR and runahead configs that join the SoA fast
// path beside BenchmarkGangSweepK16's plain ones. One op is one
// config·instruction.
func BenchmarkGangSweepDivergent(b *testing.B) {
	a := annotate.New(workload.MustNew(workload.Database(1)), annotate.Config{})
	a.Warm(150_000)
	s := atrace.Capture(a, 400_000)
	var base []core.Config
	for _, p := range experiments.Find("ext-mshr").Points(benchSetup()) {
		base = append(base, p.Config)
	}
	k := int64(len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for remaining := int64(b.N); remaining > 0; {
		n := min((remaining+k-1)/k, s.Len())
		b.StopTimer()
		cfgs := append([]core.Config(nil), base...)
		for i := range cfgs {
			cfgs[i].MaxInstructions = n
		}
		g := core.NewGang(s.Replay(), cfgs)
		b.StartTimer()
		g.Run()
		remaining -= k * n
	}
}

// BenchmarkCycleSim measures the cycle-level simulator alone: one op is
// one instruction replayed from a trace captured off the clock, so
// annotation is not in the number.
func BenchmarkCycleSim(b *testing.B) {
	a := annotate.New(workload.MustNew(workload.Database(1)), annotate.Config{})
	a.Warm(150_000)
	s := atrace.Capture(a, 400_000)
	cfg := cyclesim.Default(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for remaining := int64(b.N); remaining > 0; {
		cfg.MaxInstructions = min(remaining, s.Len())
		res := cyclesim.New(s.Replay(), cfg).Run()
		remaining -= res.Instructions
	}
}

// BenchmarkTraceEncode measures binary trace encoding.
func BenchmarkTraceEncode(b *testing.B) {
	insts := trace.Collect(trace.Limit(workload.MustNew(workload.Database(1)), 100_000), -1)
	enc, err := trace.NewEncoder(discard{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(insts[i%len(insts)]); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkFacadeSimulate measures the public API end to end.
func BenchmarkFacadeSimulate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := mlpsim.Simulate(mlpsim.Database(1), mlpsim.DefaultProcessor(),
			mlpsim.Options{Warmup: 100_000, Measure: 200_000})
		b.ReportMetric(res.MLP(), "MLP")
	}
}

// --- gated micro-benchmarks ------------------------------------------------
//
// cmd/bench runs these eleven by name, from the list it keeps as gated, to
// record BENCH_N.json and to gate a change against its base revision in
// paired runs. Each reports 0 allocs/op, and the gate fails one whose
// allocations leave zero; the gang benchmarks also report 0 allocs/inst,
// which the gate reads instead. All but AnnotateStream and SMTSchedule
// replay one shared trace.

var (
	microOnce  sync.Once
	microTrace *atrace.Stream
)

// mallocs returns the process's cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// reportAllocsPerInst reports allocs, counted over a gang benchmark's
// timed runs, per replayed trace instruction as the allocs/inst metric,
// floored to an integer as go test floors allocs/op. A gang op is one
// config·instruction, so allocs/op floors one allocation per replayed
// instruction to 0 from K=2 up; allocs/inst does not.
func reportAllocsPerInst(b *testing.B, allocs, insts uint64) {
	if insts > 0 {
		b.ReportMetric(float64(allocs/insts), "allocs/inst")
	}
}

// microStream returns the shared trace, 1M Database instructions after a
// 100k warm-up, capturing it on first use: testing calls a benchmark
// function once per b.N round, and the capture must not repeat each round.
func microStream() *atrace.Stream {
	microOnce.Do(func() {
		a := annotate.New(workload.MustNew(workload.Database(1)), annotate.Config{})
		a.Warm(100_000)
		microTrace = atrace.Capture(a, 1_000_000)
	})
	return microTrace
}

// BenchmarkAnnotateStream measures the full annotation pass (generator +
// hierarchy + predictors) per instruction: the cost a trace build pays
// once per key.
func BenchmarkAnnotateStream(b *testing.B) {
	a := annotate.New(workload.MustNew(workload.Database(1)), annotate.Config{})
	a.Warm(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}

// BenchmarkReplayStream measures decoding a captured stream: the cost
// every cached engine run pays per instruction.
func BenchmarkReplayStream(b *testing.B) {
	s := microStream()
	r := s.Replay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Next(); !ok {
			r = s.Replay()
		}
	}
}

// BenchmarkMLPsimEngine measures the epoch-model engine replaying the
// shared trace. One op is one instruction through the engine; the replay
// restarts whenever b.N exceeds the captured stream. Engine construction
// happens off the clock so the numbers are steady-state: the hot loop
// itself is zero-allocation. This is `make profile`'s engine entry point.
func BenchmarkMLPsimEngine(b *testing.B) {
	s := microStream()
	cfg := core.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for remaining := int64(b.N); remaining > 0; {
		n := min(remaining, s.Len())
		cfg.MaxInstructions = n
		b.StopTimer()
		e := core.NewEngine(s.Replay(), cfg)
		b.StartTimer()
		e.Run()
		remaining -= n
	}
}

// Gang dispatch at K = 1..64 engines over one shared decode. One op is
// one config·instruction, so ns/op falling with K is the win: the
// per-instruction decode+bind cost amortizes across the gang, and from
// K=16 up the SoA stepper's scaling (shared ring columns, no per-engine
// instruction copies) carries the curve. Gang construction happens off
// the clock, like MLPsimEngine's, so every K reports the exact-zero
// steady-state allocation the core asserts in its tests, per op and per
// replayed instruction. K=16 is `make profile`'s entry point for the SoA
// gang hot loop.
func BenchmarkGangSweepK1(b *testing.B)  { benchGangSweep(b, gangConfigs(1)) }
func BenchmarkGangSweepK4(b *testing.B)  { benchGangSweep(b, gangConfigs(4)) }
func BenchmarkGangSweepK16(b *testing.B) { benchGangSweep(b, gangConfigs(16)) }
func BenchmarkGangSweepK32(b *testing.B) { benchGangSweep(b, gangConfigs(32)) }
func BenchmarkGangSweepK64(b *testing.B) { benchGangSweep(b, gangConfigs(64)) }

// BenchmarkGangSweepInOrder is Table 5's gang: its two in-order configs,
// stall-on-miss and stall-on-use, over the shared trace. A gang this
// small pays mostly the per-instruction floor — the shared decode and
// bind, and fetching whatever the engines do not skip — so this pins
// that floor.
func BenchmarkGangSweepInOrder(b *testing.B) {
	var cfgs []core.Config
	for _, p := range experiments.Find("table5").Points(benchSetup()) {
		cfgs = append(cfgs, p.Config)
	}
	benchGangSweep(b, cfgs)
}

func benchGangSweep(b *testing.B, cfgs []core.Config) {
	s := microStream()
	k := len(cfgs)
	var allocs, insts uint64
	b.ReportAllocs()
	b.ResetTimer()
	for remaining := int64(b.N); remaining > 0; {
		n := min((remaining+int64(k)-1)/int64(k), s.Len())
		b.StopTimer()
		run := make([]core.Config, k)
		for i := range cfgs {
			run[i] = cfgs[i]
			run[i].MaxInstructions = n
		}
		g := core.NewGang(s.Replay(), run)
		m0 := mallocs()
		b.StartTimer()
		g.Run()
		b.StopTimer()
		allocs += mallocs() - m0
		insts += uint64(n)
		remaining -= int64(k) * n
	}
	reportAllocsPerInst(b, allocs, insts)
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

// BenchmarkCycleSimGang measures a cycle-simulator gang on Table 3's
// matrix for one workload: windows 32/64/128 by configurations A-C by
// penalties 200/500/1000, 27 pipelines over one decode of the shared
// trace. One op is one config·instruction, comparable to
// BenchmarkCycleSim's per-instruction cost. Each gang's construction
// stays on the clock; it is a few dozen allocations per gang of 27M ops,
// so the steady state reports exactly zero allocations per op and per
// replayed instruction.
func BenchmarkCycleSimGang(b *testing.B) {
	s := microStream()
	cfgs := experiments.Table3CycleConfigs()
	k := int64(len(cfgs))
	var allocs, insts uint64
	b.ReportAllocs()
	b.ResetTimer()
	for remaining := int64(b.N); remaining > 0; {
		n := min((remaining+k-1)/k, s.Len())
		for i := range cfgs {
			cfgs[i].MaxInstructions = n
		}
		b.StopTimer()
		m0 := mallocs()
		b.StartTimer()
		cyclesim.RunGang(s.Replay(), cfgs)
		b.StopTimer()
		allocs += mallocs() - m0
		insts += uint64(n)
		b.StartTimer()
		remaining -= k * n
	}
	reportAllocsPerInst(b, allocs, insts)
}

// BenchmarkSMTSchedule measures pure policy replay over fixed synthetic
// per-thread epoch traces: one op is one full Schedule pass (K=4
// threads, 4k epochs each) under the most stateful policy. The trace
// pre-pass is the annotator's cost, covered by AnnotateStream; this pins
// the scheduler itself. The reusable Scheduler is warmed before the
// clock starts, so steady state is exactly zero allocations per pass.
func BenchmarkSMTSchedule(b *testing.B) {
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
}
