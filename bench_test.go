package mlpsim_test

// One benchmark per paper exhibit (Tables 1, 3-6; Figures 2, 4-11): each
// regenerates its table/figure on a reduced setup and reports the headline
// number as a custom metric, so `go test -bench=.` both exercises every
// experiment path end to end and prints the reproduced values. Engine
// micro-benchmarks at the bottom measure simulator throughput.

import (
	"testing"

	"mlpsim"
	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/experiments"
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

// BenchmarkAnnotator measures generation + cache/predictor annotation.
func BenchmarkAnnotator(b *testing.B) {
	a := annotate.New(workload.MustNew(workload.Database(1)), annotate.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := a.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}

// BenchmarkMLPsimEngine measures end-to-end epoch-model simulation.
func BenchmarkMLPsimEngine(b *testing.B) {
	a := annotate.New(workload.MustNew(workload.Database(1)), annotate.Config{})
	cfg := core.Default()
	cfg.MaxInstructions = int64(b.N)
	b.ResetTimer()
	res := core.NewEngine(a, cfg).Run()
	if res.Instructions != int64(b.N) {
		b.Fatalf("simulated %d of %d", res.Instructions, b.N)
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

// BenchmarkGangSweep measures gang dispatch: 16 engine configurations
// stepped in lock-step over one shared decode of a captured stream. One
// op is one config·instruction, directly comparable to
// BenchmarkMLPsimEngine's per-instruction cost. This is the `make
// profile` entry point for the gang hot loop.
func BenchmarkGangSweep(b *testing.B) {
	const k = 16
	a := annotate.New(workload.MustNew(workload.Database(1)), annotate.Config{})
	a.Warm(150_000)
	s := atrace.Capture(a, 400_000)
	sizes := []int{16, 32, 64, 128, 256}
	issues := []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC, core.ConfigD, core.ConfigE}
	b.ReportAllocs()
	b.ResetTimer()
	for remaining := int64(b.N); remaining > 0; {
		n := s.Len()
		if per := (remaining + k - 1) / k; per < n {
			n = per
		}
		cfgs := make([]core.Config, k)
		for i := range cfgs {
			cfgs[i] = core.Default().
				WithWindow(sizes[i%len(sizes)]).
				WithIssue(issues[(i/len(sizes))%len(issues)])
			cfgs[i].MaxInstructions = n
		}
		core.RunGang(s.Replay(), cfgs)
		remaining -= k * n
	}
}

// BenchmarkGangSweepSoA isolates the structure-of-arrays gang stepper:
// the same 16-config sweep as BenchmarkGangSweep (every config is
// SoA-eligible, so all 16 engines ride the SoA fast path) but with gang
// construction off the clock, so a profile of this benchmark is the
// steady-state SoA hot loop alone. This is the `make profile` entry
// point for the SoA-gang flamegraph (profiles/gang-soa.cpu.prof).
func BenchmarkGangSweepSoA(b *testing.B) {
	const k = 16
	a := annotate.New(workload.MustNew(workload.Database(1)), annotate.Config{})
	a.Warm(150_000)
	s := atrace.Capture(a, 400_000)
	sizes := []int{16, 32, 64, 128, 256}
	issues := []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC, core.ConfigD, core.ConfigE}
	b.ReportAllocs()
	b.ResetTimer()
	for remaining := int64(b.N); remaining > 0; {
		n := s.Len()
		if per := (remaining + k - 1) / k; per < n {
			n = per
		}
		b.StopTimer()
		cfgs := make([]core.Config, k)
		for i := range cfgs {
			cfgs[i] = core.Default().
				WithWindow(sizes[i%len(sizes)]).
				WithIssue(issues[(i/len(sizes))%len(issues)])
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

// BenchmarkCycleSimGang measures a cycle-simulator gang on Table 3's
// matrix for one workload: windows 32/64/128 by configurations A-C by
// penalties 200/500/1000, 27 configs over one decode of a replayed
// trace. One op is one config·instruction, comparable to
// BenchmarkCycleSim's per-instruction cost.
func BenchmarkCycleSimGang(b *testing.B) {
	a := annotate.New(workload.MustNew(workload.Database(1)), annotate.Config{})
	a.Warm(150_000)
	s := atrace.Capture(a, 400_000)
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
