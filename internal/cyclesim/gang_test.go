package cyclesim

import (
	"math/rand"
	"runtime"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
	"mlpsim/internal/workload"
)

// randomConfig draws a valid config with every field the pipeline reads
// varied: IW ≤ ROB, configurations A-C, stage widths 1-8, penalties,
// MSHRs 0-8, a perfect L2, and an instruction limit that may be 0 (the
// whole stream), inside the stream, or past its end.
func randomConfig(rng *rand.Rand, n int) Config {
	iw := 1 + rng.Intn(96)
	cfg := Config{
		IssueWindow:       iw,
		ROB:               iw + rng.Intn(96),
		FetchBuffer:       1 + rng.Intn(40),
		Issue:             core.IssueConfig(rng.Intn(3)),
		FetchWidth:        1 + rng.Intn(8),
		DispatchWidth:     1 + rng.Intn(8),
		IssueWidth:        1 + rng.Intn(8),
		RetireWidth:       1 + rng.Intn(8),
		MissPenalty:       20 + rng.Intn(1000),
		L1Latency:         1 + rng.Intn(3),
		MispredictPenalty: rng.Intn(16),
		MSHRs:             rng.Intn(9),
		PerfectL2:         rng.Intn(4) == 0,
	}
	cfg.L2Latency = cfg.L1Latency + rng.Intn(20)
	switch rng.Intn(3) {
	case 1:
		cfg.MaxInstructions = rng.Int63n(int64(n))
	case 2:
		cfg.MaxInstructions = int64(n + rng.Intn(100))
	}
	return cfg
}

// replayOf captures insts as a columnar trace, whose replay takes the
// NextEngine fast path.
func replayOf(insts []annotate.Inst) *atrace.Stream {
	b := atrace.NewBuilder(6, int64(len(insts)))
	for _, in := range insts {
		b.Append(in)
	}
	return b.Finish(annotate.Stats{})
}

// TestRunGangMatchesSolo is the gang contract: for K = 1..12 random
// configs, RunGang's results equal one lone simulation per config, from
// a replay source and from a Next-only source, on a random stream and on
// the I-fetch-bound workload.
func TestRunGangMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := annotate.New(workload.MustNew(workload.IBound(2)), annotate.Config{})
	a.Warm(20_000)
	streams := []struct {
		name  string
		insts []annotate.Inst
	}{
		{"random", randomStream(rng, 5000, 0.05, 0.01, 0.05)},
		{"ibound", a.Collect(5000)},
	}
	for _, st := range streams {
		replay := replayOf(st.insts)
		for k := 1; k <= 12; k++ {
			cfgs := make([]Config, k)
			want := make([]Result, k)
			for i := range cfgs {
				cfgs[i] = randomConfig(rng, len(st.insts))
				want[i] = New(&aiSource{insts: st.insts}, cfgs[i]).Run()
			}
			sources := []struct {
				name string
				src  core.AnnotatedSource
			}{
				{"replay", replay.Replay()},
				{"next-only", &aiSource{insts: st.insts}},
			}
			for _, src := range sources {
				got := RunGang(src.src, cfgs)
				for i := range cfgs {
					if got[i] != want[i] {
						t.Fatalf("%s K=%d %s config %d: gang result differs from a lone run\ngang: %+v\nlone: %+v",
							st.name, k, src.name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRunGangReadsNoFurtherThanSolo: a gang reads its source exactly as
// far as its hungriest member would alone, so a live annotator's
// statistics come out the same.
func TestRunGangReadsNoFurtherThanSolo(t *testing.T) {
	insts := alu(10_000)
	cfgs := []Config{Default(200), Default(500)}
	cfgs[0].MaxInstructions = 3000
	cfgs[1].MaxInstructions = 4321
	src := &aiSource{insts: insts}
	RunGang(src, cfgs)
	if src.pos != 4321 {
		t.Fatalf("gang read %d instructions, want 4321", src.pos)
	}
}

// nextOnly hides a source's StoresLeft method.
type nextOnly struct{ core.AnnotatedSource }

// TestGangSizesStoreTableBySource: over a source that can count the
// memory writes it has left, a gang's store table is sized by that count
// even when no config bounds the run — 2,000 stores to distinct words in
// 10,000 instructions take 4,096 slots of 16 bytes, 64 KiB — and over a
// Next-only source it is the full 2 MiB table.
func TestGangSizesStoreTableBySource(t *testing.T) {
	insts := alu(10_000)
	for i := 0; i < len(insts); i += 5 {
		insts[i] = annotate.Inst{Inst: isa.Inst{Class: isa.Store, Src1: 1, Src2: 2, Dst: isa.NoReg, EA: 8 * uint64(i)}}
	}
	allocated := func(src core.AnnotatedSource) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		newGang(src, []Config{Default(500)}, false)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	sized, full := allocated(&aiSource{insts: insts}), allocated(nextOnly{&aiSource{insts: insts}})
	if sized < 64<<10 || sized > 256<<10 || full < 2<<20 {
		t.Fatalf("a gang over 2,000 stores allocated %d bytes from a counting source, %d from a Next-only one; want 64-256 KiB and at least 2 MiB",
			sized, full)
	}
}
