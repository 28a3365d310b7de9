package cyclesim

import (
	"math"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
	"mlpsim/internal/workload"
)

type aiSource struct {
	insts []annotate.Inst
	pos   int
}

func (s *aiSource) Next() (annotate.Inst, bool) {
	if s.pos >= len(s.insts) {
		return annotate.Inst{}, false
	}
	in := s.insts[s.pos]
	s.pos++
	return in, true
}

func ld(dst, src1 isa.Reg, dmiss bool) annotate.Inst {
	return annotate.Inst{
		Inst:  isa.Inst{Class: isa.Load, Src1: src1, Src2: isa.NoReg, Dst: dst},
		DMiss: dmiss,
	}
}

func add(dst, s1, s2 isa.Reg) annotate.Inst {
	return annotate.Inst{Inst: isa.Inst{Class: isa.ALU, Src1: s1, Src2: s2, Dst: dst}}
}

func alu(n int) []annotate.Inst {
	var out []annotate.Inst
	for i := 0; i < n; i++ {
		out = append(out, add(16, 17, 18))
	}
	return out
}

func run(t *testing.T, insts []annotate.Inst, cfg Config) Result {
	t.Helper()
	return New(&aiSource{insts: insts}, cfg).Run()
}

func TestALUOnlyThroughput(t *testing.T) {
	res := run(t, alu(4000), Default(200))
	if res.Instructions != 4000 {
		t.Fatalf("retired %d", res.Instructions)
	}
	// Width-4 pipeline on a serial-free ALU stream: CPI near... the
	// stream is a dependence chain free mix; with identical registers the
	// adds chain (dst=16, src=17,18 → independent of each other), so CPI
	// should approach 1/width plus pipeline fill.
	if cpi := res.CPI(); cpi > 0.6 {
		t.Fatalf("ALU CPI = %.3f, want < 0.6", cpi)
	}
	if res.Accesses != 0 || res.MLP != 0 {
		t.Fatalf("ALU-only run saw accesses: %+v", res)
	}
}

func TestSingleMissCost(t *testing.T) {
	// 100 ALU + missing load + consumer + 100 ALU: run time ≈ compute +
	// penalty.
	insts := alu(100)
	insts = append(insts, ld(2, 1, true), add(3, 2, 2))
	insts = append(insts, alu(100)...)
	res := run(t, insts, Default(500))
	if res.Accesses != 1 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	if res.Cycles < 500 || res.Cycles > 700 {
		t.Fatalf("cycles = %d, want ≈ 550", res.Cycles)
	}
	if math.Abs(res.MLP-1) > 1e-9 {
		t.Fatalf("MLP = %v, want exactly 1", res.MLP)
	}
	// MLP cycles ≈ the miss latency.
	if res.MLPCycles < 499 || res.MLPCycles > 510 {
		t.Fatalf("MLP cycles = %d, want ≈ 500", res.MLPCycles)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	// Two independent missing loads issued back to back overlap almost
	// fully: MLP ≈ 2, total time ≈ penalty.
	insts := []annotate.Inst{ld(2, 1, true), ld(3, 1, true)}
	insts = append(insts, alu(10)...)
	res := run(t, insts, Default(500))
	if res.Accesses != 2 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	if res.MLP < 1.9 {
		t.Fatalf("MLP = %.3f, want ≈ 2", res.MLP)
	}
	if res.Cycles > 520 {
		t.Fatalf("cycles = %d, want ≈ 505", res.Cycles)
	}
}

func TestDependentMissesSerialize(t *testing.T) {
	insts := []annotate.Inst{ld(2, 1, true), ld(3, 2, true)}
	res := run(t, insts, Default(500))
	if res.MLP > 1.01 {
		t.Fatalf("MLP = %.3f, want 1 (dependent misses)", res.MLP)
	}
	if res.Cycles < 1000 {
		t.Fatalf("cycles = %d, want > 1000 (two serialized misses)", res.Cycles)
	}
}

func TestWindowLimitsOverlap(t *testing.T) {
	// A missing load, then filler, then another independent missing load
	// beyond a tiny ROB: the second cannot enter the window until the
	// first completes.
	mk := func() []annotate.Inst {
		insts := []annotate.Inst{ld(2, 1, true)}
		insts = append(insts, alu(30)...)
		insts = append(insts, ld(3, 1, true))
		return insts
	}
	small := Default(500)
	small.IssueWindow, small.ROB = 8, 8
	res := run(t, mk(), small)
	if res.MLP > 1.05 {
		t.Fatalf("small window MLP = %.3f, want ≈ 1", res.MLP)
	}
	big := Default(500)
	big.IssueWindow, big.ROB = 64, 64
	res = run(t, mk(), big)
	if res.MLP < 1.8 {
		t.Fatalf("big window MLP = %.3f, want ≈ 2", res.MLP)
	}
}

func TestSerializingDrainsPipeline(t *testing.T) {
	// miss; membar; independent miss — the membar prevents overlap.
	insts := []annotate.Inst{
		ld(2, 1, true),
		{Inst: isa.Inst{Class: isa.MemBar, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg}},
		ld(3, 1, true),
	}
	res := run(t, insts, Default(500))
	if res.MLP > 1.01 {
		t.Fatalf("MLP = %.3f, want 1 (serialized)", res.MLP)
	}
	if res.Cycles < 1000 {
		t.Fatalf("cycles = %d, want two full penalties", res.Cycles)
	}
}

func TestUnresolvableMispredictBlocksFetch(t *testing.T) {
	// Load miss feeds a mispredicted branch; the independent miss after
	// the branch cannot be fetched until the branch resolves.
	insts := []annotate.Inst{
		ld(2, 1, true),
		{Inst: isa.Inst{Class: isa.Branch, Src1: 2, Src2: isa.NoReg, Dst: isa.NoReg}, Mispred: true},
		ld(3, 1, true),
	}
	res := run(t, insts, Default(500))
	if res.MLP > 1.01 {
		t.Fatalf("MLP = %.3f, want 1", res.MLP)
	}
	// Resolvable mispredict (independent of the miss): costs only the
	// redirect, so the misses overlap.
	insts[1].Src1 = 7
	res = run(t, insts, Default(500))
	if res.MLP < 1.9 {
		t.Fatalf("resolvable mispredict MLP = %.3f, want ≈ 2", res.MLP)
	}
}

func TestImissBlocksFetch(t *testing.T) {
	insts := []annotate.Inst{
		ld(2, 1, true),
		func() annotate.Inst { in := add(4, 2, 3); in.IMiss = true; return in }(),
		ld(3, 1, true),
	}
	res := run(t, insts, Default(500))
	// The I-miss overlaps with the first load but gates the second: MLP
	// counts the overlapped I access.
	if res.Accesses != 3 {
		t.Fatalf("accesses = %d, want 3", res.Accesses)
	}
	// Phase 1: the load's and the I-fetch's accesses overlap for one
	// penalty (MLP 2); phase 2: the gated load runs alone for one penalty
	// (MLP 1) → average ≈ 1.5.
	if res.MLP < 1.4 || res.MLP > 1.6 {
		t.Fatalf("MLP = %.3f, want ≈ 1.5", res.MLP)
	}
}

// TestIMissMispredictKeepsRedirect: a mispredicted branch whose fetch
// misses the I-cache still holds fetch until it resolves and redirects,
// on every I-miss path — an off-chip line, a wait for a free MSHR, and
// the perfect-L2 bubble. The I-miss can only add time: the same stream
// without it must not run longer.
func TestIMissMispredictKeepsRedirect(t *testing.T) {
	// 8 ALU ops, a missing load into r2, a mispredicted branch on r2
	// (which cannot resolve before the miss returns), then 400 ALU ops.
	mk := func(imiss bool) []annotate.Inst {
		insts := append(alu(8), ld(2, 1, true), annotate.Inst{
			Inst:    isa.Inst{Class: isa.Branch, Src1: 2, Src2: isa.NoReg, Dst: isa.NoReg},
			Mispred: true,
			IMiss:   imiss,
		})
		return append(insts, alu(400)...)
	}
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"off-chip line", func(*Config) {}},
		{"MSHR wait", func(c *Config) { c.MSHRs = 1 }},
		{"perfect L2", func(c *Config) { c.PerfectL2 = true }},
	} {
		cfg := Default(500)
		tc.mod(&cfg)
		plain := run(t, mk(false), cfg)
		missing := run(t, mk(true), cfg)
		if missing.Cycles < plain.Cycles {
			t.Errorf("%s: the I-missing branch ran %d cycles, %d without the I-miss; want at least as many",
				tc.name, missing.Cycles, plain.Cycles)
		}
	}
}

func TestPerfectL2Run(t *testing.T) {
	insts := []annotate.Inst{ld(2, 1, true), add(3, 2, 2)}
	insts = append(insts, alu(50)...)
	cfg := Default(1000)
	cfg.PerfectL2 = true
	res := run(t, insts, cfg)
	if res.Accesses != 0 {
		t.Fatalf("perfect L2 counted %d accesses", res.Accesses)
	}
	if res.Cycles > 100 {
		t.Fatalf("perfect-L2 cycles = %d, want small", res.Cycles)
	}
}

func TestLoadPoliciesOrdering(t *testing.T) {
	// Independent miss after a dependent store address (paper example 4
	// flavour): config B blocks it, config C does not.
	mk := func() []annotate.Inst {
		return []annotate.Inst{
			ld(2, 1, true), // miss -> r2
			{Inst: isa.Inst{Class: isa.Store, Src1: 2, Src2: 5, Dst: isa.NoReg, EA: 0x9000}},
			ld(6, 1, true), // independent miss
		}
	}
	cfgB := Default(500)
	cfgB.Issue = core.ConfigB
	resB := run(t, mk(), cfgB)
	cfgC := Default(500)
	resC := run(t, mk(), cfgC)
	if resB.MLP > 1.05 {
		t.Fatalf("config B MLP = %.3f, want ≈ 1", resB.MLP)
	}
	if resC.MLP < 1.9 {
		t.Fatalf("config C MLP = %.3f, want ≈ 2", resC.MLP)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(*Config)
	}{
		{"config D (cycle sim supports A-C only)", func(c *Config) { c.Issue = core.ConfigD }},
		{"zero penalty", func(c *Config) { c.MissPenalty = 0 }},
		{"negative mispredict penalty", func(c *Config) { c.MispredictPenalty = -1 }},
		{"negative instruction limit", func(c *Config) { c.MaxInstructions = -1 }},
	} {
		cfg := Default(500)
		tc.bad(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	good := Default(200)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The headline validation: MLPsim and the cycle simulator agree on MLP,
// closely at 1000 cycles (Table 3's pattern).
func TestMLPsimValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million instruction validation")
	}
	for _, w := range workload.Presets(41) {
		for _, ic := range []core.IssueConfig{core.ConfigA, core.ConfigC} {
			mlpsimRes := func() core.Result {
				g := workload.MustNew(w)
				a := annotate.New(g, annotate.Config{})
				a.Warm(300_000)
				cfg := core.Default().WithIssue(ic)
				cfg.MaxInstructions = 400_000
				return core.NewEngine(a, cfg).Run()
			}()
			cycleRes := func() Result {
				g := workload.MustNew(w)
				a := annotate.New(g, annotate.Config{})
				a.Warm(300_000)
				cfg := Default(1000)
				cfg.Issue = ic
				cfg.MaxInstructions = 400_000
				return New(a, cfg).Run()
			}()
			m1, m2 := mlpsimRes.MLP(), cycleRes.MLP
			if m2 == 0 {
				t.Fatalf("%s/%v: cycle sim measured no MLP", w.Name, ic)
			}
			if rel := math.Abs(m1-m2) / m2; rel > 0.10 {
				t.Errorf("%s/%v: MLPsim %.3f vs CycleSim %.3f (%.1f%% apart)",
					w.Name, ic, m1, m2, 100*rel)
			}
		}
	}
}

func TestMSHRLimitsCycleSim(t *testing.T) {
	mk := func() []annotate.Inst {
		return []annotate.Inst{
			ld(2, 1, true), ld(3, 1, true), ld(4, 1, true), ld(5, 1, true),
		}
	}
	unlimited := run(t, mk(), Default(500))
	if unlimited.MLP < 3.8 {
		t.Fatalf("unlimited MLP = %.3f, want ≈ 4", unlimited.MLP)
	}
	cfg := Default(500)
	cfg.MSHRs = 2
	capped := run(t, mk(), cfg)
	if capped.MLP > 2.01 {
		t.Fatalf("2-MSHR MLP = %.3f, want ≤ 2", capped.MLP)
	}
	if capped.Accesses != 4 {
		t.Fatalf("accesses = %d, want 4 (conserved)", capped.Accesses)
	}
	if capped.Cycles <= unlimited.Cycles {
		t.Fatal("MSHR cap should lengthen the run")
	}
}

func TestMSHRGatesIFetchCycleSim(t *testing.T) {
	insts := []annotate.Inst{
		ld(2, 1, true),
		func() annotate.Inst { in := add(4, 9, 9); in.IMiss = true; return in }(),
		ld(3, 1, true),
	}
	cfg := Default(500)
	cfg.MSHRs = 1
	res := run(t, insts, cfg)
	if res.Accesses != 3 {
		t.Fatalf("accesses = %d, want 3 (conserved under MSHR gating)", res.Accesses)
	}
	if res.MLP > 1.01 {
		t.Fatalf("1-MSHR MLP = %.3f, want 1", res.MLP)
	}
}

func TestDecoupledROBHelpsCycleSim(t *testing.T) {
	// A miss, 40 filler (exceeding a 16-entry window's reach but not a
	// 128-entry ROB), then an independent miss: with the ROB decoupled
	// the dispatch window keeps draining the issue window, so the second
	// miss overlaps.
	mk := func() []annotate.Inst {
		insts := []annotate.Inst{ld(2, 1, true)}
		insts = append(insts, alu(40)...)
		insts = append(insts, ld(3, 1, true))
		return insts
	}
	coupled := Default(500)
	coupled.IssueWindow, coupled.ROB = 16, 16
	small := run(t, mk(), coupled)
	decoupled := Default(500)
	decoupled.IssueWindow, decoupled.ROB = 16, 128
	big := run(t, mk(), decoupled)
	if small.MLP > 1.05 {
		t.Fatalf("coupled MLP = %.3f, want ≈ 1", small.MLP)
	}
	if big.MLP < 1.8 {
		t.Fatalf("decoupled MLP = %.3f, want ≈ 2", big.MLP)
	}
}

func TestRetireWidthBoundsIPC(t *testing.T) {
	cfg := Default(200)
	cfg.RetireWidth = 1
	res := run(t, alu(4000), cfg)
	if cpi := res.CPI(); cpi < 0.95 {
		t.Fatalf("retire width 1 should pin CPI near 1, got %.3f", cpi)
	}
}

func TestCycleSimDeterminism(t *testing.T) {
	mk := func() core.AnnotatedSource {
		g := workload.MustNew(workload.Database(3))
		a := annotate.New(g, annotate.Config{})
		a.Warm(100_000)
		return a
	}
	cfg := Default(500)
	cfg.MaxInstructions = 150_000
	r1 := New(mk(), cfg).Run()
	r2 := New(mk(), cfg).Run()
	if r1.Cycles != r2.Cycles || r1.Accesses != r2.Accesses || r1.MLP != r2.MLP {
		t.Fatalf("non-deterministic: %+v vs %+v", r1, r2)
	}
}

func TestCycleSimConservesAccesses(t *testing.T) {
	g := workload.MustNew(workload.Database(5))
	a := annotate.New(g, annotate.Config{})
	a.Warm(100_000)
	var want uint64
	src := countingAISource{src: a, count: &want}
	cfg := Default(1000)
	cfg.MaxInstructions = 150_000
	res := New(&src, cfg).Run()
	if res.Accesses != want {
		t.Fatalf("cycle sim counted %d accesses, annotator produced %d", res.Accesses, want)
	}
}

type countingAISource struct {
	src   *annotate.Annotator
	count *uint64
}

func (c *countingAISource) Next() (annotate.Inst, bool) {
	in, ok := c.src.Next()
	if ok && in.OffChip() {
		*c.count++
		if in.IMiss && (in.DMiss || in.PMiss) {
			*c.count++
		}
	}
	return in, ok
}
