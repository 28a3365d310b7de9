package core

import (
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/isa"
	"mlpsim/internal/vpred"
)

// --- hand-built annotated streams -----------------------------------------

type aiSource struct {
	insts []annotate.Inst
	pos   int
}

// StoresLeft sizes the engines' store tables, as atrace.Replay's does.
func (s *aiSource) StoresLeft(limit int64) int64 {
	var n int64
	for i := s.pos; i < len(s.insts) && n < limit; i++ {
		if s.insts[i].Class.IsMemWrite() {
			n++
		}
	}
	return n
}

func (s *aiSource) Next() (annotate.Inst, bool) {
	if s.pos >= len(s.insts) {
		return annotate.Inst{}, false
	}
	in := s.insts[s.pos]
	s.pos++
	return in, true
}

func src(insts ...annotate.Inst) *aiSource {
	for i := range insts {
		insts[i].Index = int64(i)
		if insts[i].PC == 0 {
			insts[i].PC = 0x1000 + uint64(i)*4
		}
	}
	return &aiSource{insts: insts}
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

func st(addrReg, dataReg isa.Reg, ea uint64) annotate.Inst {
	return annotate.Inst{Inst: isa.Inst{Class: isa.Store, Src1: addrReg, Src2: dataReg,
		Dst: isa.NoReg, EA: ea}}
}

func membar() annotate.Inst {
	return annotate.Inst{Inst: isa.Inst{Class: isa.MemBar, Src1: isa.NoReg, Src2: isa.NoReg,
		Dst: isa.NoReg}}
}

func br(src1 isa.Reg, mispred bool) annotate.Inst {
	return annotate.Inst{
		Inst:    isa.Inst{Class: isa.Branch, Src1: src1, Src2: isa.NoReg, Dst: isa.NoReg},
		Mispred: mispred,
	}
}

func imiss(in annotate.Inst) annotate.Inst { in.IMiss = true; return in }

func pf(src1 isa.Reg, pmiss bool) annotate.Inst {
	return annotate.Inst{
		Inst:  isa.Inst{Class: isa.Prefetch, Src1: src1, Src2: isa.NoReg, Dst: isa.NoReg},
		PMiss: pmiss,
	}
}

// runEpochs runs the engine with an epoch observer, checks its result
// and epochs against the reference model, and returns them.
func runEpochs(t *testing.T, s *aiSource, cfg Config) ([]Epoch, Result) {
	t.Helper()
	return checkReference(t, "stream", s.insts, cfg)
}

// runBoth checks cfg over mk's stream twice against the reference:
// observed through runEpochs, whose engine fills every Epoch, and as a
// gang of one with no observer, which takes the stepper's inlined fast
// path. It returns runEpochs' epochs and result.
func runBoth(t *testing.T, mk func() *aiSource, cfg Config) ([]Epoch, Result) {
	t.Helper()
	epochs, res := runEpochs(t, mk(), cfg)
	if fast := RunGang(mk(), []Config{cfg})[0]; !reflect.DeepEqual(fast, res) {
		t.Fatalf("%s: unobserved gang result differs from the reference\ngang:      %+v\nreference: %+v", cfg.Name(), fast, res)
	}
	return epochs, res
}

func wantAccesses(t *testing.T, epochs []Epoch, want [][]int64) {
	t.Helper()
	if len(epochs) != len(want) {
		t.Fatalf("got %d epochs, want %d: %+v", len(epochs), len(want), epochs)
	}
	for i, w := range want {
		got := epochs[i].AccessIdx
		if len(got) != len(w) {
			t.Fatalf("epoch %d accesses = %v, want %v", i, got, w)
		}
		for k := range w {
			if got[k] != w[k] {
				t.Fatalf("epoch %d accesses = %v, want %v", i, got, w)
			}
		}
	}
}

func cfgWindow(n int, ic IssueConfig) Config {
	c := Default()
	c.IssueWindow, c.ROB = n, n
	c.Issue = ic
	c.FetchBuffer = 0
	return c
}

// --- the paper's worked examples -------------------------------------------

// Example 1 (§3.2.1): issue window/ROB size 4 terminates the window at i4.
// Epoch sets {i1,i4}, {i2,i3,i5}; MLP = (1+2)/2 = 1.5.
func TestPaperExample1WindowSize(t *testing.T) {
	s := src(
		ld(2, 1, true), // i1: load (r1)->r2  Dmiss
		add(4, 2, 3),   // i2: add r2,r3->r4
		ld(5, 4, true), // i3: load (r4)->r5  Dmiss
		add(2, 0, 1),   // i4: add r0,r1->r2
		ld(8, 7, true), // i5: load (r7)->r8  Dmiss
	)
	epochs, res := runEpochs(t, s, cfgWindow(4, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0}, {2, 4}})
	if mlp := res.MLP(); mlp != 1.5 {
		t.Fatalf("MLP = %v, want 1.5", mlp)
	}
	if epochs[0].Limiter != LimMaxwin {
		t.Fatalf("epoch 0 limiter = %v, want Maxwin", epochs[0].Limiter)
	}
}

// Example 2 (§3.2.2): a MEMBAR terminates the window. Epoch sets
// {i1,i2}, {i3,i4,i5}; MLP = (1+2)/2 = 1.5.
func TestPaperExample2Serializing(t *testing.T) {
	s := src(
		ld(2, 1, true), // i1: Dmiss
		membar(),       // i2
		add(4, 2, 3),   // i3
		ld(5, 4, true), // i4: Dmiss
		ld(8, 7, true), // i5: Dmiss
	)
	epochs, res := runEpochs(t, s, cfgWindow(64, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0}, {3, 4}})
	if mlp := res.MLP(); mlp != 1.5 {
		t.Fatalf("MLP = %v, want 1.5", mlp)
	}
	if epochs[0].Limiter != LimSerialize {
		t.Fatalf("epoch 0 limiter = %v, want Serialize", epochs[0].Limiter)
	}
	// Configuration E removes the serializing constraint: i4 and i5 no
	// longer wait for i1... i4 depends on i1 via r2->r4, so only i5
	// overlaps with i1.
	s2 := src(
		ld(2, 1, true),
		membar(),
		add(4, 2, 3),
		ld(5, 4, true),
		ld(8, 7, true),
	)
	epochs, res = runEpochs(t, s2, cfgWindow(64, ConfigE))
	wantAccesses(t, epochs, [][]int64{{0, 4}, {3}})
	if mlp := res.MLP(); mlp != 1.5 {
		t.Fatalf("config E MLP = %v", mlp)
	}
}

// Example 3 (§3.2.3-4): an I-miss ends the first window; an unresolvable
// mispredicted branch ends the second. Epoch sets {i1,i2f}, {i2,i3},
// {i4,i5}; MLP = (2+1+1)/3 = 1.33.
func TestPaperExample3ImissAndMispredict(t *testing.T) {
	s := src(
		ld(2, 1, true),      // i1: Dmiss
		imiss(add(4, 2, 3)), // i2: Imiss, depends on i1
		ld(5, 4, true),      // i3: Dmiss, depends on i2
		br(5, true),         // i4: mispredicted, depends on i3
		ld(8, 7, true),      // i5: Dmiss
	)
	epochs, res := runEpochs(t, s, cfgWindow(64, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0, 1}, {2}, {4}})
	if got, want := res.MLP(), 4.0/3.0; got != want {
		t.Fatalf("MLP = %v, want %v", got, want)
	}
	if epochs[0].Limiter != LimImissEnd {
		t.Fatalf("epoch 0 limiter = %v, want Imiss end", epochs[0].Limiter)
	}
	if epochs[1].Limiter != LimMispredBr {
		t.Fatalf("epoch 1 limiter = %v, want Mispred br", epochs[1].Limiter)
	}
}

// Example 4 (§3.4.1): the three load issue policies.
func TestPaperExample4LoadPolicies(t *testing.T) {
	mk := func() *aiSource {
		return src(
			ld(2, 1, true),   // i1: load 8(r1)->r2   Dmiss
			ld(3, 2, true),   // i2: load 0(r2)->r3   Dmiss (dep i1)
			ld(4, 1, true),   // i3: load 108(r1)->r4 Dmiss (independent)
			st(3, 5, 0x9000), // i4: store r5->0(r3)  (address dep on i2)
			ld(6, 1, true),   // i5: load 388(r1)->r6 Dmiss (independent)
		)
	}
	// Policy 1 (config A): {i1}, {i2,i3}, {i4,i5}.
	epochs, _ := runEpochs(t, mk(), cfgWindow(64, ConfigA))
	wantAccesses(t, epochs, [][]int64{{0}, {1, 2}, {4}})

	// Policy 2 (config B): {i1,i3}, {i2}, {i4,i5}.
	epochs, _ = runEpochs(t, mk(), cfgWindow(64, ConfigB))
	wantAccesses(t, epochs, [][]int64{{0, 2}, {1}, {4}})

	// Policy 3 (config C): {i1,i3,i5}, {i2}, {i4}.
	epochs, _ = runEpochs(t, mk(), cfgWindow(64, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0, 2, 4}, {1}})
}

// Example 5 (§3.4.2): the two branch issue policies.
func TestPaperExample5BranchPolicies(t *testing.T) {
	mk := func() *aiSource {
		return src(
			ld(2, 1, true), // i1: load 8(r1)->r2 Dmiss
			br(2, false),   // i2: beq r2 (dep i1, predicted correctly)
			br(1, true),    // i3: beq r1 (mispredicted; operands ready)
			ld(4, 1, true), // i4: load 108(r1)->r4 Dmiss
		)
	}
	// Policy 1 (in-order branches, config C): {i1}, {i2,i3,i4}.
	epochs, _ := runEpochs(t, mk(), cfgWindow(64, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0}, {3}})
	if epochs[0].Limiter != LimMispredBr {
		t.Fatalf("limiter = %v, want Mispred br", epochs[0].Limiter)
	}

	// Policy 2 (out-of-order branches, config D): {i1,i3,i4}, {i2}.
	epochs, _ = runEpochs(t, mk(), cfgWindow(64, ConfigD))
	wantAccesses(t, epochs, [][]int64{{0, 3}})
}

// --- additional behavioural tests ------------------------------------------

func TestImissStartIsBlocking(t *testing.T) {
	s := src(
		imiss(add(4, 2, 3)), // trigger is an I-miss: nothing overlaps
		ld(5, 1, true),
		ld(6, 1, true),
	)
	epochs, res := runEpochs(t, s, cfgWindow(64, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0}, {1, 2}})
	if epochs[0].Limiter != LimImissStart {
		t.Fatalf("limiter = %v, want Imiss start", epochs[0].Limiter)
	}
	if res.IAccesses != 1 || res.DAccesses != 2 {
		t.Fatalf("access kinds: %+v", res)
	}
}

func TestPrefetchesOverlapWithoutStalling(t *testing.T) {
	s := src(
		pf(1, true),
		pf(1, true),
		ld(2, 1, true),
		add(3, 2, 2), // consumer of the missing load
		ld(4, 3, true),
	)
	epochs, res := runEpochs(t, s, cfgWindow(64, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0, 1, 2}, {4}})
	if res.PAccesses != 2 {
		t.Fatalf("prefetch accesses = %d", res.PAccesses)
	}
	_ = epochs
}

func TestCorrectlyPredictedBranchDoesNotTerminate(t *testing.T) {
	s := src(
		ld(2, 1, true),
		br(2, false), // depends on the miss but predicted correctly
		ld(4, 1, true),
	)
	epochs, _ := runEpochs(t, s, cfgWindow(64, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0, 2}})
}

func TestResolvableMispredictDoesNotTerminate(t *testing.T) {
	s := src(
		ld(2, 1, true),
		br(3, true), // mispredicted but r3 is on-chip: resolves in-epoch
		ld(4, 1, true),
	)
	epochs, _ := runEpochs(t, s, cfgWindow(64, ConfigD))
	wantAccesses(t, epochs, [][]int64{{0, 2}})
}

func TestMemoryDependenceForwarding(t *testing.T) {
	// Store to address X whose data depends on a miss; a later load from X
	// must wait for the store even under config C.
	s := src(
		ld(2, 1, true), // miss producing r2
		annotate.Inst{Inst: isa.Inst{Class: isa.Store, Src1: 1, Src2: 2, Dst: isa.NoReg, EA: 0x5000}},
		annotate.Inst{Inst: isa.Inst{Class: isa.Load, Src1: 1, Src2: isa.NoReg, Dst: 5, EA: 0x5000},
			DMiss: true},
		ld(6, 1, true), // independent miss
	)
	epochs, _ := runEpochs(t, s, cfgWindow(64, ConfigC))
	// i2 (store data) waits on i1; i3 (same address) waits on i2; i4 free.
	wantAccesses(t, epochs, [][]int64{{0, 3}, {2}})
}

func TestRunaheadIgnoresWindowAndSerialization(t *testing.T) {
	// Window of 4 with a MEMBAR: conventional config C gets three epochs;
	// runahead overlaps everything independent.
	mk := func() *aiSource {
		return src(
			ld(2, 1, true), // i1 Dmiss (trigger)
			add(4, 2, 3),   // dep on i1
			membar(),       // serializing
			ld(5, 1, true), // independent Dmiss
			add(9, 9, 9),
			add(10, 9, 9),
			ld(6, 1, true), // independent Dmiss
			ld(7, 6, true), // dep on previous miss
		)
	}
	cfg := cfgWindow(4, ConfigD)
	_, conv := runBoth(t, mk, cfg)

	raeCfg := cfg.WithRunahead()
	epochs, rae := runBoth(t, mk, raeCfg)
	if rae.MLP() <= conv.MLP() {
		t.Fatalf("runahead MLP %.3f not above conventional %.3f", rae.MLP(), conv.MLP())
	}
	// First epoch overlaps i1, i4(idx 3) and i7(idx 6).
	wantAccesses(t, epochs, [][]int64{{0, 3, 6}, {7}})
}

func TestRunaheadDistanceLimit(t *testing.T) {
	// A miss, 10 filler, then another miss; runahead distance 8 cannot
	// reach the second miss.
	insts := []annotate.Inst{ld(2, 1, true)}
	for i := 0; i < 10; i++ {
		insts = append(insts, add(9, 9, 9))
	}
	insts = append(insts, ld(5, 1, true))
	cfg := cfgWindow(4, ConfigD).WithRunahead()
	cfg.MaxRunahead = 8
	epochs, _ := runBoth(t, func() *aiSource { return src(insts...) }, cfg)
	wantAccesses(t, epochs, [][]int64{{0}, {11}})
	if epochs[0].Limiter != LimRunahead {
		t.Fatalf("limiter = %v, want Runahead limit", epochs[0].Limiter)
	}
}

func TestPerfectBPRemovesMispredTermination(t *testing.T) {
	mk := func() *aiSource {
		return src(
			ld(2, 1, true),
			br(2, true), // unresolvable mispredict
			ld(4, 1, true),
		)
	}
	epochs, _ := runEpochs(t, mk(), cfgWindow(64, ConfigD))
	wantAccesses(t, epochs, [][]int64{{0}, {2}})

	cfg := cfgWindow(64, ConfigD)
	cfg.PerfectBP = true
	epochs, _ = runEpochs(t, mk(), cfg)
	wantAccesses(t, epochs, [][]int64{{0, 2}})
}

func TestPerfectIFetchRemovesImiss(t *testing.T) {
	mk := func() *aiSource {
		return src(
			ld(2, 1, true),
			imiss(add(4, 2, 3)),
			ld(5, 1, true),
		)
	}
	epochs, _ := runEpochs(t, mk(), cfgWindow(64, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0, 1}, {2}})

	cfg := cfgWindow(64, ConfigC)
	cfg.PerfectIFetch = true
	epochs, _ = runEpochs(t, mk(), cfg)
	wantAccesses(t, epochs, [][]int64{{0, 2}})
}

func TestPerfectVPCutsDependences(t *testing.T) {
	mk := func() *aiSource {
		return src(
			ld(2, 1, true), // miss
			ld(3, 2, true), // dependent miss
			ld(4, 3, true), // chain
		)
	}
	epochs, _ := runBoth(t, mk, cfgWindow(64, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0}, {1}, {2}})

	cfg := cfgWindow(64, ConfigC)
	cfg.PerfectVP = true
	epochs, res := runBoth(t, mk, cfg)
	wantAccesses(t, epochs, [][]int64{{0, 1, 2}})
	if res.MLP() != 3 {
		t.Fatalf("perfect VP MLP = %v, want 3", res.MLP())
	}
}

func TestInOrderStallOnMissVsUse(t *testing.T) {
	mk := func() *aiSource {
		return src(
			ld(2, 1, true), // miss
			ld(3, 1, true), // independent miss
			add(4, 2, 2),   // first use of r2
			ld(5, 1, true), // independent miss after the use
		)
	}
	// Stall-on-miss: window ends at the first missing load.
	cfg := Config{Mode: InOrderStallOnMiss}
	epochs, _ := runEpochs(t, mk(), cfg)
	wantAccesses(t, epochs, [][]int64{{0}, {1}, {3}})

	// Stall-on-use: the second load overlaps; the use terminates.
	cfg = Config{Mode: InOrderStallOnUse}
	epochs, _ = runEpochs(t, mk(), cfg)
	wantAccesses(t, epochs, [][]int64{{0, 1}, {3}})
}

// An outstanding miss under stall-on-use keeps the window open over a
// long independent stretch, so the in-order live window outgrows its
// initial 256 slots and must double without losing the miss or its use.
func TestInOrderWindowOutgrowsItsSlots(t *testing.T) {
	mk := func() *aiSource {
		insts := []annotate.Inst{ld(2, 1, true)}
		for i := 0; i < 1000; i++ {
			insts = append(insts, add(3, 3, 4))
		}
		insts = append(insts, add(5, 2, 2), ld(6, 1, true))
		return src(insts...)
	}
	epochs, res := runBoth(t, mk, Config{Mode: InOrderStallOnUse})
	wantAccesses(t, epochs, [][]int64{{0}, {1002}})
	if res.Instructions != 1003 {
		t.Fatalf("instructions = %d, want 1003", res.Instructions)
	}
}

func TestInOrderPrefetchesOverlap(t *testing.T) {
	s := src(
		pf(1, true),
		pf(1, true),
		ld(2, 1, true),
	)
	cfg := Config{Mode: InOrderStallOnMiss}
	epochs, res := runEpochs(t, s, cfg)
	wantAccesses(t, epochs, [][]int64{{0, 1, 2}})
	if res.MLP() != 3 {
		t.Fatalf("in-order prefetch MLP = %v, want 3", res.MLP())
	}
}

func TestInOrderSerializing(t *testing.T) {
	s := src(
		ld(2, 1, true),
		membar(),
		ld(3, 1, true),
	)
	cfg := Config{Mode: InOrderStallOnUse}
	epochs, _ := runEpochs(t, s, cfg)
	wantAccesses(t, epochs, [][]int64{{0}, {2}})
	if epochs[0].Limiter != LimSerialize {
		t.Fatalf("limiter = %v, want Serialize", epochs[0].Limiter)
	}
}

func TestValuePredictionCorrectCutsDependence(t *testing.T) {
	mkv := func(outcome1 vpred.Outcome) *aiSource {
		s := src(
			ld(2, 1, true),
			ld(3, 2, true),
		)
		s.insts[0].VPOutcome = outcome1
		return s
	}
	cfg := cfgWindow(64, ConfigC)
	cfg.ValuePredict = true

	epochs, _ := runEpochs(t, mkv(vpred.Correct), cfg)
	wantAccesses(t, epochs, [][]int64{{0, 1}})

	epochs, _ = runEpochs(t, mkv(vpred.NoPredict), cfg)
	wantAccesses(t, epochs, [][]int64{{0}, {1}})
}

func TestValuePredictionWrongFlushesWindow(t *testing.T) {
	s := src(
		ld(2, 1, true),
		add(3, 2, 2),   // consumer of the wrongly predicted load
		ld(4, 1, true), // would otherwise overlap
	)
	s.insts[0].VPOutcome = vpred.Wrong
	cfg := cfgWindow(64, ConfigC)
	cfg.ValuePredict = true
	epochs, _ := runEpochs(t, s, cfg)
	// The consumer triggers a recovery flush: i3's miss lands in epoch 2.
	wantAccesses(t, epochs, [][]int64{{0}, {2}})
	if epochs[0].Limiter != LimVPMisp {
		t.Fatalf("limiter = %v, want VP misp", epochs[0].Limiter)
	}
}

func TestFetchBufferFindsImissAfterMaxwin(t *testing.T) {
	// Window 2 fills on the miss + dependent; an I-miss two instructions
	// later is still found by the 32-entry fetch buffer and overlaps.
	s := src(
		ld(2, 1, true),
		add(3, 2, 2),
		add(9, 9, 9),
		imiss(add(8, 8, 8)),
		ld(4, 1, true),
	)
	cfg := cfgWindow(2, ConfigC)
	cfg.FetchBuffer = 32
	epochs, res := runEpochs(t, s, cfg)
	if len(epochs) == 0 || epochs[0].IAccesses != 1 || epochs[0].DAccesses != 1 {
		t.Fatalf("epoch 0 should contain the Dmiss and the fetch-buffered Imiss: %+v", epochs)
	}
	if res.IAccesses != 1 {
		t.Fatalf("IAccesses = %d", res.IAccesses)
	}

	// Without a fetch buffer the I-miss waits for the next epoch.
	s2 := src(
		ld(2, 1, true),
		add(3, 2, 2),
		add(9, 9, 9),
		imiss(add(8, 8, 8)),
		ld(4, 1, true),
	)
	cfg.FetchBuffer = 0
	epochs, _ = runEpochs(t, s2, cfg)
	if epochs[0].IAccesses != 0 {
		t.Fatalf("epoch 0 without fetch buffer should not see the Imiss: %+v", epochs[0])
	}
}

// TestFetchBufferNamesImissByPosition: a warmed annotator or a cache
// replay numbers Index from the warm-up count, but every access is named
// by its position in the measured stream, the fetch-buffered I-miss too.
func TestFetchBufferNamesImissByPosition(t *testing.T) {
	s := src(
		ld(2, 1, true),
		add(3, 2, 2),
		add(9, 9, 9),
		imiss(add(8, 8, 8)),
		ld(4, 1, true),
	)
	for i := range s.insts {
		s.insts[i].Index += 20_000
	}
	cfg := cfgWindow(2, ConfigC)
	cfg.FetchBuffer = 32
	epochs, _ := runEpochs(t, s, cfg)
	wantAccesses(t, epochs, [][]int64{{0, 3}, {4}})
	if epochs[0].Trigger != 0 {
		t.Fatalf("epoch 0 trigger = %d, want 0", epochs[0].Trigger)
	}
}

func TestMaxInstructionsBound(t *testing.T) {
	var insts []annotate.Inst
	for i := 0; i < 100; i++ {
		insts = append(insts, add(9, 9, 9))
	}
	cfg := cfgWindow(64, ConfigC)
	cfg.MaxInstructions = 40
	res := NewEngine(src(insts...), cfg).Run()
	if res.Instructions != 40 {
		t.Fatalf("instructions = %d, want 40", res.Instructions)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Mode: OutOfOrder, IssueWindow: 0, ROB: 64},
		{Mode: OutOfOrder, IssueWindow: 64, ROB: 32},
		{Mode: OutOfOrder, IssueWindow: 4, ROB: 4, FetchBuffer: -1},
		{Mode: OutOfOrder, IssueWindow: 4, ROB: 4, Runahead: true, MaxRunahead: 0},
		{Mode: OutOfOrder, IssueWindow: 4, ROB: 4, Issue: IssueConfig(9)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good := Default()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestIssueConfigPredicates(t *testing.T) {
	if !ConfigA.LoadsInOrder() || ConfigB.LoadsInOrder() {
		t.Fatal("LoadsInOrder wrong")
	}
	if !ConfigB.LoadsWaitStoreAddr() || ConfigC.LoadsWaitStoreAddr() {
		t.Fatal("LoadsWaitStoreAddr wrong")
	}
	if !ConfigC.BranchesInOrder() || ConfigD.BranchesInOrder() {
		t.Fatal("BranchesInOrder wrong")
	}
	if !ConfigD.Serializing() || ConfigE.Serializing() {
		t.Fatal("Serializing wrong")
	}
	for s, want := range map[string]IssueConfig{"A": ConfigA, "b": ConfigB, "E": ConfigE} {
		got, err := ParseIssueConfig(s)
		if err != nil || got != want {
			t.Fatalf("ParseIssueConfig(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseIssueConfig("Z"); err == nil {
		t.Fatal("Z accepted")
	}
}

func TestConfigName(t *testing.T) {
	c := Default()
	if c.Name() != "64C" {
		t.Fatalf("Name = %q", c.Name())
	}
	if got := c.WithIssue(ConfigD).WithROB(256).Name(); got != "64D/256" {
		t.Fatalf("Name = %q", got)
	}
	if got := c.WithRunahead().Name(); got != "64C+RAE" {
		t.Fatalf("Name = %q", got)
	}
}
