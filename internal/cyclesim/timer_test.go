package cyclesim

import (
	"math/rand"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
)

// caseBytes reads a fuzz input one byte at a time; past its end it reads
// zeros.
type caseBytes []byte

func (b *caseBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// timerCaseHeader is the number of bytes timerCase reads for the config.
const timerCaseHeader = 18

// timerCase decodes bytes into a config with unlimited MSHRs and a
// stream. The config varies every field the pipeline reads: IW ≤ ROB
// (half the time decoupled), configurations A-C, stage widths 1-8,
// penalties from 1 cycle, a perfect L2, and an instruction limit that is
// 0, inside the stream or past its end. Each following 3 bytes make one
// instruction over eight registers and sixteen 8-byte words, so register
// chains and store-to-load forwarding are common; CASA, LDSTUB, MemBar,
// prefetches, I-misses and mispredicted branches all occur.
func timerCase(data []byte) ([]annotate.Inst, Config) {
	b := caseBytes(data)
	iw := 1 + b.next()%96
	cfg := Config{
		IssueWindow:       iw,
		ROB:               iw,
		FetchBuffer:       1 + b.next()%40,
		Issue:             core.IssueConfig(b.next() % 3),
		FetchWidth:        1 + b.next()%8,
		DispatchWidth:     1 + b.next()%8,
		IssueWidth:        1 + b.next()%8,
		RetireWidth:       1 + b.next()%8,
		MissPenalty:       1 + (b.next()<<8|b.next())%1024,
		L1Latency:         1 + b.next()%3,
		MispredictPenalty: b.next() % 16,
		PerfectL2:         b.next()%4 == 0,
	}
	cfg.L2Latency = cfg.L1Latency + b.next()%20
	if b.next()%2 == 1 {
		cfg.ROB += 1 + b.next()%128
	} else {
		b.next()
	}
	limitKind, limitVal := b.next()%3, b.next()<<8|b.next()

	insts := make([]annotate.Inst, 0, len(b)/3)
	for len(b) >= 3 {
		insts = append(insts, caseInst(b.next(), b.next(), b.next(), len(insts)))
	}
	switch limitKind {
	case 1:
		cfg.MaxInstructions = int64(limitVal % (len(insts) + 1))
	case 2:
		cfg.MaxInstructions = int64(len(insts) + 1 + limitVal%100)
	}
	return insts, cfg
}

// caseInst builds instruction i from three bytes: b0 picks the class and
// the miss, mispredict and I-miss bits, b1 the source registers, b2 the
// destination and the address word.
func caseInst(b0, b1, b2, i int) annotate.Inst {
	src1, src2, dst := isa.Reg(b1&7), isa.Reg(b1>>3&7), isa.Reg(b2&7)
	var in annotate.Inst
	in.Index = int64(i)
	in.PC = 0x1000 + uint64(i)*4
	in.EA = 0x8000 + uint64(b2>>3&15)*8
	miss := b0>>5&3 == 0
	in.IMiss = b0>>7 == 1 && b1>>6 == 0
	switch k := b0 & 31; {
	case k < 7:
		in.Inst = isa.Inst{Class: isa.Load, Src1: src1, Src2: isa.NoReg, Dst: dst}
		in.DMiss = miss
	case k < 11:
		in.Inst = isa.Inst{Class: isa.Store, Src1: src1, Src2: src2, Dst: isa.NoReg}
	case k < 13:
		in.Inst = isa.Inst{Class: isa.Prefetch, Src1: src1, Src2: isa.NoReg, Dst: isa.NoReg}
		in.PMiss = miss
	case k < 18:
		in.Inst = isa.Inst{Class: isa.Branch, Src1: src1, Src2: isa.NoReg, Dst: isa.NoReg}
		in.Mispred = miss
	case k == 18:
		in.Inst = isa.Inst{Class: isa.CASA, Src1: src1, Src2: src2, Dst: dst}
		in.DMiss = miss
	case k == 19:
		in.Inst = isa.Inst{Class: isa.LDSTUB, Src1: src1, Src2: isa.NoReg, Dst: dst}
		in.DMiss = miss
	case k == 20:
		in.Inst = isa.Inst{Class: isa.MemBar, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg}
	case k == 21:
		in.Inst = isa.Inst{Class: isa.NOP, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg}
	default:
		in.Inst = isa.Inst{Class: isa.ALU, Src1: src1, Src2: src2, Dst: dst}
	}
	return in
}

// checkTimer runs cfg over insts on the timer and on the stepping
// pipeline and fails unless the results are identical.
func checkTimer(t *testing.T, insts []annotate.Inst, cfg Config) {
	t.Helper()
	cfgs := []Config{cfg}
	got := newGang(&aiSource{insts: insts}, cfgs, false).run()[0]
	want := newGang(&aiSource{insts: insts}, cfgs, true).run()[0]
	if got != want {
		t.Fatalf("%d instructions, config %+v:\ntimer:   %+v\nstepper: %+v", len(insts), cfg, got, want)
	}
}

// TestTimerMatchesStepper is the timer's differential test: over 2,400
// random stream/config pairs with unlimited MSHRs, the timer's Result
// equals the stepping pipeline's. Half the configs come from timerCase's
// own bytes, half from randomConfig; a quarter of the streams hold 0-4
// instructions, the rest up to 3,000.
func TestTimerMatchesStepper(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 2400; trial++ {
		n := rng.Intn(3001)
		if trial%4 == 0 {
			n = rng.Intn(5)
		}
		data := make([]byte, timerCaseHeader+3*n)
		rng.Read(data)
		insts, cfg := timerCase(data)
		if trial%2 == 1 {
			cfg = randomConfig(rng, max(len(insts), 1))
			cfg.MSHRs = 0
		}
		checkTimer(t, insts, cfg)
	}
}

// FuzzTimerMatchesStepper searches timerCase's input space for a stream
// and config on which the timer and the stepping pipeline disagree.
func FuzzTimerMatchesStepper(f *testing.F) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 3, 40, 200, 200, 200, 200} {
		data := make([]byte, timerCaseHeader+3*n)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		insts, cfg := timerCase(data)
		checkTimer(t, insts, cfg)
	})
}

// TestTimerCalendarGrows: a chain of 12 dependent missing loads pushes
// issue past the 8 latencies the issue calendar is first sized for, so
// the timer grows it at the 12th link and must carry the live counts
// over. With one issue slot per cycle, a consumer of the 10th link's
// result then wants the cycle the 11th link took before the growth, and
// a chain of 10 misses behind it ends the run, so the cycle count
// depends on that slot.
func TestTimerCalendarGrows(t *testing.T) {
	var insts []annotate.Inst
	for k := isa.Reg(1); k <= 12; k++ {
		insts = append(insts, ld(k+1, k, true))
	}
	insts = append(insts, add(24, 11, 11))
	for range 10 {
		insts = append(insts, ld(24, 24, true))
	}
	cfg := Default(200)
	cfg.IssueWidth = 1
	g := newGang(&aiSource{insts: insts}, []Config{cfg}, false)
	initial := len(g.timers[0].cal)
	if res := g.run()[0]; res.Cycles != 4005 {
		t.Errorf("%d cycles, want 4005: the consumer issues a cycle after the 11th link", res.Cycles)
	}
	if n := len(g.timers[0].cal); n <= initial {
		t.Errorf("calendar stayed at %d cycles over a 12-miss chain", n)
	}
	checkTimer(t, insts, cfg)
}

// TestGangRunsUnlimitedMSHRsOnTimer guards the fast path: a config with
// unlimited MSHRs runs on a timer, one with a finite MSHR file on the
// stepping pipeline, and the test hook puts both on the pipeline.
func TestGangRunsUnlimitedMSHRsOnTimer(t *testing.T) {
	limited := Default(500)
	limited.MSHRs = 4
	cfgs := []Config{limited, Default(500)}
	g := newGang(&aiSource{}, cfgs, false)
	if len(g.timers) != 1 || g.timers[0].slot != 1 || len(g.pipes) != 1 || g.pipes[0].slot != 0 {
		t.Fatalf("MSHRs 4 then 0: %d timers, %d pipelines; want the second config timed, the first stepped",
			len(g.timers), len(g.pipes))
	}
	if g := newGang(&aiSource{}, cfgs, true); len(g.timers) != 0 || len(g.pipes) != 2 {
		t.Fatalf("stepAll: %d timers, %d pipelines; want every config stepped", len(g.timers), len(g.pipes))
	}
}

// TestEndOfRunWaitsForPrefetch pins the pipeline's end-of-run rule on
// both paths. A prefetch misses, then the last instruction is a
// mispredicted branch. Both are fetched in cycle 1, issue in 3 and retire
// in 4; fetch resumes at 12 (the branch is done at 4, plus the 8-cycle
// redirect) and only then finds the stream's end. That cycle makes no
// progress, so the pipeline leaps to the prefetch's completion at 503
// before it checks for the end: the run counts 502 cycles, the last 490
// of them idle, not 12.
func TestEndOfRunWaitsForPrefetch(t *testing.T) {
	insts := []annotate.Inst{
		{Inst: isa.Inst{Class: isa.Prefetch, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg, EA: 0x9000}, PMiss: true},
		{Inst: isa.Inst{Class: isa.Branch, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg}, Mispred: true},
	}
	cfg := Default(500)
	want := Result{Config: cfg, Instructions: 2, Cycles: 502, MLP: 1, MLPCycles: 500, Accesses: 1}
	for _, stepAll := range []bool{false, true} {
		if got := newGang(&aiSource{insts: insts}, []Config{cfg}, stepAll).run()[0]; got != want {
			t.Errorf("stepAll=%v: %+v, want %+v", stepAll, got, want)
		}
	}
}
