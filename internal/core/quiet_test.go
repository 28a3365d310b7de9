package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/isa"
)

// offChip reports whether an instruction's raw annotation goes off chip:
// the stops of a quiet stretch, restated over annotate.Inst.
func offChip(in *annotate.Inst) bool {
	return in.DMiss || in.PMiss || in.IMiss || in.SMiss
}

// quietRun returns n instructions that never go off chip but carry every
// rule a quiet instruction must pass: register chains, mispredicted
// branches, serializing instructions, loads forwarding from stores to a
// few hot words, and store-set outcomes.
func quietRun(rng *rand.Rand, n int) []annotate.Inst {
	insts := randomStream(rng, n, 0, 0, 0.05, 0.02)
	sprinkleDeps(rng, insts)
	for i := range insts {
		if insts[i].Class.IsMemRead() || insts[i].Class.IsMemWrite() {
			insts[i].EA = 0x4000 + 8*uint64(rng.Intn(16))
		}
	}
	return insts
}

// stopKinds are the instructions a quiet stretch ends at: a D-miss, a
// prefetch miss, an I-miss and a store miss.
var stopKinds = []annotate.Inst{ld(3, 1, true), pf(1, true), imiss(add(4, 4, 4)), smiss(1, 2, 0x4000)}

// quietStream alternates short busy runs with quiet stretches longer than
// two initial gang rings, each ended by the next stop kind in turn. It
// returns the stream and the first index of each quiet stretch.
func quietStream(rng *rand.Rand) ([]annotate.Inst, []int64) {
	var insts []annotate.Inst
	var starts []int64
	for _, stop := range stopKinds {
		busy := randomStream(rng, 200+rng.Intn(300), 0.1, 0.02, 0.05, 0.02)
		for i := range busy {
			if busy[i].Class == isa.Store {
				busy[i].SMiss = rng.Intn(3) == 0
			}
		}
		insts = append(insts, busy...)
		starts = append(starts, int64(len(insts)))
		insts = append(insts, quietRun(rng, 2*gangRingInsts+1+rng.Intn(4000))...)
		insts = append(insts, stop)
	}
	sprinkleVP(rng, insts)
	for i := range insts {
		insts[i].Index = int64(i)
		insts[i].PC = 0x1000 + uint64(i)*4
	}
	return insts, starts
}

// TestRingNextStop checks the ring's stop-bit scan against a linear scan
// of the stream: the first stop in [j, hi), or hi, from every live
// position. It covers a ring that has wrapped (the stale bits past head
// must not count) and one that has grown (the bitmap is rebuilt).
func TestRingNextStop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	insts := randomStream(rng, 3*gangRingInsts+123, 0.03, 0.01, 0.02, 0.02)
	for i := range insts {
		insts[i].SMiss = insts[i].Class == isa.Store && rng.Intn(8) == 0
	}
	brute := func(j, hi int64) int64 {
		for ; j < hi; j++ {
			if offChip(&insts[j]) {
				return j
			}
		}
		return hi
	}
	check := func(what string, r *gangRing, lo int64) {
		t.Helper()
		for j := lo; j < r.head; j++ {
			for _, hi := range []int64{j, j + 1, j + 63, j + 64, j + 200, r.head} {
				hi = min(hi, r.head)
				if got, want := r.nextStop(j, hi), brute(j, hi); got != want {
					t.Fatalf("%s: nextStop(%d, %d) = %d, want %d", what, j, hi, got, want)
				}
			}
		}
	}

	// No engine holds the tail, so the ring wraps instead of growing.
	r := newGangRing(&aiSource{insts: insts}, 0, 0)
	for _, head := range []int64{100, gangRingInsts + 77, 2*gangRingInsts + 3001} {
		r.ensure(head - 1)
		if len(r.lnk) != gangRingInsts {
			t.Fatalf("ring grew to %d without a claim", len(r.lnk))
		}
		check(fmt.Sprintf("wrapped ring, head %d", r.head), r, max(0, r.head-gangRingInsts))
	}

	// An engine whose retire frontier stays at 0 holds every entry, so
	// the ring doubles twice.
	r = newGangRing(&aiSource{insts: insts}, 0, 0)
	r.attach(Default())
	r.ensure(int64(len(insts)) - 1)
	if len(r.lnk) != 4*gangRingInsts {
		t.Fatalf("ring holds %d slots, want %d", len(r.lnk), 4*gangRingInsts)
	}
	check("grown ring", r, 0)
}

// TestSkipQuietStops checks where a skip from an empty window lands: at
// the first stop, at MaxInstructions or at the end of the stream, with
// the ring decoded no further than that, fetchEnd and retire together,
// and no per-slot state written. A skip past the ring's head retires
// what it crossed before decoding more, so the ring wraps instead of
// growing.
func TestSkipQuietStops(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const stretch = 2*gangRingInsts + 8
	quiet := quietRun(rng, stretch)
	withStop := append(append([]annotate.Inst(nil), quiet...), ld(3, 1, true), add(5, 3, 3))
	for _, tc := range []struct {
		name      string
		insts     []annotate.Inst
		limit     int64
		predecode int64 // decode this far first, growing the ring
		want      int64
		wantHead  int64
		wantEOF   bool
	}{
		{name: "stop", insts: withStop, want: stretch, wantHead: stretch + 1},
		{name: "stop-at-start", insts: withStop[stretch:], want: 0, wantHead: 1},
		{name: "stop-after-grow", insts: withStop, predecode: stretch + 2, want: stretch, wantHead: stretch + 2},
		{name: "limit", insts: withStop, limit: 5000, want: 5000, wantHead: 5000},
		{name: "end", insts: quiet, want: stretch, wantHead: stretch, wantEOF: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			cfg.MaxInstructions = tc.limit
			r := newGangRing(&aiSource{insts: tc.insts}, 0, instLimit(cfg))
			e := r.attach(cfg)
			if tc.predecode > 0 {
				r.ensure(tc.predecode - 1)
				e.syncRing()
			}
			if got := e.skipQuiet(0); got != tc.want || e.fetchEnd != tc.want || e.retire != tc.want {
				t.Fatalf("skipQuiet(0) = %d with fetchEnd %d, retire %d; want all %d", got, e.fetchEnd, e.retire, tc.want)
			}
			if r.head != tc.wantHead || r.eof != tc.wantEOF {
				t.Fatalf("ring decoded %d (eof %t), want %d (eof %t)", r.head, r.eof, tc.wantHead, tc.wantEOF)
			}
			if tc.predecode == 0 && len(r.lnk) != gangRingInsts {
				t.Fatalf("ring grew to %d slots while its only engine skipped", len(r.lnk))
			}
			for s, v := range e.readyAt {
				if v != notExecuted {
					t.Fatalf("slot %d written (readyAt %d)", s, v)
				}
			}
		})
	}
}

// TestQuietStretchWritesNoSlotState is the guard that fails if the
// stepper stops skipping: an unobserved engine's first epoch crosses a
// quiet stretch longer than its ring and fetches the missing load after
// it, and only that load's slot may have been written. It runs the
// default out-of-order config and Table 5's two in-order ones.
func TestQuietStretchWritesNoSlotState(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	insts := append(quietRun(rng, 2*gangRingInsts+8), ld(3, 1, true))
	load := int64(len(insts) - 1)
	for _, cfg := range []Config{Default(), {Mode: InOrderStallOnMiss}, {Mode: InOrderStallOnUse}} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			st := NewStepper(&aiSource{insts: insts}, cfg)
			if !st.Step() {
				t.Fatal("first epoch ended the run")
			}
			e := st.e
			if e.res.Epochs != 1 || e.fetchEnd != load+1 || e.retire != load {
				t.Fatalf("after one epoch: %d access epochs, fetchEnd %d, retire %d; want 1, %d, %d",
					e.res.Epochs, e.fetchEnd, e.retire, load+1, load)
			}
			for s, v := range e.readyAt {
				if int64(s) != load&e.mask && v != notExecuted {
					t.Fatalf("slot %d written (readyAt %d): the quiet stretch was fetched one instruction at a time", s, v)
				}
			}
			for st.Step() {
			}
			if want, _, _ := refRun(insts, cfg); !reflect.DeepEqual(st.Finish(), want) {
				t.Fatalf("result differs from the reference\nengine:    %+v\nreference: %+v", st.Finish(), want)
			}
		})
	}
}

// quietConfigs are the config kinds the skip must stay exact for: the
// plain default, every issue policy, PerfectIFetch (which stops at an
// I-miss bit it clears), runahead, realistic and perfect value
// prediction, finite MSHRs, a store buffer, non-oracle disambiguation,
// the fetch buffer, MaxInstructions inside the first quiet stretch, and
// both in-order disciplines.
func quietConfigs(firstStretch int64) []Config {
	var cfgs []Config
	for _, ic := range []IssueConfig{ConfigA, ConfigB, ConfigC, ConfigD, ConfigE} {
		cfgs = append(cfgs, Default().WithWindow(64).WithIssue(ic))
	}
	for _, edit := range []func(*Config){
		func(c *Config) { c.PerfectIFetch = true },
		func(c *Config) { c.Runahead, c.MaxRunahead = true, 512 },
		func(c *Config) { c.Runahead, c.ValuePredict = true, true },
		func(c *Config) { c.ValuePredict = true },
		func(c *Config) { c.PerfectVP = true },
		func(c *Config) { c.MSHRs = 2 },
		func(c *Config) { c.StoreBuffer = 1 },
		func(c *Config) { c.Disamb = DisambStoreSets },
		func(c *Config) { c.Disamb = DisambConservative },
		func(c *Config) { *c = c.WithWindow(16); c.FetchBuffer = 32 },
		func(c *Config) { c.MaxInstructions = firstStretch + 4321 },
		func(c *Config) { c.Mode = InOrderStallOnMiss },
		func(c *Config) { c.Mode = InOrderStallOnUse },
	} {
		c := Default()
		edit(&c)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestQuietStretchesMatchReference runs every quietConfigs kind over
// streams whose quiet stretches outrun the ring and end at each stop
// kind: unobserved (so the skip fires), stepped (the step count must
// match too) and all together as one gang, against the reference.
func TestQuietStretchesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 2; trial++ {
		insts, starts := quietStream(rng)
		cfgs := quietConfigs(starts[0])
		want := make([]Result, len(cfgs))
		for i, cfg := range cfgs {
			var steps int
			want[i], _, steps = refRun(insts, cfg)
			if got := NewEngine(&aiSource{insts: insts}, cfg).Run(); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("trial %d config %d (%s): engine result differs from the reference\nengine:    %+v\nreference: %+v",
					trial, i, cfg.Name(), got, want[i])
			}
			st := NewStepper(&aiSource{insts: insts}, cfg)
			n := 0
			for st.Step() {
				n++
			}
			if n != steps {
				t.Fatalf("trial %d config %d (%s): stepper took %d steps, the reference %d", trial, i, cfg.Name(), n, steps)
			}
		}
		got := RunGang(&aiSource{insts: insts}, cfgs)
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d config %d (%s): gang result differs from the reference\ngang:      %+v\nreference: %+v",
					trial, i, cfgs[i].Name(), got[i], want[i])
			}
		}
	}
}
