package core

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
)

// divergentGangs enumerates config vectors that deliberately mix every
// config kind the stepper gates separately: in-order disciplines, value
// prediction, non-oracle disambiguation and epoch observers, beside
// runahead, finite MSHR files and store buffers and plain out-of-order
// configs, so the property test below always runs different kinds on
// one ring.
func divergentGangs(onEpoch func(Epoch)) [][]Config {
	ooo := func(win int, is IssueConfig) Config {
		return Default().WithWindow(win).WithIssue(is)
	}
	inorder := func(mode WindowMode) Config {
		c := Default()
		c.Mode = mode
		return c
	}
	mshr := func(n int) Config {
		c := Default().WithWindow(64)
		c.MSHRs = n
		return c
	}
	inorderMSHR := func(n int) Config {
		c := inorder(InOrderStallOnUse)
		c.MSHRs = n
		return c
	}
	runahead := func() Config {
		c := Default().WithIssue(ConfigD)
		c.Runahead, c.MaxRunahead = true, 256
		return c
	}
	vp := func() Config {
		c := Default().WithWindow(128)
		c.ValuePredict = true
		return c
	}
	sb := func(n int) Config {
		c := Default().WithIssue(ConfigB)
		c.StoreBuffer = n
		return c
	}
	disamb := func(mode DisambMode) Config {
		c := Default().WithWindow(64)
		c.Disamb = mode
		return c
	}
	observed := Default().WithWindow(32)
	observed.OnEpoch = onEpoch
	return [][]Config{
		// Mixed execution disciplines.
		{ooo(64, ConfigE), inorder(InOrderStallOnUse), ooo(128, ConfigA), inorder(InOrderStallOnMiss)},
		// Mixed MSHR limits, out of order and in order.
		{mshr(0), mshr(1), mshr(4), ooo(256, ConfigC), inorderMSHR(2)},
		// Speculation mix: runahead and value prediction against plain OoO.
		{runahead(), ooo(64, ConfigD), vp(), ooo(32, ConfigE)},
		// Store-buffer limits plus an epoch observer.
		{sb(1), ooo(64, ConfigB), sb(4), observed},
		// Memory disambiguation modes: oracle, store sets and
		// conservative.
		{disamb(DisambStoreSets), ooo(64, ConfigC), disamb(DisambConservative), ooo(16, ConfigA)},
	}
}

// TestRunGangDivergentMatchesSequential is the divergence property
// test: gangs of deliberately flag-divergent configs sharing the
// broadcast ring must stay bit-identical to running each config alone,
// and to the reference model. Streams carry data, prefetch, instruction
// and store misses plus mispredictions, value-prediction and store-set
// outcomes, so every kind's rules fire. Run under -race (see `make
// test`), it also checks the ring sharing is free of unsynchronized
// access.
func TestRunGangDivergentMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	var observedGang, observedSolo int
	gangs := divergentGangs(func(Epoch) { observedGang++ })
	for gi, cfgs := range gangs {
		for trial := 0; trial < 5; trial++ {
			n := 3000 + rng.Intn(5000)
			insts := randomStream(rng, n, 0.06, 0.02, 0.03, 0.02)
			sprinkleVP(rng, insts)
			sprinkleDeps(rng, insts)

			want := make([]Result, len(cfgs))
			for i, cfg := range cfgs {
				solo := cfg
				if solo.OnEpoch != nil {
					solo.OnEpoch = func(Epoch) { observedSolo++ }
				}
				want[i] = NewEngine(&aiSource{insts: append([]annotate.Inst(nil), insts...)}, solo).Run()
				want[i].Config.OnEpoch = nil
				if ref, _, _ := refRun(insts, cfg); !reflect.DeepEqual(want[i], ref) {
					t.Fatalf("gang %d trial %d config %d (%s): solo result differs from the reference\nsolo:      %+v\nreference: %+v",
						gi, trial, i, cfgs[i].Name(), want[i], ref)
				}
			}

			got := RunGang(&aiSource{insts: append([]annotate.Inst(nil), insts...)}, cfgs)
			for i := range cfgs {
				// Func fields are never deeply equal unless nil; the
				// observer's effect is compared via the counters below.
				got[i].Config.OnEpoch = nil
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("gang %d trial %d config %d (%s): divergent gang result differs from sequential\ngang: %+v\nsolo: %+v",
						gi, trial, i, cfgs[i].Name(), got[i], want[i])
				}
			}
		}
	}
	if observedGang == 0 || observedGang != observedSolo {
		t.Fatalf("epoch observer fired %d times in gangs, %d solo; want equal and nonzero", observedGang, observedSolo)
	}
}
