package core

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
)

// divergentGangs enumerates config vectors that deliberately mix the SoA
// fast path with every scalar-fallback trigger: in-order disciplines,
// value prediction, non-oracle disambiguation and epoch observers. Each
// vector also carries the features both paths implement (runahead,
// finite MSHR files and store buffers) and is checked to actually split
// both ways, so the property test below always exercises SoA engines
// and scalar engines sharing one ring.
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
		// Mixed MSHR limits: out of order they ride SoA, in order the
		// scalar engine.
		{mshr(0), mshr(1), mshr(4), ooo(256, ConfigC), inorderMSHR(2)},
		// Speculation mix: runahead and value prediction against plain OoO.
		{runahead(), ooo(64, ConfigD), vp(), ooo(32, ConfigE)},
		// Store-buffer limits plus an epoch observer.
		{sb(1), ooo(64, ConfigB), sb(4), observed},
		// Memory disambiguation modes: oracle rides SoA, the speculative
		// and conservative disambiguators fall back.
		{disamb(DisambStoreSets), ooo(64, ConfigC), disamb(DisambConservative), ooo(16, ConfigA)},
	}
}

// TestRunGangDivergentMatchesSequential is the divergence slow-path
// property test: gangs of deliberately flag-divergent configs — where
// SoA-eligible and fallback engines share the broadcast ring — must stay
// bit-identical to running each config alone. Streams carry data,
// prefetch, instruction and store misses plus mispredictions so every
// fallback trigger fires. Run under -race (see `make test`), it also
// checks the ring sharing is free of unsynchronized access.
func TestRunGangDivergentMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	var observedGang, observedSolo int
	gangs := divergentGangs(func(Epoch) { observedGang++ })
	for gi, cfgs := range gangs {
		soa, scalar := 0, 0
		for _, cfg := range cfgs {
			if SoAEligible(cfg) {
				soa++
			} else {
				scalar++
			}
		}
		if soa == 0 || scalar == 0 {
			t.Fatalf("gang %d does not diverge: %d SoA, %d scalar members", gi, soa, scalar)
		}

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
			}

			g := NewGang(&aiSource{insts: append([]annotate.Inst(nil), insts...)}, cfgs)
			got := g.Run()
			for i := range cfgs {
				// Func fields are never deeply equal unless nil; the
				// observer's effect is compared via the counters below.
				got[i].Config.OnEpoch, want[i].Config.OnEpoch = nil, nil
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("gang %d trial %d config %d (%s): divergent gang result differs from sequential\ngang: %+v\nsolo: %+v",
						gi, trial, i, cfgs[i].Name(), got[i], want[i])
				}
			}

			st := g.Stats()
			if st.SoAInsts == 0 || st.ScalarInsts == 0 {
				t.Fatalf("gang %d trial %d: stats do not reflect divergence: %+v", gi, trial, st)
			}
		}
	}
	if observedGang == 0 || observedGang != observedSolo {
		t.Fatalf("epoch observer fired %d times in gangs, %d solo; want equal and nonzero", observedGang, observedSolo)
	}
}
