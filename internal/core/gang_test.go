package core

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/vpred"
)

// sprinkleVP stamps pseudo-random value-prediction outcomes on the
// missing loads so the gang test exercises the vpCut/vpWrong paths.
func sprinkleVP(rng *rand.Rand, insts []annotate.Inst) {
	for i := range insts {
		if !insts[i].DMiss {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			insts[i].VPOutcome = vpred.Correct
		case 1:
			insts[i].VPOutcome = vpred.Wrong
		default:
			insts[i].VPOutcome = vpred.NoPredict
		}
	}
}

// randomGangConfig draws one engine configuration spanning the space the
// exhibits sweep: mixed window and ROB sizes, issue policies A–E,
// in-order modes, runahead, value prediction, finite MSHRs/store
// buffers, non-oracle disambiguation, and MaxInstructions on some
// members.
func randomGangConfig(rng *rand.Rand, streamLen int) Config {
	cfg := Default()
	sizes := []int{4, 16, 32, 64, 128, 256}
	cfg.IssueWindow = sizes[rng.Intn(len(sizes))]
	cfg.ROB = cfg.IssueWindow << rng.Intn(3)
	cfg.FetchBuffer = []int{0, 8, 32}[rng.Intn(3)]
	cfg.Issue = []IssueConfig{ConfigA, ConfigB, ConfigC, ConfigD, ConfigE}[rng.Intn(5)]
	switch rng.Intn(8) {
	case 0:
		cfg.Mode = InOrderStallOnMiss
	case 1:
		cfg.Mode = InOrderStallOnUse
	case 2:
		cfg.Runahead = true
		cfg.MaxRunahead = []int{128, 512}[rng.Intn(2)]
	}
	switch rng.Intn(4) {
	case 0:
		cfg.ValuePredict = true
	case 1:
		cfg.PerfectVP = true
	}
	if rng.Intn(3) == 0 {
		cfg.MSHRs = 1 + rng.Intn(8)
	}
	if rng.Intn(4) == 0 {
		cfg.StoreBuffer = 1 + rng.Intn(4)
	}
	if rng.Intn(4) == 0 {
		cfg.PerfectBP = true
	}
	if rng.Intn(4) == 0 {
		cfg.PerfectIFetch = true
	}
	if cfg.Mode == OutOfOrder && rng.Intn(3) == 0 {
		cfg.Disamb = []DisambMode{DisambStoreSets, DisambConservative}[rng.Intn(2)]
	}
	if rng.Intn(3) == 0 {
		cfg.MaxInstructions = int64(1 + rng.Intn(streamLen))
	}
	return cfg
}

// TestRunGangMatchesSequentialRandom is the core-level gang property
// test: for random streams and random config vectors of 1 to 8 configs,
// RunGang must be bit-identical to running each config alone over its
// own copy of the stream, and each solo run to the reference model.
func TestRunGangMatchesSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	for trial := 0; trial < 20; trial++ {
		n := 2000 + rng.Intn(6000)
		insts := randomStream(rng, n, 0.06, 0.01, 0.04, 0.02)
		sprinkleVP(rng, insts)
		sprinkleDeps(rng, insts)

		k := 1 + rng.Intn(8)
		cfgs := make([]Config, k)
		for i := range cfgs {
			cfgs[i] = randomGangConfig(rng, n)
		}

		want := make([]Result, k)
		for i, cfg := range cfgs {
			want[i] = NewEngine(&aiSource{insts: append([]annotate.Inst(nil), insts...)}, cfg).Run()
			if ref, _, _ := refRun(insts, cfg); !reflect.DeepEqual(want[i], ref) {
				t.Fatalf("trial %d config %d (%s): solo result differs from the reference\nsolo:      %+v\nreference: %+v",
					trial, i, cfg.Name(), want[i], ref)
			}
		}
		got := RunGang(&aiSource{insts: append([]annotate.Inst(nil), insts...)}, cfgs)

		for i := range cfgs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d config %d (%s): gang result differs from sequential\ngang: %+v\nsolo: %+v",
					trial, i, cfgs[i].Name(), got[i], want[i])
			}
		}
	}
}

// TestRunGangRingGrowth forces the broadcast ring past its initial
// capacity: a miss-free prefix is consumed whole by the big window's
// first epoch while a stall-on-miss member crawls, so the cursor spread
// exceeds gangRingInsts and the ring must double without corrupting
// entries the slow engine has yet to read.
func TestRunGangRingGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 4 * gangRingInsts
	insts := randomStream(rng, n, 0, 0, 0, 0) // no misses: epochs span the stream
	// A sparse tail of misses so the slow engine still terminates windows.
	for i := n / 2; i < n; i += 997 {
		insts[i].DMiss = true
	}

	fast := Default()
	fast.IssueWindow, fast.ROB = 256, 256
	slow := Default()
	slow.Mode = InOrderStallOnMiss

	cfgs := []Config{fast, slow}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = NewEngine(&aiSource{insts: append([]annotate.Inst(nil), insts...)}, cfg).Run()
	}
	got := RunGang(&aiSource{insts: append([]annotate.Inst(nil), insts...)}, cfgs)
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("config %d (%s): gang result differs after ring growth\ngang: %+v\nsolo: %+v",
				i, cfgs[i].Name(), got[i], want[i])
		}
	}
}

// TestRunGangDegenerate pins the trivial shapes: empty and singleton
// config vectors.
func TestRunGangDegenerate(t *testing.T) {
	if got := RunGang(&aiSource{}, nil); len(got) != 0 {
		t.Fatalf("RunGang(nil configs) = %v, want empty", got)
	}
	rng := rand.New(rand.NewSource(7))
	insts := randomStream(rng, 3000, 0.05, 0.01, 0.04, 0.02)
	want := NewEngine(&aiSource{insts: append([]annotate.Inst(nil), insts...)}, Default()).Run()
	got := RunGang(&aiSource{insts: append([]annotate.Inst(nil), insts...)}, []Config{Default()})
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("singleton gang differs from solo run\ngang: %+v\nsolo: %+v", got[0], want)
	}
}
