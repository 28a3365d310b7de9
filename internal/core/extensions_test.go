package core

import (
	"strings"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/isa"
)

// smiss builds a store with an off-chip write-allocate miss.
func smiss(addrReg, dataReg isa.Reg, ea uint64) annotate.Inst {
	in := st(addrReg, dataReg, ea)
	in.SMiss = true
	return in
}

func TestMSHRCapsEpochAccesses(t *testing.T) {
	mk := func() *aiSource {
		return src(
			ld(2, 1, true),
			ld(3, 1, true),
			ld(4, 1, true),
			ld(5, 1, true),
		)
	}
	// Unlimited: all four overlap.
	epochs, res := runBoth(t, mk, cfgWindow(64, ConfigC))
	wantAccesses(t, epochs, [][]int64{{0, 1, 2, 3}})
	if res.MLP() != 4 {
		t.Fatalf("unlimited MLP = %v", res.MLP())
	}
	// Two MSHRs: two accesses per epoch.
	cfg := cfgWindow(64, ConfigC)
	cfg.MSHRs = 2
	epochs, res = runBoth(t, mk, cfg)
	wantAccesses(t, epochs, [][]int64{{0, 1}, {2, 3}})
	if res.MLP() != 2 {
		t.Fatalf("2-MSHR MLP = %v", res.MLP())
	}
	if epochs[0].Limiter != LimMSHR {
		t.Fatalf("limiter = %v, want MSHR full", epochs[0].Limiter)
	}
	// One MSHR: fully serialized.
	cfg.MSHRs = 1
	_, res = runBoth(t, mk, cfg)
	if res.MLP() != 1 {
		t.Fatalf("1-MSHR MLP = %v", res.MLP())
	}
}

func TestMSHRAppliesToRunahead(t *testing.T) {
	mk := func() *aiSource {
		return src(
			ld(2, 1, true),
			ld(3, 1, true),
			ld(4, 1, true),
			ld(5, 1, true),
		)
	}
	cfg := cfgWindow(4, ConfigD).WithRunahead()
	cfg.MSHRs = 2
	_, res := runBoth(t, mk, cfg)
	if res.MLP() != 2 {
		t.Fatalf("runahead with 2 MSHRs MLP = %v, want 2", res.MLP())
	}
}

func TestMSHRGatesImiss(t *testing.T) {
	mk := func() *aiSource {
		return src(
			ld(2, 1, true),
			imiss(add(4, 9, 9)),
			ld(5, 1, true),
		)
	}
	cfg := cfgWindow(64, ConfigC)
	cfg.MSHRs = 1
	epochs, res := runBoth(t, mk, cfg)
	// Each access gets its own epoch: load, then the I-fetch, then load.
	if res.Epochs != 3 || res.MLP() != 1 {
		t.Fatalf("epochs=%d MLP=%v, want 3 serialized epochs", res.Epochs, res.MLP())
	}
	if epochs[0].Limiter != LimMSHR {
		t.Fatalf("limiter = %v", epochs[0].Limiter)
	}
}

func TestMSHRInOrder(t *testing.T) {
	s := src(
		pf(1, true),
		pf(1, true),
		pf(1, true),
	)
	cfg := Config{Mode: InOrderStallOnMiss, MSHRs: 2}
	_, res := runEpochs(t, s, cfg)
	// Two prefetches share the first epoch, the third gets its own:
	// MLP = (2+1)/2.
	if res.MLP() != 1.5 {
		t.Fatalf("in-order 2-MSHR prefetch MLP = %v, want 1.5", res.MLP())
	}
}

func TestStoreMLPCounting(t *testing.T) {
	s := src(
		smiss(1, 16, 0x1000),
		smiss(1, 16, 0x2000),
		ld(2, 1, true),
	)
	_, res := runEpochs(t, s, cfgWindow(64, ConfigC))
	// Store misses never join Accesses/MLP...
	if res.Accesses != 1 || res.MLP() != 1 {
		t.Fatalf("store misses leaked into MLP: %+v", res)
	}
	// ...but are tracked separately.
	if res.SAccesses != 2 || res.StoreEpochs != 1 {
		t.Fatalf("store accounting: S=%d epochs=%d, want 2/1", res.SAccesses, res.StoreEpochs)
	}
	if res.StoreMLP() != 2 {
		t.Fatalf("store MLP = %v, want 2", res.StoreMLP())
	}
}

func TestFiniteStoreBufferBlocksWindow(t *testing.T) {
	mk := func() *aiSource {
		return src(
			smiss(1, 16, 0x1000),
			smiss(1, 17, 0x2000),
			smiss(1, 18, 0x3000),
			ld(2, 1, true), // independent load after the stores
		)
	}
	// Infinite store buffer: stores are invisible; the load's epoch is
	// the only one.
	_, res := runBoth(t, mk, cfgWindow(64, ConfigC))
	if res.Epochs != 1 || res.StoreEpochs != 1 || res.SAccesses != 3 {
		t.Fatalf("baseline store run: %+v", res)
	}
	// One-entry store buffer: each store miss drains before the next
	// store can issue; the load still issues with the FIRST store's epoch
	// (loads are not blocked by the store buffer).
	cfg := cfgWindow(64, ConfigC)
	cfg.StoreBuffer = 1
	_, res = runBoth(t, mk, cfg)
	if res.StoreEpochs != 3 || res.SAccesses != 3 {
		t.Fatalf("1-entry SB: StoreEpochs=%d SAccesses=%d, want 3/3", res.StoreEpochs, res.SAccesses)
	}
	if res.StoreMLP() != 1 {
		t.Fatalf("1-entry SB store MLP = %v, want 1", res.StoreMLP())
	}
	if res.Limiters[LimStoreBuf] == 0 {
		t.Fatal("no store-buffer limiter recorded")
	}
}

func TestStoreBufferIgnoredInRunahead(t *testing.T) {
	mk := func() *aiSource {
		return src(
			ld(2, 1, true), // trigger
			smiss(1, 16, 0x1000),
			smiss(1, 17, 0x2000),
			ld(3, 1, true),
		)
	}
	cfg := cfgWindow(64, ConfigD).WithRunahead()
	cfg.StoreBuffer = 1
	_, res := runBoth(t, mk, cfg)
	// Runahead stores do not update state: both loads overlap regardless
	// of the store buffer.
	if res.MLP() != 2 {
		t.Fatalf("runahead MLP with tiny SB = %v, want 2", res.MLP())
	}
}

func TestExtensionConfigValidation(t *testing.T) {
	cfg := Default()
	cfg.MSHRs = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative MSHRs accepted")
	}
	cfg = Default()
	cfg.StoreBuffer = -2
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative store buffer accepted")
	}
}

func TestTimelineRendering(t *testing.T) {
	var tl Timeline
	s := src(
		ld(2, 1, true),
		ld(3, 1, true),
		add(4, 2, 2),
		ld(5, 4, true),
	)
	cfg := cfgWindow(64, ConfigC)
	cfg.OnEpoch = tl.OnEpoch
	NewEngine(s, cfg).Run()
	out := tl.String()
	if !strings.Contains(out, "##") {
		t.Fatalf("first epoch should show two overlapped accesses:\n%s", out)
	}
	if !strings.Contains(out, "access(es)") || !strings.Contains(out, "ends:") {
		t.Fatalf("missing annotations:\n%s", out)
	}
	// Cap behaviour.
	capped := Timeline{MaxEpochs: 1}
	s2 := src(ld(2, 1, true), ld(3, 2, true), ld(4, 3, true))
	cfg2 := cfgWindow(64, ConfigC)
	cfg2.OnEpoch = capped.OnEpoch
	NewEngine(s2, cfg2).Run()
	if n := strings.Count(capped.String(), "ends:"); n != 1 {
		t.Fatalf("MaxEpochs=1 rendered %d epochs", n)
	}
	var empty Timeline
	if !strings.Contains(empty.String(), "no epochs") {
		t.Fatal("empty timeline broken")
	}
}
