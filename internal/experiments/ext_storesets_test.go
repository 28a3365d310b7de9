package experiments

import (
	"reflect"
	"strings"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/storeset"
	"mlpsim/internal/workload"
)

// TestExtStoreSetsBracketsOracle is the exhibit's headline property: for
// every workload and every predictor geometry, the store-set MLP lies
// between the always-conservative lower bound and the oracle upper
// bound — and the counters attribute the gap.
func TestExtStoreSetsBracketsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	s := tiny(45)
	s.Measure = 400_000
	s.DepStats = &DepStats{}
	res := RunExtStoreSets(s)
	wantRows := len(s.Workloads) * (2 + len(ExtStoreSetsSSITs)*len(ExtStoreSetsConfs))
	if len(res.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
	}

	byWL := map[string]map[string][]ExtStoreSetsRow{}
	var sumMisp, sumSer uint64
	for _, r := range res.Rows {
		if byWL[r.Workload] == nil {
			byWL[r.Workload] = map[string][]ExtStoreSetsRow{}
		}
		byWL[r.Workload][r.Disamb] = append(byWL[r.Workload][r.Disamb], r)
		sumMisp += r.Mispredicts
		sumSer += r.Serializes
	}
	const eps = 1e-9
	for wl, modes := range byWL {
		oracle, cons, ss := modes["oracle"], modes["conservative"], modes["store-sets"]
		if len(oracle) != 1 || len(cons) != 1 || len(ss) != len(ExtStoreSetsSSITs)*len(ExtStoreSetsConfs) {
			t.Fatalf("%s: row split oracle=%d cons=%d ss=%d", wl, len(oracle), len(cons), len(ss))
		}
		if oracle[0].Mispredicts != 0 || oracle[0].Serializes != 0 {
			t.Errorf("%s: oracle charged dep events: %+v", wl, oracle[0])
		}
		if cons[0].Mispredicts != 0 {
			t.Errorf("%s: conservative mode flushed: %+v", wl, cons[0])
		}
		if cons[0].Serializes == 0 {
			t.Errorf("%s: conservative mode never serialized a load", wl)
		}
		if cons[0].MLP > oracle[0].MLP+eps {
			t.Errorf("%s: conservative MLP %.4f above oracle %.4f", wl, cons[0].MLP, oracle[0].MLP)
		}
		for _, r := range ss {
			if r.MLP < cons[0].MLP-eps || r.MLP > oracle[0].MLP+eps {
				t.Errorf("%s ssit=%d conf=%d: MLP %.4f outside [conservative %.4f, oracle %.4f]",
					wl, r.SSIT, r.Conf, r.MLP, cons[0].MLP, oracle[0].MLP)
			}
		}
	}
	if m, sr := s.DepStats.Mispredicts.Load(), s.DepStats.Serializes.Load(); m != sumMisp || sr != sumSer {
		t.Errorf("DepStats (%d, %d) differ from row sums (%d, %d)", m, sr, sumMisp, sumSer)
	}
	out := res.String()
	if !strings.Contains(out, "Store-Set") || !strings.Contains(out, "conservative") {
		t.Fatal("rendering broken")
	}
}

// TestExtStoreSetsOracleBitIdentical pins the exhibit's baseline: an
// oracle-mode engine run over a store-set-annotated stream is
// bit-identical to the same run over a plain stream — the Dep column is
// carried but ignored.
func TestExtStoreSetsOracleBitIdentical(t *testing.T) {
	s := tiny(47, workload.Database(47))
	s.Measure = 300_000
	w := s.Workloads[0]
	plain := s.RunMLPsim(w, core.Default(), annotate.Config{})
	dep := s.RunMLPsim(w, core.Default(),
		annotate.Config{StoreSets: storeset.New(storeset.DefaultConfig())})
	if !reflect.DeepEqual(plain, dep) {
		t.Fatalf("oracle result changed under dep annotation\nplain: %+v\ndep:   %+v", plain, dep)
	}
}

// TestExtStoreSetsGangMatchesSolo pins the dispatch shape: the oracle,
// store-set and conservative modes share one gang, and the gang's
// results (and dep counters) are bit-identical to solo runs.
func TestExtStoreSetsGangMatchesSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("gang runs")
	}
	s := tiny(49, workload.Database(49))
	s.Measure = 300_000
	s.GangSize = 3
	s.GangStats = &GangStats{}
	s.DepStats = &DepStats{}
	w := s.Workloads[0]

	sscfg := storeset.Config{SSITSize: 1024, LFSTSize: 256, ConfThreshold: 0}
	mk := func(mode core.DisambMode) MLPPoint {
		cfg := core.Default()
		cfg.Disamb = mode
		return MLPPoint{Workload: w, Config: cfg,
			Annot: annotate.Config{StoreSets: storeset.New(sscfg)}}
	}
	points := []MLPPoint{mk(core.DisambOracle), mk(core.DisambStoreSets), mk(core.DisambConservative)}
	results := s.RunMLPsimBatch(points)

	if g := s.GangStats.Gangs.Load(); g != 1 {
		t.Fatalf("gang dispatches = %d, want 1", g)
	}
	if c := s.GangStats.Configs.Load(); c != 3 {
		t.Fatalf("ganged configs = %d, want 3", c)
	}
	var wantMisp, wantSer uint64
	for i, p := range points {
		solo := s.RunMLPsim(p.Workload, p.Config, annotate.Config{StoreSets: storeset.New(sscfg)})
		if !reflect.DeepEqual(results[i], solo) {
			t.Fatalf("point %d (%v): gang result differs from solo\ngang: %+v\nsolo: %+v",
				i, p.Config.Disamb, results[i], solo)
		}
		wantMisp += results[i].DepMispredicts
		wantSer += results[i].DepSerializes
	}
	// Gang pass + solo pass each accumulate once.
	if m := s.DepStats.Mispredicts.Load(); m != 2*wantMisp {
		t.Errorf("DepStats.Mispredicts = %d, want %d", m, 2*wantMisp)
	}
	if sr := s.DepStats.Serializes.Load(); sr != 2*wantSer {
		t.Errorf("DepStats.Serializes = %d, want %d", sr, 2*wantSer)
	}
	if results[2].DepSerializes == 0 {
		t.Error("conservative run serialized no loads")
	}
}
