package experiments

import (
	"strings"
	"testing"

	"mlpsim/internal/core"
	"mlpsim/internal/workload"
)

// tiny returns a reduced setup (single workload, short runs) for the
// heavyweight sweeps.
func tiny(seed int64, ws ...workload.Config) Setup {
	s := Quick(seed)
	s.Warmup = 250_000
	s.Measure = 600_000
	if len(ws) > 0 {
		s.Workloads = ws
	}
	return s
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-simulator runs")
	}
	res := RunTable1(tiny(1, workload.Database(1)))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var r200, r1000 Characterization
	for _, r := range res.Rows {
		if r.Penalty == 200 {
			r200 = r
		} else {
			r1000 = r
		}
	}
	if r1000.CPI <= r200.CPI {
		t.Fatalf("CPI at 1000 (%.2f) not above CPI at 200 (%.2f)", r1000.CPI, r200.CPI)
	}
	// At 1000 cycles the database workload is dominated by off-chip CPI
	// (paper: CPI_off-chip > 3x CPI_on-chip).
	if r1000.CPIOffChip <= r1000.CPIOnChip {
		t.Fatalf("off-chip CPI %.2f not dominant over on-chip %.2f at 1000 cycles",
			r1000.CPIOffChip, r1000.CPIOnChip)
	}
	if r1000.MLP < 1 || r1000.MLP > 4 {
		t.Fatalf("MLP = %.2f out of plausible range", r1000.MLP)
	}
	if r1000.OverlapCM < 0 || r1000.OverlapCM > 0.6 {
		t.Fatalf("Overlap_CM = %.2f implausible (paper: ~0.2)", r1000.OverlapCM)
	}
	if !strings.Contains(res.String(), "Table 1") {
		t.Fatal("rendering broken")
	}
}

func TestFigure2Clustered(t *testing.T) {
	res := RunFigure2(tiny(2, workload.Database(2), workload.Web(2)))
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, se := range res.Series {
		if se.MeanDistance <= 0 {
			t.Fatalf("%s: no misses observed", se.Workload)
		}
		// Find the index of point 32 and compare observed vs uniform.
		for i, p := range se.Points {
			if p == 32 {
				if se.Observed[i] < 1.5*se.Uniform[i] {
					t.Errorf("%s: CDF@32 observed %.3f vs uniform %.3f — not clustered",
						se.Workload, se.Observed[i], se.Uniform[i])
				}
			}
		}
		// CDFs are monotone.
		for i := 1; i < len(se.Observed); i++ {
			if se.Observed[i] < se.Observed[i-1] {
				t.Fatalf("%s: observed CDF not monotone", se.Workload)
			}
		}
	}
	if !strings.Contains(res.String(), "Figure 2") {
		t.Fatal("rendering broken")
	}
}

func TestTable3Validation(t *testing.T) {
	if testing.Short() {
		t.Skip("108 simulator runs")
	}
	res := RunTable3(tiny(3))
	if len(res.Rows) != 27 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, w := range workload.Presets(3) {
		wres := Table3{}
		for _, r := range res.Rows {
			if r.Workload == w.Name {
				wres.Rows = append(wres.Rows, r)
			}
		}
		if len(wres.Rows) != 9 {
			t.Fatalf("%s: rows = %d", w.Name, len(wres.Rows))
		}
		// The paper's claim: MLPsim matches the cycle simulator,
		// essentially exactly at 1000 cycles. Allow modest tolerance on
		// short runs.
		if e := wres.MaxRelError(1000); e > 0.08 {
			t.Fatalf("%s: max relative error at 1000 cycles = %.3f, want < 0.08\n%s", w.Name, e, wres)
		}
		// Agreement improves (or at least does not degrade much) as
		// latency grows from 200 to 1000.
		if e200, e1000 := wres.MaxRelError(200), wres.MaxRelError(1000); e1000 > e200+0.03 {
			t.Fatalf("%s: error at 1000 (%.3f) much worse than at 200 (%.3f)", w.Name, e1000, e200)
		}
		// MLP grows with window size for a fixed config.
		for _, ic := range []core.IssueConfig{core.ConfigA, core.ConfigC} {
			var prev float64
			for _, win := range []int{32, 64, 128} {
				for _, r := range wres.Rows {
					if r.Window == win && r.Issue == ic {
						if r.MLPsim+0.03 < prev {
							t.Fatalf("%s: MLPsim not monotone in window for %v", w.Name, ic)
						}
						prev = r.MLPsim
					}
				}
			}
		}
	}
}

// TestTable4EstimateAccuracy holds every workload to the bound
// EXPERIMENTS.md states: estimates within 0.5% of the measured CPI for
// Database and SPECjbb2000, within 5% for SPECweb99 (the paper: 2%).
func TestTable4EstimateAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("27 simulator runs")
	}
	res := RunTable4(tiny(4))
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	bound := map[string]float64{"Database": 0.005, "SPECjbb2000": 0.005, "SPECweb99": 0.05}
	for _, w := range workload.Presets(4) {
		wres := Table4{}
		for _, r := range res.Rows {
			if r.Workload == w.Name {
				wres.Rows = append(wres.Rows, r)
			}
		}
		if len(wres.Rows) != 3 {
			t.Fatalf("%s: rows = %d", w.Name, len(wres.Rows))
		}
		if e := wres.MaxRelError(); e > bound[w.Name] {
			t.Errorf("%s: max relative CPI estimation error = %.4f, want < %.3f\n%s", w.Name, e, bound[w.Name], wres)
		}
	}
}

func TestTable5InOrder(t *testing.T) {
	res := RunTable5(tiny(5))
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.StallOnMiss < 1 || r.StallOnUse+0.02 < r.StallOnMiss {
			t.Fatalf("%s: SOM %.3f / SOU %.3f violate ordering", r.Workload, r.StallOnMiss, r.StallOnUse)
		}
	}
	// SPECweb99's software prefetches give it the highest in-order MLP
	// (paper Table 5).
	var web, db Table5Row
	for _, r := range res.Rows {
		switch r.Workload {
		case "SPECweb99":
			web = r
		case "Database":
			db = r
		}
	}
	if web.StallOnMiss <= db.StallOnMiss {
		t.Fatalf("web in-order MLP %.3f not above database %.3f (prefetches!)",
			web.StallOnMiss, db.StallOnMiss)
	}
}

func TestFigure4Trends(t *testing.T) {
	if testing.Short() {
		t.Skip("25 simulator runs")
	}
	res := RunFigure4(tiny(6, workload.JBB(6)))
	// Monotone in window size at fixed config, and A <= E at fixed size.
	for _, ic := range Figure4Configs {
		prev := 0.0
		for _, size := range Figure4Sizes {
			c := res.Lookup("SPECjbb2000", size, ic)
			if c == nil {
				t.Fatalf("missing cell %d%v", size, ic)
			}
			if c.MLP+0.03 < prev {
				t.Fatalf("MLP decreasing in window for %v", ic)
			}
			prev = c.MLP
		}
	}
	for _, size := range Figure4Sizes {
		a := res.Lookup("SPECjbb2000", size, core.ConfigA).MLP
		e := res.Lookup("SPECjbb2000", size, core.ConfigE).MLP
		if e+0.03 < a {
			t.Fatalf("config E (%.3f) below config A (%.3f) at %d", e, a, size)
		}
	}
	// SPECjbb2000's serialization: at 256 entries config E clearly beats
	// config D (§5.3.1).
	d := res.Lookup("SPECjbb2000", 256, core.ConfigD).MLP
	e := res.Lookup("SPECjbb2000", 256, core.ConfigE).MLP
	if e < d*1.1 {
		t.Fatalf("jbb 256E (%.3f) not >10%% above 256D (%.3f)", e, d)
	}
}

func TestFigure5LimiterShares(t *testing.T) {
	if testing.Short() {
		t.Skip("25 simulator runs")
	}
	res := RunFigure5(tiny(7, workload.JBB(7)))
	for _, c := range res.Cells {
		fr := c.Result.LimiterFracs()
		sum := 0.0
		for _, x := range fr {
			sum += x
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%d%v: limiter fractions sum to %.3f", c.Window, c.Issue, sum)
		}
	}
	// At large windows under config D, serialization dominates for jbb.
	for _, c := range res.Cells {
		if c.Window == 256 && c.Issue == core.ConfigD {
			fr := c.Result.LimiterFracs()
			if fr[core.LimSerialize] < 0.3 {
				t.Fatalf("jbb 256D serialize share = %.3f, want > 0.3", fr[core.LimSerialize])
			}
		}
	}
	if !strings.Contains(res.String(), "Figure 5") {
		t.Fatal("rendering broken")
	}
}

func TestFigure6Decoupling(t *testing.T) {
	if testing.Short() {
		t.Skip("64 simulator runs")
	}
	res := RunFigure6(tiny(8, workload.Database(8)))
	// MLP non-decreasing in ROB at fixed IW/config.
	for _, iw := range Figure6IWs {
		for _, ic := range Figure6Configs {
			prev := 0.0
			for _, m := range Figure6Mults {
				mlp := res.Lookup("Database", iw, ic, iw*m)
				if mlp < 0 {
					t.Fatalf("missing cell %d%v ROB=%d", iw, ic, iw*m)
				}
				if mlp+0.03 < prev {
					t.Fatalf("MLP decreasing in ROB for %d%v", iw, ic)
				}
				prev = mlp
			}
		}
	}
	// Enlarging the ROB beats not enlarging it for config E at IW 64
	// (§5.3.2's headline), and INF tops everything.
	base := res.Lookup("Database", 64, core.ConfigE, 64)
	big := res.Lookup("Database", 64, core.ConfigE, 512)
	if big <= base {
		t.Fatalf("64E ROB 512 (%.3f) not above ROB 64 (%.3f)", big, base)
	}
	inf := res.INF["Database"]
	for _, c := range res.Cells {
		if c.MLP > inf*1.03 {
			t.Fatalf("cell %d%v/%d MLP %.3f exceeds INF %.3f", c.IW, c.Issue, c.ROB, c.MLP, inf)
		}
	}
}

func TestFigure7CacheSize(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulator runs (capacity effects need multi-million-instruction reuse distances)")
	}
	// The warm-region replay distances are several million instructions,
	// so this sweep needs longer runs than the other experiments.
	s := tiny(9, workload.Database(9), workload.JBB(9))
	s.Warmup = 1_500_000
	s.Measure = 6_000_000
	res := RunFigure7(s)
	// Larger L2 → lower miss rate for both, and (paper §5.3.3) lower MLP:
	// the eliminated misses come from high-MLP clusters. We compare the
	// default 2MB configuration against 8MB.
	for _, wname := range []string{"Database", "SPECjbb2000"} {
		var mid, last Figure7Cell
		for _, c := range res.Cells {
			if c.Workload != wname {
				continue
			}
			if c.L2Bytes == 2<<20 {
				mid = c
			}
			if c.L2Bytes == 8<<20 {
				last = c
			}
		}
		if last.MissRate >= mid.MissRate {
			t.Fatalf("%s: miss rate did not fall with L2 size (%.3f -> %.3f)",
				wname, mid.MissRate, last.MissRate)
		}
		if last.MLP >= mid.MLP {
			t.Fatalf("%s: MLP did not fall with L2 size (%.3f -> %.3f)", wname, mid.MLP, last.MLP)
		}
	}
}

func TestFigure8Runahead(t *testing.T) {
	if testing.Short() {
		t.Skip("9 simulator runs")
	}
	res := RunFigure8(tiny(10))
	for _, r := range res.Rows {
		if !(r.RAE > r.Conv256 && r.Conv256 >= r.Conv64-0.02) {
			t.Fatalf("%s: ordering broken: 64D=%.3f 64D/256=%.3f RAE=%.3f",
				r.Workload, r.Conv64, r.Conv256, r.RAE)
		}
		gain := r.RAE/r.Conv64 - 1
		if gain < 0.10 || gain > 2.0 {
			t.Fatalf("%s: RAE gain %.0f%% outside the paper's 49-102%% ballpark",
				r.Workload, 100*gain)
		}
	}
}

func TestTable6ValuePredictor(t *testing.T) {
	res := RunTable6(tiny(11))
	for _, r := range res.Rows {
		sum := r.Correct + r.Wrong + r.NoPredict
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: fractions sum to %.3f", r.Workload, sum)
		}
		if r.Wrong > 0.2 {
			t.Fatalf("%s: wrong fraction %.3f too high (confidence should silence)", r.Workload, r.Wrong)
		}
	}
}

func TestFigure9ValuePrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulator runs")
	}
	res := RunFigure9(tiny(12, workload.Database(12)))
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var rae Figure9Row
	for _, r := range res.Rows {
		if r.Base == "RAE" {
			rae = r
		}
	}
	// §5.5: the RAE configuration shows the most gain for the database
	// workload, and it must be positive.
	if rae.MLPVP <= rae.MLPBase {
		t.Fatalf("VP did not improve RAE MLP (%.3f -> %.3f)", rae.MLPBase, rae.MLPVP)
	}
	for _, r := range res.Rows {
		if r.Base != "RAE" && r.PerfGainPct > rae.PerfGainPct+1 {
			t.Fatalf("conventional VP gain %.1f%% above RAE's %.1f%%", r.PerfGainPct, rae.PerfGainPct)
		}
	}
}

func TestFigure10LimitStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulator runs")
	}
	res := RunFigure10(tiny(13, workload.Database(13)))
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.PerfVP+0.03 < r.Base || r.PerfBP+0.03 < r.Base {
			t.Fatalf("%s/%s: perfect VP/BP lowered MLP: %+v", r.Workload, r.Baseline, r)
		}
		if r.PerfVPBP+0.03 < r.PerfVP || r.PerfVPBP+0.03 < r.PerfBP {
			t.Fatalf("%s/%s: combined perfect VP+BP below individual: %+v", r.Workload, r.Baseline, r)
		}
	}
	// RAE baseline dominates the conventional baseline cell by cell.
	var rae, conv Figure10Row
	for _, r := range res.Rows {
		if r.Baseline == "RAE" {
			rae = r
		} else {
			conv = r
		}
	}
	if rae.Base <= conv.Base || rae.PerfVPBP <= conv.PerfVPBP {
		t.Fatalf("RAE baseline not dominant: %+v vs %+v", rae, conv)
	}
}

func TestFigure11Performance(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulator runs")
	}
	res := RunFigure11(tiny(14, workload.Database(14)))
	gains := map[string]float64{}
	for _, r := range res.Rows {
		gains[r.Config] = r.GainPct
	}
	if gains["64D"] != 0 {
		t.Fatalf("baseline gain = %.1f%%, want 0", gains["64D"])
	}
	if gains["RAE"] <= 5 {
		t.Fatalf("RAE gain = %.1f%%, want clearly positive (paper: 60%%)", gains["RAE"])
	}
	if gains["RAE.perfVP.perfBP"] < gains["RAE"] {
		t.Fatalf("limit gain %.1f%% below RAE %.1f%%", gains["RAE.perfVP.perfBP"], gains["RAE"])
	}
	if gains["64D/256"] < -1 {
		t.Fatalf("bigger ROB hurt performance: %.1f%%", gains["64D/256"])
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("registry has %d exhibits, want 23 (14 paper + 9 extensions)", len(all))
	}
	want := []string{"table1", "figure2", "table3", "table4", "table5", "figure4",
		"figure5", "figure6", "figure7", "figure8", "table6", "figure9", "figure10", "figure11"}
	for _, id := range want {
		if Find(id) == nil {
			t.Fatalf("missing exhibit %q", id)
		}
	}
	if Find("nope") != nil {
		t.Fatal("bogus exhibit found")
	}
}
