package cyclesim

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator")

const goldenFile = "testdata/golden.json"

// goldenRow is one pinned run: the matrix coordinates that build its
// Config, and every other field of its Result. MLP is stored as its
// IEEE-754 bits so the comparison is exact.
type goldenRow struct {
	Workload     string `json:"workload"`
	IssueWindow  int    `json:"iw"`
	ROB          int    `json:"rob"`
	Issue        string `json:"issue"`
	MissPenalty  int    `json:"penalty"`
	PerfectL2    bool   `json:"perfect_l2"`
	MSHRs        int    `json:"mshrs"`
	Instructions int64  `json:"instructions"`
	Cycles       int64  `json:"cycles"`
	MLPBits      string `json:"mlp_bits"`
	MLPCycles    int64  `json:"mlp_cycles"`
	Accesses     uint64 `json:"accesses"`
}

// goldenWorkloads are the three paper presets plus the I-fetch-bound and
// store-heavy micro-workloads, which exercise the I-miss and
// store-to-load paths far more often than the presets do.
func goldenWorkloads() []workload.Config {
	return append(workload.Presets(1), workload.IBound(1), workload.StoreHeavy(1))
}

// goldenConfigs is the pinned matrix for one workload: coupled windows
// 32/64/128 and one decoupled IW<ROB, configurations A-C, penalties 200
// and 1000, and a memory side that is realistic with unlimited MSHRs,
// realistic with 4, or a perfect L2 (which issues no off-chip access, so
// an MSHR bound cannot act on it).
func goldenConfigs() []Config {
	windows := [][2]int{{32, 32}, {64, 64}, {128, 128}, {32, 128}}
	memSides := []struct {
		perfect bool
		mshrs   int
	}{{false, 0}, {false, 4}, {true, 0}}
	var cfgs []Config
	for _, win := range windows {
		for _, ic := range []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC} {
			for _, pen := range []int{200, 1000} {
				for _, m := range memSides {
					cfg := Default(pen)
					cfg.IssueWindow, cfg.ROB = win[0], win[1]
					cfg.Issue = ic
					cfg.PerfectL2, cfg.MSHRs = m.perfect, m.mshrs
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs
}

func goldenRowOf(w string, res Result) goldenRow {
	c := res.Config
	return goldenRow{
		Workload: w, IssueWindow: c.IssueWindow, ROB: c.ROB, Issue: c.Issue.String(),
		MissPenalty: c.MissPenalty, PerfectL2: c.PerfectL2, MSHRs: c.MSHRs,
		Instructions: res.Instructions, Cycles: res.Cycles,
		MLPBits:   fmt.Sprintf("%016x", math.Float64bits(res.MLP)),
		MLPCycles: res.MLPCycles, Accesses: res.Accesses,
	}
}

// TestGoldenResults pins the cycle simulator's absolute output: every
// Result field of a fixed workload-by-config matrix, recorded in
// testdata/golden.json, must repeat exactly. A change that moves model
// output regenerates the file with -update and says why.
func TestGoldenResults(t *testing.T) {
	const warmup, measure = 20_000, 60_000
	// Workloads run concurrently (each on its own stream copy and
	// simulators); rows are gathered in matrix order.
	ws := goldenWorkloads()
	perW := make([][]goldenRow, len(ws))
	var wg sync.WaitGroup
	for wi, w := range ws {
		wg.Add(1)
		go func(wi int, w workload.Config) {
			defer wg.Done()
			a := annotate.New(workload.MustNew(w), annotate.Config{})
			a.Warm(warmup)
			insts := a.Collect(measure)
			for _, cfg := range goldenConfigs() {
				res := New(&aiSource{insts: insts}, cfg).Run()
				if res.Config != cfg {
					t.Errorf("%s: Result.Config %+v, want the run's config %+v", w.Name, res.Config, cfg)
				}
				perW[wi] = append(perW[wi], goldenRowOf(w.Name, res))
			}
		}(wi, w)
	}
	wg.Wait()
	var got []goldenRow
	for _, rows := range perW {
		got = append(got, rows...)
	}

	path := filepath.FromSlash(goldenFile)
	if *updateGolden {
		writeGolden(t, path, got)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestGoldenResults -update)", err)
	}
	var want []goldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, %s pins %d", len(got), path, len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("run %d differs from %s\n got: %+v\nwant: %+v", i, path, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d of %d runs differ in all", bad, len(got))
	}
}

// writeGolden writes one row per line so a regenerated file diffs by run.
func writeGolden(t *testing.T, path string, rows []goldenRow) {
	t.Helper()
	buf := []byte("[\n")
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
		if i < len(rows)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "]\n"...)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}
