package experiments

import (
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
)

// Table3Row is one (workload, window, config) validation cell: the cycle
// simulator's MLP at three off-chip latencies against MLPsim's single
// timing-free number.
type Table3Row struct {
	Workload     string
	Window       int
	Issue        core.IssueConfig
	CycleSim200  float64
	CycleSim500  float64
	CycleSim1000 float64
	MLPsim       float64
}

// Table3 reproduces Table 3: MLPsim vs cycle-accurate simulator.
type Table3 struct {
	Rows []Table3Row
}

// Table3Latencies are the off-chip latencies the paper validates against.
var Table3Latencies = []int{200, 500, 1000}

// table3Windows are the validated ROB/IW sizes.
var table3Windows = []int{32, 64, 128}

// validationConfigs are the issue configurations Tables 3 and 4
// validate: the cycle simulator cannot model out-of-order branches,
// exactly like the paper's.
var validationConfigs = []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC}

// table3Points declares the MLPsim side of the validation matrix:
// windows 32/64/128 by configurations A/B/C, per workload.
func table3Points(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, win := range table3Windows {
			for _, ic := range validationConfigs {
				points = append(points, MLPPoint{Workload: w, Config: core.Default().WithWindow(win).WithIssue(ic)})
			}
		}
	}
	return points
}

// Table3CycleConfigs is the cycle-simulator side of one workload's
// validation matrix, in row order: windows 32/64/128 by configurations
// A/B/C, each at the Table3Latencies.
func Table3CycleConfigs() []cyclesim.Config {
	var cfgs []cyclesim.Config
	for _, win := range table3Windows {
		for _, ic := range validationConfigs {
			for _, pen := range Table3Latencies {
				cfg := cyclesim.Default(pen)
				cfg.IssueWindow, cfg.ROB = win, win
				cfg.Issue = ic
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// RunTable3 executes the validation matrix: each MLPsim point against
// the cycle simulator at the same window and issue configuration, the
// cycle-simulator side as one batch.
func RunTable3(s Setup) Table3 {
	points := table3Points(s)
	mlps := s.RunMLPsimBatch(points)
	var cpoints []CyclePoint
	for _, w := range s.Workloads {
		for _, cfg := range Table3CycleConfigs() {
			cpoints = append(cpoints, CyclePoint{Workload: w, Config: cfg})
		}
	}
	cres := s.RunCycleSimBatch(cpoints)
	rows := make([]Table3Row, len(points))
	for i, p := range points {
		c := cres[len(Table3Latencies)*i:]
		rows[i] = Table3Row{
			Workload: p.Workload.Name, Window: p.Config.ROB, Issue: p.Config.Issue,
			CycleSim200: c[0].MLP, CycleSim500: c[1].MLP, CycleSim1000: c[2].MLP,
			MLPsim: mlps[i].MLP(),
		}
	}
	return Table3{Rows: rows}
}

// String renders the validation matrix.
func (t Table3) String() string {
	tb := newTable("Table 3: Comparison of MLP numbers by MLPsim and Cycle-Accurate Simulator")
	tb.row("Workload", "ROB/IW", "Config", "CycleSim 200", "CycleSim 500", "CycleSim 1000", "MLPsim")
	for _, r := range t.Rows {
		tb.rowf("%s\t%d\t%s\t%s\t%s\t%s\t%s",
			r.Workload, r.Window, r.Issue, f2(r.CycleSim200), f2(r.CycleSim500),
			f2(r.CycleSim1000), f2(r.MLPsim))
	}
	return tb.String()
}

// MaxRelError returns the largest |MLPsim − CycleSim(latency)| /
// CycleSim(latency) over all rows, used by tests to assert the paper's
// convergence claim.
func (t Table3) MaxRelError(latency int) float64 {
	max := 0.0
	for _, r := range t.Rows {
		var c float64
		switch latency {
		case 200:
			c = r.CycleSim200
		case 500:
			c = r.CycleSim500
		default:
			c = r.CycleSim1000
		}
		if c == 0 {
			continue
		}
		rel := (r.MLPsim - c) / c
		if rel < 0 {
			rel = -rel
		}
		if rel > max {
			max = rel
		}
	}
	return max
}
