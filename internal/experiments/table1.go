package experiments

import (
	"mlpsim/internal/core"
	"mlpsim/internal/cpi"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/workload"
)

// Characterization is the Table 1 description of one workload at one
// off-chip latency: the measured CPI decomposition and the CPI-model
// parameters derived from it (§2.2).
type Characterization struct {
	Workload       string
	Penalty        int
	CPI            float64 // measured by the cycle simulator
	CPIPerf        float64 // measured with a perfect L2
	CPIOnChip      float64
	CPIOffChip     float64
	MissRatePer100 float64
	MLP            float64 // cycle-simulator MLP(t) average
	OverlapCM      float64
}

// Params returns the CPI-model parameters implied by the
// characterization.
func (c Characterization) Params() cpi.Params {
	return cpi.Params{
		CPIPerf:        c.CPIPerf,
		OverlapCM:      c.OverlapCM,
		MissRatePer100: c.MissRatePer100,
		MissPenalty:    float64(c.Penalty),
	}
}

// charSpec names one characterization: a workload under the default
// pipeline with the given issue configuration at one off-chip latency.
type charSpec struct {
	w       workload.Config
	penalty int
	issue   core.IssueConfig
}

// characterize measures every spec with two cycle-simulator runs
// (realistic and perfect L2), all in one batch, deriving Overlap_CM
// from the CPI equation exactly as §2.2 prescribes.
func (s Setup) characterize(specs []charSpec) []Characterization {
	points := make([]CyclePoint, 0, 2*len(specs))
	for _, sp := range specs {
		cfg := cyclesim.Default(sp.penalty)
		cfg.Issue = sp.issue
		perfect := cfg
		perfect.PerfectL2 = true
		points = append(points, CyclePoint{Workload: sp.w, Config: cfg}, CyclePoint{Workload: sp.w, Config: perfect})
	}
	rs := s.RunCycleSimBatch(points)
	chars := make([]Characterization, len(specs))
	for i, sp := range specs {
		meas, perf := &rs[2*i], &rs[2*i+1]
		c := Characterization{
			Workload:       sp.w.Name,
			Penalty:        sp.penalty,
			CPI:            meas.CPI(),
			CPIPerf:        perf.CPI(),
			MissRatePer100: meas.MissRatePer100(),
			MLP:            meas.MLP,
		}
		c.OverlapCM = cpi.DeriveOverlap(c.CPI, c.CPIPerf, c.MissRatePer100, float64(sp.penalty), c.MLP)
		c.CPIOnChip = c.CPIPerf * (1 - c.OverlapCM)
		c.CPIOffChip = c.CPI - c.CPIOnChip
		chars[i] = c
	}
	return chars
}

// characterizeAt characterizes every workload of s at one latency under
// the default pipeline (configuration C).
func (s Setup) characterizeAt(penalty int) []Characterization {
	specs := make([]charSpec, len(s.Workloads))
	for i, w := range s.Workloads {
		specs[i] = charSpec{w, penalty, core.ConfigC}
	}
	return s.characterize(specs)
}

// Table1 reproduces Table 1: on-chip and off-chip CPI components for each
// workload at 200- and 1000-cycle off-chip latencies.
type Table1 struct {
	Rows []Characterization
}

// RunTable1 executes the experiment.
func RunTable1(s Setup) Table1 {
	var specs []charSpec
	for _, w := range s.Workloads {
		for _, p := range []int{200, 1000} {
			specs = append(specs, charSpec{w, p, core.ConfigC})
		}
	}
	return Table1{Rows: s.characterize(specs)}
}

// String renders the table in the paper's column order.
func (t Table1) String() string {
	tb := newTable("Table 1: Measurements of On-Chip and Off-Chip Components of CPI")
	tb.row("Benchmark", "Off-Chip Latency", "CPI", "CPI_on-chip", "CPI_off-chip",
		"L2 Miss Rate (/100 insts)", "MLP", "Overlap_CM")
	for _, r := range t.Rows {
		tb.rowf("%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s",
			r.Workload, r.Penalty, f2(r.CPI), f2(r.CPIOnChip), f2(r.CPIOffChip),
			f2(r.MissRatePer100), f2(r.MLP), f2(r.OverlapCM))
	}
	return tb.String()
}
