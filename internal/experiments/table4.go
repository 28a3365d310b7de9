package experiments

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/cpi"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/workload"
)

// Table4Row validates the CPI equation for one (workload, issue config):
// the CPI estimated from MLPsim's MLP and miss rate — using CPI_perf and
// Overlap_CM measured by the cycle simulator under each of the three
// configurations — against the cycle simulator's measured CPI.
type Table4Row struct {
	Workload string
	Issue    core.IssueConfig
	// EstimatedUsing[i] is the estimate using configuration A+i's
	// characterization (the diagonal uses the row's own configuration).
	EstimatedUsing [3]float64
	Measured       float64
}

// Table4 reproduces Table 4 (window 64, 1000-cycle penalty).
type Table4 struct {
	Rows []Table4Row
}

// Table4Penalty is the off-chip latency used by the experiment.
const Table4Penalty = 1000

// table4Points declares the sweep: window 64 under configurations A/B/C,
// per workload.
func table4Points(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, ic := range validationConfigs {
			points = append(points, MLPPoint{Workload: w, Config: core.Default().WithIssue(ic)})
		}
	}
	return points
}

// RunTable4 executes the experiment.
func RunTable4(s Setup) Table4 {
	configs := validationConfigs

	type char struct {
		params   [3]Characterization
		measured [3]float64
	}
	chars := make([]char, len(s.Workloads))
	type job struct{ wi, ci int }
	var jobs []job
	for wi := range s.Workloads {
		for ci := range configs {
			jobs = append(jobs, job{wi, ci})
		}
	}
	s.forEach(len(jobs), func(i int) {
		j := jobs[i]
		chars[j.wi].params[j.ci] = s.characterizeConfig(s.Workloads[j.wi], configs[j.ci])
		chars[j.wi].measured[j.ci] = chars[j.wi].params[j.ci].CPI
	})
	mlps := s.RunMLPsimBatch(table4Points(s))

	var rows []Table4Row
	for wi, w := range s.Workloads {
		for ci, ic := range configs {
			row := Table4Row{Workload: w.Name, Issue: ic, Measured: chars[wi].measured[ci]}
			m := &mlps[wi*len(configs)+ci]
			for pi := range configs {
				p := chars[wi].params[pi].Params()
				p.MissRatePer100 = m.MissRatePer100()
				row.EstimatedUsing[pi] = p.Estimate(m.MLP())
			}
			rows = append(rows, row)
		}
	}
	return Table4{Rows: rows}
}

// characterizeConfig is Characterize with a non-default issue
// configuration at the Table 4 penalty.
func (s Setup) characterizeConfig(w workload.Config, ic core.IssueConfig) Characterization {
	var meas, perf cyclesim.Result
	s.forEach(2, func(i int) {
		cfg := cyclesim.Default(Table4Penalty)
		cfg.Issue = ic
		cfg.PerfectL2 = i == 1
		r := s.RunCycleSim(w, cfg, annotate.Config{})
		if i == 1 {
			perf = r
		} else {
			meas = r
		}
	})
	c := Characterization{
		Workload:       w.Name,
		Penalty:        Table4Penalty,
		CPI:            meas.CPI(),
		CPIPerf:        perf.CPI(),
		MissRatePer100: meas.MissRatePer100(),
		MLP:            meas.MLP,
	}
	c.OverlapCM = cpi.DeriveOverlap(c.CPI, c.CPIPerf, c.MissRatePer100, Table4Penalty, c.MLP)
	return c
}

// String renders the comparison.
func (t Table4) String() string {
	tb := newTable("Table 4: Estimated (MLPsim + CPI model) vs Measured CPI (ROB/IW=64, penalty=1000)")
	tb.row("Workload", "Config", "Est. using A", "Est. using B", "Est. using C", "Measured")
	for _, r := range t.Rows {
		tb.rowf("%s\t%s\t%s\t%s\t%s\t%s",
			r.Workload, r.Issue, f2(r.EstimatedUsing[0]), f2(r.EstimatedUsing[1]),
			f2(r.EstimatedUsing[2]), f2(r.Measured))
	}
	return tb.String()
}

// MaxRelError returns the largest |estimate − measured| / measured over
// all rows and characterization sources (the paper reports < 2%).
func (t Table4) MaxRelError() float64 {
	max := 0.0
	for _, r := range t.Rows {
		for _, e := range r.EstimatedUsing {
			rel := (e - r.Measured) / r.Measured
			if rel < 0 {
				rel = -rel
			}
			if rel > max {
				max = rel
			}
		}
	}
	return max
}
