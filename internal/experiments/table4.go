package experiments

import "mlpsim/internal/core"

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
	var specs []charSpec
	for _, w := range s.Workloads {
		for _, ic := range configs {
			specs = append(specs, charSpec{w, Table4Penalty, ic})
		}
	}
	chars := s.characterize(specs)
	mlps := s.RunMLPsimBatch(table4Points(s))

	var rows []Table4Row
	for wi, w := range s.Workloads {
		wchars := chars[wi*len(configs) : (wi+1)*len(configs)]
		for ci, ic := range configs {
			row := Table4Row{Workload: w.Name, Issue: ic, Measured: wchars[ci].CPI}
			m := &mlps[wi*len(configs)+ci]
			for pi := range configs {
				p := wchars[pi].Params()
				p.MissRatePer100 = m.MissRatePer100()
				row.EstimatedUsing[pi] = p.Estimate(m.MLP())
			}
			rows = append(rows, row)
		}
	}
	return Table4{Rows: rows}
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
