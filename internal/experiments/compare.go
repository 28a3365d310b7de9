package experiments

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/vpred"
)

// CompareRow is one paper-vs-measured headline number.
type CompareRow struct {
	Workload string
	Metric   string
	Paper    float64
	Measured float64
}

// Compare runs the headline configurations and prints them next to the
// paper's published values — the quick fidelity check the other exhibits
// expand on.
type Compare struct {
	Rows []CompareRow
}

// comparePoints declares the MLPsim side of the comparison: 64C,
// stall-on-miss, stall-on-use, 64D and RAE, per workload.
func comparePoints(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, cfg := range []core.Config{
			core.Default(),
			{Mode: core.InOrderStallOnMiss},
			{Mode: core.InOrderStallOnUse},
			core.Default().WithIssue(core.ConfigD),
			core.Default().WithIssue(core.ConfigD).WithRunahead(),
		} {
			points = append(points, MLPPoint{Workload: w, Config: cfg})
		}
	}
	return points
}

// RunCompare executes the comparison.
func RunCompare(s Setup) Compare {
	results := s.RunMLPsimBatch(comparePoints(s))
	vp := make([][3]float64, len(s.Workloads))
	s.forEach(len(s.Workloads), func(wi int) {
		st := s.AnnotateStats(s.Workloads[wi], annotate.Config{Value: vpred.NewLastValue(vpred.DefaultEntries)}).VP
		vp[wi][0], vp[wi][1], vp[wi][2] = st.Fractions()
	})

	var rows []CompareRow
	for wi, w := range s.Workloads {
		r := results[5*wi : 5*wi+5] // comparePoints' order
		name := w.Name
		rows = append(rows,
			CompareRow{name, "L2 miss rate (/100)", paperT1(name, "miss"), r[0].MissRatePer100()},
			CompareRow{name, "MLP 64C (Table 3)", PaperTable3MLPsim[name]["64C"], r[0].MLP()},
			CompareRow{name, "MLP in-order stall-on-miss", PaperTable5[name][0], r[1].MLP()},
			CompareRow{name, "MLP in-order stall-on-use", PaperTable5[name][1], r[2].MLP()},
			CompareRow{name, "RAE MLP gain vs 64D", PaperFigure8Gains[name][0], r[4].MLP()/r[3].MLP() - 1},
			CompareRow{name, "VP correct fraction", PaperTable6[name][0], vp[wi][0]},
			CompareRow{name, "VP no-predict fraction", PaperTable6[name][2], vp[wi][2]},
		)
	}
	return Compare{Rows: rows}
}

func paperT1(workload, metric string) float64 {
	for _, r := range PaperTable1 {
		if r.Workload == workload && r.Penalty == 1000 {
			if metric == "miss" {
				return r.MissRatePer100
			}
		}
	}
	return 0
}

// String renders the comparison.
func (c Compare) String() string {
	tb := newTable("Paper vs Measured: headline numbers")
	tb.row("Workload", "Metric", "Paper", "Measured")
	for _, r := range c.Rows {
		tb.rowf("%s\t%s\t%s\t%s", r.Workload, r.Metric, f2(r.Paper), f2(r.Measured))
	}
	return tb.String()
}
