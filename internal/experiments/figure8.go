package experiments

// Figure8Row compares runahead execution against two conventional
// configurations for one workload (§5.4.1).
type Figure8Row struct {
	Workload string
	// Conv64 is the 64-entry IW / 64-entry ROB configuration D.
	Conv64 float64
	// Conv256 is the 64-entry IW / 256-entry ROB configuration D.
	Conv256 float64
	// RAE is runahead execution (max distance 2048).
	RAE float64
}

// Figure8 reproduces Figure 8: impact of runahead execution on MLP.
type Figure8 struct {
	Rows []Figure8Row
}

// figure8Points declares the sweep: the three Figure 8/9 bases per
// workload.
func figure8Points(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, b := range figure9Bases() {
			points = append(points, MLPPoint{Workload: w, Config: b.cfg})
		}
	}
	return points
}

// RunFigure8 executes the experiment.
func RunFigure8(s Setup) Figure8 {
	results := s.RunMLPsimBatch(figure8Points(s))
	rows := make([]Figure8Row, len(s.Workloads))
	for i, w := range s.Workloads {
		rows[i] = Figure8Row{
			Workload: w.Name,
			Conv64:   results[3*i].MLP(),
			Conv256:  results[3*i+1].MLP(),
			RAE:      results[3*i+2].MLP(),
		}
	}
	return Figure8{Rows: rows}
}

// String renders the comparison with the paper's improvement
// percentages.
func (f Figure8) String() string {
	tb := newTable("Figure 8: Impact of Runahead Execution (MLP)")
	tb.row("Workload", "64D/64", "64D/256", "RAE", "RAE vs 64D/64", "RAE vs 64D/256")
	for _, r := range f.Rows {
		tb.rowf("%s\t%s\t%s\t%s\t+%s\t+%s",
			r.Workload, f2(r.Conv64), f2(r.Conv256), f2(r.RAE),
			pct(r.RAE/r.Conv64-1), pct(r.RAE/r.Conv256-1))
	}
	return tb.String() + "\n" + f.Chart()
}
