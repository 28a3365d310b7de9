package experiments

import "mlpsim/internal/core"

// Figure10Row holds the limit-study MLPs for one workload on one baseline
// (§5.6): perfect instruction prefetching, perfect value prediction,
// perfect branch prediction, and perfect VP+BP together.
type Figure10Row struct {
	Workload string
	Baseline string // "RAE" or "64D/256" (no RAE)
	Base     float64
	PerfI    float64
	PerfVP   float64
	PerfBP   float64
	PerfVPBP float64
}

// Figure10 reproduces Figure 10: the limit study.
type Figure10 struct {
	Rows []Figure10Row
}

// figure10Baselines are the limit study's two baselines.
func figure10Baselines() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"RAE", core.Default().WithIssue(core.ConfigD).WithRunahead()},
		{"64D/256", core.Default().WithIssue(core.ConfigD).WithROB(256)},
	}
}

// figure10Variants idealize a baseline, in Figure10Row's column order.
var figure10Variants = []func(*core.Config){
	func(*core.Config) {},
	func(c *core.Config) { c.PerfectIFetch = true },
	func(c *core.Config) { c.PerfectVP = true },
	func(c *core.Config) { c.PerfectBP = true },
	func(c *core.Config) { c.PerfectVP = true; c.PerfectBP = true },
}

// figure10Points declares the sweep: every variant of every baseline,
// per workload.
func figure10Points(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, b := range figure10Baselines() {
			for _, v := range figure10Variants {
				cfg := b.cfg
				v(&cfg)
				points = append(points, MLPPoint{Workload: w, Config: cfg})
			}
		}
	}
	return points
}

// RunFigure10 executes the experiment.
func RunFigure10(s Setup) Figure10 {
	results := s.RunMLPsimBatch(figure10Points(s))
	var rows []Figure10Row
	i := 0
	for _, w := range s.Workloads {
		for _, b := range figure10Baselines() {
			m := results[i : i+len(figure10Variants)]
			i += len(figure10Variants)
			rows = append(rows, Figure10Row{
				Workload: w.Name,
				Baseline: b.name,
				Base:     m[0].MLP(),
				PerfI:    m[1].MLP(),
				PerfVP:   m[2].MLP(),
				PerfBP:   m[3].MLP(),
				PerfVPBP: m[4].MLP(),
			})
		}
	}
	return Figure10{Rows: rows}
}

// String renders the limit study.
func (f Figure10) String() string {
	tb := newTable("Figure 10: Limit Study — Perfect I-Fetch / Value Prediction / Branch Prediction (MLP)")
	tb.row("Workload", "Baseline", "base", ".perfI", ".perfVP", ".perfBP", ".perfVP.perfBP")
	for _, r := range f.Rows {
		tb.rowf("%s\t%s\t%s\t%s\t%s\t%s\t%s",
			r.Workload, r.Baseline, f2(r.Base), f2(r.PerfI), f2(r.PerfVP), f2(r.PerfBP), f2(r.PerfVPBP))
	}
	return tb.String() + "\n" + f.Chart()
}
