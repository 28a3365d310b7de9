package experiments

import "mlpsim/internal/core"

// Figure11Row is the modelled overall performance improvement of one
// configuration over the 64D baseline for one workload, at a 1000-cycle
// off-chip latency (§5.7).
type Figure11Row struct {
	Workload string
	Config   string
	MLP      float64
	CPI      float64
	// GainPct is the percentage performance improvement over 64D.
	GainPct float64
}

// Figure11 reproduces Figure 11: overall performance improvement.
type Figure11 struct {
	Rows []Figure11Row
}

// figure11Configs is the sample of §5.3-5.6 configurations the paper
// charts, all relative to "64D".
func figure11Configs() []struct {
	name string
	cfg  core.Config
} {
	d := core.Default().WithIssue(core.ConfigD)
	return []struct {
		name string
		cfg  core.Config
	}{
		{"64D", d},
		{"64C", core.Default()},
		{"64D/256", d.WithROB(256)},
		{"64E/1024", core.Default().WithIssue(core.ConfigE).WithROB(1024)},
		{"RAE", d.WithRunahead()},
		{"RAE.perfI", withMods(d.WithRunahead(), func(c *core.Config) { c.PerfectIFetch = true })},
		{"RAE.perfBP", withMods(d.WithRunahead(), func(c *core.Config) { c.PerfectBP = true })},
		{"RAE.perfVP", withMods(d.WithRunahead(), func(c *core.Config) { c.PerfectVP = true })},
		{"RAE.perfVP.perfBP", withMods(d.WithRunahead(), func(c *core.Config) {
			c.PerfectVP = true
			c.PerfectBP = true
		})},
	}
}

func withMods(c core.Config, mods ...func(*core.Config)) core.Config {
	for _, m := range mods {
		m(&c)
	}
	return c
}

// figure11Points declares the sweep: every charted configuration, per
// workload.
func figure11Points(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, c := range figure11Configs() {
			points = append(points, MLPPoint{Workload: w, Config: c.cfg})
		}
	}
	return points
}

// RunFigure11 executes the experiment.
func RunFigure11(s Setup) Figure11 {
	configs := figure11Configs()
	chars := make([]Characterization, len(s.Workloads))
	s.forEach(len(s.Workloads), func(wi int) {
		chars[wi] = s.Characterize(s.Workloads[wi], 1000)
	})
	results := s.RunMLPsimBatch(figure11Points(s))

	var rows []Figure11Row
	for wi := range s.Workloads {
		p := chars[wi].Params()
		var baseCPI float64
		for ci := range configs {
			res := &results[wi*len(configs)+ci]
			// Each configuration's own (possibly reduced, e.g. perfI)
			// miss rate feeds the model.
			params := p
			params.MissRatePer100 = res.MissRatePer100()
			cpiEst := params.Estimate(res.MLP())
			if ci == 0 {
				baseCPI = cpiEst
			}
			rows = append(rows, Figure11Row{
				Workload: s.Workloads[wi].Name,
				Config:   configs[ci].name,
				MLP:      res.MLP(),
				CPI:      cpiEst,
				GainPct:  100 * (baseCPI/cpiEst - 1),
			})
		}
	}
	return Figure11{Rows: rows}
}

// String renders the chart data.
func (f Figure11) String() string {
	tb := newTable("Figure 11: Overall Performance Improvement over 64D (CPI model, 1000-cycle latency)")
	tb.row("Workload", "Config", "MLP", "CPI (est)", "Improvement")
	for _, r := range f.Rows {
		tb.rowf("%s\t%s\t%s\t%s\t%.0f%%", r.Workload, r.Config, f2(r.MLP), f2(r.CPI), r.GainPct)
	}
	return tb.String() + "\n" + f.Chart()
}
