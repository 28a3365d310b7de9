package experiments

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/vpred"
)

// Figure9Row shows, for one workload and one base configuration, the MLP
// and modelled performance effect of adding missing-load value prediction
// (§5.5).
type Figure9Row struct {
	Workload string
	Base     string // "64D/64", "64D/256", "RAE"
	MLPBase  float64
	MLPVP    float64
	// PerfGainPct is the modelled overall performance improvement from
	// adding value prediction (CPI model at 1000 cycles).
	PerfGainPct float64
}

// Figure9 reproduces Figure 9: impact of value prediction.
type Figure9 struct {
	Rows []Figure9Row
}

// figure9Bases returns the three base configurations of Figures 8 and 9.
func figure9Bases() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"64D/64", core.Default().WithIssue(core.ConfigD)},
		{"64D/256", core.Default().WithIssue(core.ConfigD).WithROB(256)},
		{"RAE", core.Default().WithIssue(core.ConfigD).WithRunahead()},
	}
}

// figure9Points declares the sweep: each base without and with
// last-value prediction, per workload.
func figure9Points(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, b := range figure9Bases() {
			vp := b.cfg
			vp.ValuePredict = true
			points = append(points,
				MLPPoint{Workload: w, Config: b.cfg},
				MLPPoint{Workload: w, Config: vp, Annot: annotate.Config{Value: vpred.NewLastValue(vpred.DefaultEntries)}})
		}
	}
	return points
}

// RunFigure9 executes the experiment.
func RunFigure9(s Setup) Figure9 {
	chars := make([]Characterization, len(s.Workloads))
	s.forEach(len(s.Workloads), func(wi int) {
		chars[wi] = s.Characterize(s.Workloads[wi], 1000)
	})
	mlps := s.RunMLPsimBatch(figure9Points(s))

	var rows []Figure9Row
	i := 0
	for wi, w := range s.Workloads {
		p := chars[wi].Params()
		for _, b := range figure9Bases() {
			base, withVP := mlps[i], mlps[i+1]
			i += 2
			baseCPI := p.Estimate(base.MLP())
			vpCPI := p.Estimate(withVP.MLP())
			rows = append(rows, Figure9Row{
				Workload:    w.Name,
				Base:        b.name,
				MLPBase:     base.MLP(),
				MLPVP:       withVP.MLP(),
				PerfGainPct: 100 * (baseCPI/vpCPI - 1),
			})
		}
	}
	return Figure9{Rows: rows}
}

// String renders the comparison.
func (f Figure9) String() string {
	tb := newTable("Figure 9: Impact of Value Prediction (last-value, missing loads only)")
	tb.row("Workload", "Base", "MLP", "MLP+VP", "Perf gain")
	for _, r := range f.Rows {
		tb.rowf("%s\t%s\t%s\t%s\t%.1f%%", r.Workload, r.Base, f2(r.MLPBase), f2(r.MLPVP), r.PerfGainPct)
	}
	return tb.String()
}
