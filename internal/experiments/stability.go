package experiments

import (
	"mlpsim/internal/core"
	"mlpsim/internal/stats"
)

// StabilityRow reports multi-seed statistics for one workload and
// configuration: the confidence that a single-seed number in the other
// exhibits is representative.
type StabilityRow struct {
	Workload string
	Config   string
	MLP      stats.Summary
	MissRate stats.Summary
}

// Stability re-runs the key configurations over several workload seeds
// and reports mean ± 95% CI — the reproduction's error bars.
type Stability struct {
	Seeds int
	Rows  []StabilityRow
}

// StabilitySeeds is the number of independent seeds measured.
const StabilitySeeds = 5

// keyConfigs are the default 64C processor and runahead, the two
// configurations the stability and MSHR sweeps measure.
func keyConfigs() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"64C", core.Default()},
		{"RAE", core.Default().WithIssue(core.ConfigD).WithRunahead()},
	}
}

// stabilityPoints declares the sweep: every key configuration over
// StabilitySeeds workload seeds, per workload.
func stabilityPoints(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, c := range keyConfigs() {
			for si := 0; si < StabilitySeeds; si++ {
				points = append(points, MLPPoint{Workload: w.WithSeed(s.Seed + int64(si)*7919), Config: c.cfg})
			}
		}
	}
	return points
}

// RunStability executes the experiment.
func RunStability(s Setup) Stability {
	results := s.RunMLPsimBatch(stabilityPoints(s))
	mlps := make([]float64, len(results))
	rates := make([]float64, len(results))
	for i, res := range results {
		mlps[i] = res.MLP()
		rates[i] = res.MissRatePer100()
	}

	var rows []StabilityRow
	i := 0
	for _, w := range s.Workloads {
		for _, c := range keyConfigs() {
			rows = append(rows, StabilityRow{
				Workload: w.Name,
				Config:   c.name,
				MLP:      stats.Summarize(mlps[i : i+StabilitySeeds]),
				MissRate: stats.Summarize(rates[i : i+StabilitySeeds]),
			})
			i += StabilitySeeds
		}
	}
	return Stability{Seeds: StabilitySeeds, Rows: rows}
}

// String renders the error bars.
func (st Stability) String() string {
	tb := newTable("Stability: MLP and miss rate across workload seeds (mean ± 95% CI)")
	tb.row("Workload", "Config", "MLP", "±", "Miss rate (/100)", "±")
	for _, r := range st.Rows {
		tb.rowf("%s\t%s\t%s\t%s\t%s\t%s",
			r.Workload, r.Config, f2(r.MLP.Mean), f3(r.MLP.CI95()),
			f2(r.MissRate.Mean), f3(r.MissRate.CI95()))
	}
	return tb.String()
}
