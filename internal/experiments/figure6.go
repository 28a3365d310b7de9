package experiments

import "mlpsim/internal/core"

// Figure6Cell is one bar segment: issue window IW, issue configuration,
// and a decoupled ROB size.
type Figure6Cell struct {
	Workload string
	IW       int
	Issue    core.IssueConfig
	ROB      int
	MLP      float64
}

// Figure6 reproduces Figure 6: decoupling the issue window and ROB.
type Figure6 struct {
	Cells []Figure6Cell
	// INF holds the infinite-window reference (IW = ROB = 2048, config E)
	// per workload.
	INF map[string]float64

	// idx maps a bar segment to a Cells position; built lazily on first
	// Lookup (Cells are write-once after RunFigure6).
	idx map[figure6Key]int
}

type figure6Key struct {
	workload string
	iw       int
	issue    core.IssueConfig
	rob      int
}

// Figure 6 sweep axes: the paper draws bars for issue windows 16-128 with
// ROB multiples 1X/2X/4X/8X plus a fixed 2048-entry ROB, and an "INF" bar.
var (
	Figure6IWs     = []int{16, 32, 64, 128}
	Figure6Mults   = []int{1, 2, 4, 8}
	Figure6Configs = []core.IssueConfig{core.ConfigC, core.ConfigD, core.ConfigE}
	figure6BigROB  = 2048
)

// figure6Points declares the sweep: every bar segment, workload-major,
// then the per-workload INF reference — one batch, so the whole
// exhibit shares each workload's stream.
func figure6Points(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, iw := range Figure6IWs {
			for _, ic := range Figure6Configs {
				cfg := core.Default().WithIssue(ic)
				cfg.IssueWindow = iw
				for _, m := range Figure6Mults {
					cfg.ROB = iw * m
					points = append(points, MLPPoint{Workload: w, Config: cfg})
				}
				cfg.ROB = figure6BigROB
				points = append(points, MLPPoint{Workload: w, Config: cfg})
			}
		}
	}
	for _, w := range s.Workloads {
		points = append(points, MLPPoint{Workload: w, Config: core.Default().WithWindow(figure6BigROB).WithIssue(core.ConfigE)})
	}
	return points
}

// RunFigure6 executes the sweep.
func RunFigure6(s Setup) Figure6 {
	points := figure6Points(s)
	results := s.RunMLPsimBatch(points)
	n := len(points) - len(s.Workloads)
	cells := make([]Figure6Cell, n)
	for i, p := range points[:n] {
		cells[i] = Figure6Cell{
			Workload: p.Workload.Name, IW: p.Config.IssueWindow, Issue: p.Config.Issue, ROB: p.Config.ROB,
			MLP: results[i].MLP(),
		}
	}
	inf := make(map[string]float64, len(s.Workloads))
	for wi, w := range s.Workloads {
		inf[w.Name] = results[n+wi].MLP()
	}
	return Figure6{Cells: cells, INF: inf}
}

// Lookup returns the MLP for a bar segment, or -1 when absent. The first
// call indexes Cells so rendering is linear rather than quadratic in the
// number of cells.
func (f *Figure6) Lookup(workload string, iw int, ic core.IssueConfig, rob int) float64 {
	if f.idx == nil {
		f.idx = make(map[figure6Key]int, len(f.Cells))
		for i := range f.Cells {
			c := &f.Cells[i]
			f.idx[figure6Key{c.Workload, c.IW, c.Issue, c.ROB}] = i
		}
	}
	if i, ok := f.idx[figure6Key{workload, iw, ic, rob}]; ok {
		return f.Cells[i].MLP
	}
	return -1
}

// String renders the bars.
func (f Figure6) String() string {
	tb := newTable("Figure 6: Impact of Decoupling Issue Window and ROB Sizes (MLP)")
	tb.row("Workload", "IW+Config", "ROB=1X", "2X", "4X", "8X", "ROB=2048")
	seen := map[string]bool{}
	var order []string
	for _, c := range f.Cells {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			order = append(order, c.Workload)
		}
	}
	for _, wname := range order {
		for _, iw := range Figure6IWs {
			for _, ic := range Figure6Configs {
				cells := []string{wname, itoa(iw) + ic.String()}
				for _, m := range Figure6Mults {
					cells = append(cells, f2(f.Lookup(wname, iw, ic, iw*m)))
				}
				cells = append(cells, f2(f.Lookup(wname, iw, ic, figure6BigROB)))
				tb.row(cells...)
			}
		}
		tb.rowf("%s\tINF (2048E)\t%s", wname, f2(f.INF[wname]))
	}
	return tb.String()
}
