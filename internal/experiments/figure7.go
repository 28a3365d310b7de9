package experiments

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/mem"
)

// Figure7Cell is the MLP of one workload at one L2 capacity.
type Figure7Cell struct {
	Workload string
	L2Bytes  int
	MLP      float64
	MissRate float64 // off-chip accesses per 100 instructions
}

// Figure7 reproduces Figure 7: impact of L2 cache size on MLP.
type Figure7 struct {
	Cells []Figure7Cell
}

// Figure7L2Sizes is the swept capacity axis.
var Figure7L2Sizes = []int{1 << 20, 2 << 20, 4 << 20, 8 << 20}

// figure7Points declares the sweep: the default 64C processor at every
// L2 capacity, per workload.
func figure7Points(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, l2 := range Figure7L2Sizes {
			points = append(points, MLPPoint{Workload: w, Config: core.Default(),
				Annot: annotate.Config{Hierarchy: mem.DefaultHierarchy().WithL2Size(l2)}})
		}
	}
	return points
}

// RunFigure7 executes the sweep with the default 64C processor.
func RunFigure7(s Setup) Figure7 {
	points := figure7Points(s)
	results := s.RunMLPsimBatch(points)
	cells := make([]Figure7Cell, len(points))
	for i, p := range points {
		cells[i] = Figure7Cell{
			Workload: p.Workload.Name,
			L2Bytes:  p.Annot.Hierarchy.L2.SizeBytes,
			MLP:      results[i].MLP(),
			MissRate: results[i].MissRatePer100(),
		}
	}
	return Figure7{Cells: cells}
}

// String renders the sweep.
func (f Figure7) String() string {
	tb := newTable("Figure 7: Impact of L2 Cache Size (default 64C processor)")
	tb.row("Workload", "L2 size", "MLP", "Miss rate (/100)")
	for _, c := range f.Cells {
		tb.rowf("%s\t%dMB\t%s\t%s", c.Workload, c.L2Bytes>>20, f2(c.MLP), f2(c.MissRate))
	}
	return tb.String() + "\n" + f.Chart()
}
