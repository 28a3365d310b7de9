package experiments

// Store-set memory dependence speculation (Chrysos & Emer): the paper's
// MLPsim assumes an oracle memory disambiguator — a load waits exactly
// for the stores it truly depends on. This exhibit brackets that
// assumption: an always-conservative machine (every load waits for every
// earlier store) is the lower bound, the oracle the upper bound, and a
// store-set predictor of swept SSIT/LFST size and confidence threshold
// lands in between, paying recovery flushes for the dependences it
// misses and needless serialization for the ones it invents.

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/storeset"
)

// ExtStoreSetsRow is one (workload, disambiguation mode, predictor
// geometry) measurement. SSIT/LFST/Conf are zero for the oracle and
// conservative bound rows.
type ExtStoreSetsRow struct {
	Workload    string
	Disamb      string
	SSIT        int
	LFST        int
	Conf        int
	MLP         float64
	Mispredicts uint64
	Serializes  uint64
}

// ExtStoreSets is the store-set disambiguation sweep.
type ExtStoreSets struct {
	Rows []ExtStoreSetsRow
}

// ExtStoreSetsSSITs is the swept store-set identifier table axis; the
// LFST is sized at a quarter of the SSIT throughout.
var ExtStoreSetsSSITs = []int{256, 1024, 4096}

// ExtStoreSetsConfs is the swept confidence-threshold axis.
var ExtStoreSetsConfs = []int{0, 2}

// extStoreSetsGrid resolves one grid point to a predictor geometry.
func extStoreSetsGrid(si, ci int) storeset.Config {
	return storeset.Config{
		SSITSize:      ExtStoreSetsSSITs[si],
		LFSTSize:      ExtStoreSetsSSITs[si] / 4,
		ConfThreshold: uint8(ExtStoreSetsConfs[ci]),
	}
}

// extStoreSetsPoints declares the sweep: per workload, the oracle and
// conservative bounds, then the store-set grid. The bound rows run on
// the first grid point's annotated stream — both ignore the Dep column,
// so their results are bit-identical to plain-annotation runs while
// sharing the stream (and therefore a gang) with the store-set points.
func extStoreSetsPoints(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		add := func(mode core.DisambMode, si, ci int) {
			cfg := core.Default()
			cfg.Disamb = mode
			points = append(points, MLPPoint{
				Workload: w,
				Config:   cfg,
				Annot:    annotate.Config{StoreSets: storeset.New(extStoreSetsGrid(si, ci))},
			})
		}
		add(core.DisambOracle, 0, 0)
		add(core.DisambConservative, 0, 0)
		for si := range ExtStoreSetsSSITs {
			for ci := range ExtStoreSetsConfs {
				add(core.DisambStoreSets, si, ci)
			}
		}
	}
	return points
}

// RunExtStoreSets executes the sweep.
func RunExtStoreSets(s Setup) ExtStoreSets {
	points := extStoreSetsPoints(s)
	results := s.RunMLPsimBatch(points)
	rows := make([]ExtStoreSetsRow, len(points))
	for i, p := range points {
		row := ExtStoreSetsRow{
			Workload:    p.Workload.Name,
			Disamb:      p.Config.Disamb.String(),
			MLP:         results[i].MLP(),
			Mispredicts: results[i].DepMispredicts,
			Serializes:  results[i].DepSerializes,
		}
		if p.Config.Disamb == core.DisambStoreSets {
			g := p.Annot.StoreSets.Config()
			row.SSIT, row.LFST, row.Conf = g.SSITSize, g.LFSTSize, int(g.ConfThreshold)
		}
		rows[i] = row
	}
	return ExtStoreSets{Rows: rows}
}

// String renders the sweep.
func (e ExtStoreSets) String() string {
	tb := newTable("Extension: Store-Set Memory Dependence Speculation (Chrysos-Emer)")
	tb.row("Workload", "Disamb", "SSIT", "LFST", "Conf", "MLP", "Mispredicts", "Serializes")
	for _, r := range e.Rows {
		ssit, lfst, conf := "-", "-", "-"
		if r.Disamb == core.DisambStoreSets.String() {
			ssit, lfst, conf = itoa(r.SSIT), itoa(r.LFST), itoa(r.Conf)
		}
		tb.rowf("%s\t%s\t%s\t%s\t%s\t%s\t%d\t%d",
			r.Workload, r.Disamb, ssit, lfst, conf, f2(r.MLP), r.Mispredicts, r.Serializes)
	}
	return tb.String()
}
