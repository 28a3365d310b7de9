package experiments

// Extension experiments beyond the paper's published evaluation: the
// ablations DESIGN.md calls out and the future-work directions §7 names
// (finite MSHRs, hardware prefetching, store MLP). Each is registered in
// the exhibit registry with an "ext-" prefix.

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/mem"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/workload"
)

// --- finite MSHRs -----------------------------------------------------------

// ExtMSHRCell is the MLP of one workload/config at one MSHR count.
type ExtMSHRCell struct {
	Workload string
	Config   string
	MSHRs    int // 0 = unlimited
	MLP      float64
}

// ExtMSHR sweeps the miss-status-holding-register count: MLP is clamped
// at the MSHR count, so the sweep shows how much buffering each workload
// actually needs — and that runahead demands far more than a conventional
// window exploits.
type ExtMSHR struct {
	Cells []ExtMSHRCell
}

// ExtMSHRCounts is the swept axis (0 = unlimited).
var ExtMSHRCounts = []int{1, 2, 4, 8, 16, 0}

// extMSHRPoints declares the sweep: both key configurations at every
// MSHR count, per workload.
func extMSHRPoints(s Setup) []MLPPoint {
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, c := range keyConfigs() {
			for _, m := range ExtMSHRCounts {
				cfg := c.cfg
				cfg.MSHRs = m
				points = append(points, MLPPoint{Workload: w, Config: cfg})
			}
		}
	}
	return points
}

// RunExtMSHR executes the sweep.
func RunExtMSHR(s Setup) ExtMSHR {
	points := extMSHRPoints(s)
	results := s.RunMLPsimBatch(points)
	configs := keyConfigs()
	cells := make([]ExtMSHRCell, len(points))
	for i, p := range points {
		cells[i] = ExtMSHRCell{
			Workload: p.Workload.Name,
			Config:   configs[i/len(ExtMSHRCounts)%len(configs)].name,
			MSHRs:    p.Config.MSHRs,
			MLP:      results[i].MLP(),
		}
	}
	return ExtMSHR{Cells: cells}
}

// String renders the sweep.
func (e ExtMSHR) String() string {
	tb := newTable("Extension: MLP vs MSHR count (miss buffering ablation)")
	header := []string{"Workload", "Config"}
	for _, m := range ExtMSHRCounts {
		if m == 0 {
			header = append(header, "inf")
		} else {
			header = append(header, itoa(m))
		}
	}
	tb.row(header...)
	for i := 0; i < len(e.Cells); i += len(ExtMSHRCounts) {
		c := e.Cells[i]
		cells := []string{c.Workload, c.Config}
		for k := 0; k < len(ExtMSHRCounts); k++ {
			cells = append(cells, f2(e.Cells[i+k].MLP))
		}
		tb.row(cells...)
	}
	return tb.String()
}

// --- hardware prefetching ---------------------------------------------------

// ExtPrefetchRow is one workload's MLP and miss profile under each
// hardware-prefetch configuration.
type ExtPrefetchRow struct {
	Workload  string
	Variant   string // "none", "I-seq", "D-stride", "both"
	MLP       float64
	MissRate  float64 // off-chip accesses per 100 instructions
	IAccesses uint64
	Accuracy  float64 // prefetcher accuracy where applicable
}

// ExtPrefetch evaluates the §5.6 direction: a sequential hardware
// instruction prefetcher recovers much of the perfect-I-prefetch
// headroom; a stride data prefetcher helps regular scans and does nothing
// for pointer-dependent misses.
type ExtPrefetch struct {
	Rows []ExtPrefetchRow
}

// extPrefetchVariants are the prefetch configurations, in row order.
var extPrefetchVariants = []string{"none", "I-seq", "D-stride", "both"}

// extPrefetchPoints declares the sweep: runahead under every prefetch
// variant, on the paper workloads plus the strided micro-workload. Each
// point carries fresh prefetcher instances, so the caller's direct path
// (no trace cache) trains them and reads their statistics back.
func extPrefetchPoints(s Setup) []MLPPoint {
	wls := append(append([]workload.Config{}, s.Workloads...), workload.Strided(s.Seed))
	var points []MLPPoint
	for _, w := range wls {
		for _, v := range extPrefetchVariants {
			acfg := annotate.Config{}
			if v == "I-seq" || v == "both" {
				acfg.IPrefetch = prefetch.NewSequential(4, mem.IFetch)
			}
			if v == "D-stride" || v == "both" {
				acfg.DPrefetch = prefetch.NewStride(1024, 4)
			}
			points = append(points, MLPPoint{Workload: w, Config: core.Default().WithIssue(core.ConfigD).WithRunahead(), Annot: acfg})
		}
	}
	return points
}

// RunExtPrefetch executes the experiment on the paper workloads plus the
// strided micro-workload.
func RunExtPrefetch(s Setup) ExtPrefetch {
	points := extPrefetchPoints(s)
	results := s.RunMLPsimBatch(points)
	rows := make([]ExtPrefetchRow, len(points))
	for i, p := range points {
		res := results[i]
		row := ExtPrefetchRow{
			Workload:  p.Workload.Name,
			Variant:   extPrefetchVariants[i%len(extPrefetchVariants)],
			MLP:       res.MLP(),
			MissRate:  res.MissRatePer100(),
			IAccesses: res.IAccesses,
		}
		if p.Annot.IPrefetch != nil || p.Annot.DPrefetch != nil {
			// Stats come from stream metadata on the cached path and from
			// the (then-trained) instances on the direct path.
			ist, dst := s.PrefetchStats(p.Workload, p.Annot)
			row.Accuracy = prefetch.Stats{
				Issued: ist.Issued + dst.Issued,
				Useful: ist.Useful + dst.Useful,
			}.Accuracy()
		}
		rows[i] = row
	}
	return ExtPrefetch{Rows: rows}
}

// String renders the experiment.
func (e ExtPrefetch) String() string {
	tb := newTable("Extension: Hardware Prefetching under Runahead (the §5.6 direction)")
	tb.row("Workload", "Prefetcher", "MLP", "Miss rate (/100)", "I-accesses", "Pf accuracy")
	for _, r := range e.Rows {
		tb.rowf("%s\t%s\t%s\t%s\t%d\t%s",
			r.Workload, r.Variant, f2(r.MLP), f2(r.MissRate), r.IAccesses, pct(r.Accuracy))
	}
	return tb.String()
}

// --- store MLP ---------------------------------------------------------------

// ExtStoreRow is one (workload, store-buffer size) measurement.
type ExtStoreRow struct {
	Workload string
	SB       int // 0 = infinite
	MLP      float64
	StoreMLP float64
	// SBLimitedFrac is the fraction of epochs terminated by a full store
	// buffer.
	SBLimitedFrac float64
}

// ExtStoreMLP explores the §7 store-MLP future work: with write-allocate
// caches a store-heavy workload generates off-chip store misses that an
// infinite store buffer hides completely but a finite one exposes as
// window terminations.
type ExtStoreMLP struct {
	Rows []ExtStoreRow
}

// ExtStoreSBs is the swept store-buffer axis (0 = infinite).
var ExtStoreSBs = []int{1, 2, 4, 8, 0}

// extStoreMLPPoints declares the sweep: the default processor at every
// store-buffer size, on the store-heavy micro-workload and the database
// workload.
func extStoreMLPPoints(s Setup) []MLPPoint {
	wls := []workload.Config{workload.StoreHeavy(s.Seed)}
	if len(s.Workloads) > 0 {
		wls = append(wls, s.Workloads[0])
	}
	var points []MLPPoint
	for _, w := range wls {
		for _, sb := range ExtStoreSBs {
			cfg := core.Default()
			cfg.StoreBuffer = sb
			points = append(points, MLPPoint{Workload: w, Config: cfg})
		}
	}
	return points
}

// RunExtStoreMLP executes the sweep on the database workload and the
// store-heavy micro-workload.
func RunExtStoreMLP(s Setup) ExtStoreMLP {
	points := extStoreMLPPoints(s)
	results := s.RunMLPsimBatch(points)
	rows := make([]ExtStoreRow, len(points))
	for i, p := range points {
		fr := results[i].LimiterFracs()
		rows[i] = ExtStoreRow{
			Workload:      p.Workload.Name,
			SB:            p.Config.StoreBuffer,
			MLP:           results[i].MLP(),
			StoreMLP:      results[i].StoreMLP(),
			SBLimitedFrac: fr[core.LimStoreBuf],
		}
	}
	return ExtStoreMLP{Rows: rows}
}

// String renders the sweep.
func (e ExtStoreMLP) String() string {
	tb := newTable("Extension: Store MLP and Finite Store Buffers (§7 future work)")
	tb.row("Workload", "Store buffer", "MLP", "Store MLP", "SB-limited epochs")
	for _, r := range e.Rows {
		sb := "inf"
		if r.SB > 0 {
			sb = itoa(r.SB)
		}
		tb.rowf("%s\t%s\t%s\t%s\t%s", r.Workload, sb, f2(r.MLP), f2(r.StoreMLP), pct(r.SBLimitedFrac))
	}
	return tb.String()
}
