package experiments

import "fmt"

// Runner describes one reproducible exhibit.
type Runner struct {
	// ID is the paper label, e.g. "table3" or "figure8".
	ID string
	// Title is the exhibit caption.
	Title string
	// Run executes the experiment and returns its printable result.
	Run func(Setup) fmt.Stringer
	// Points, when non-nil, declares the exhibit's MLPsim sweep: the
	// points Run hands to its one RunMLPsimBatch call, derived from the
	// Setup alone. Peers run the declared points by index (RunPoints) and
	// coordinators prefetch them (Prefetch).
	Points func(Setup) []MLPPoint
}

// All returns every exhibit runner in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Measurements of on-chip and off-chip components of CPI",
			func(s Setup) fmt.Stringer { return RunTable1(s) }, nil},
		{"figure2", "Clustering of misses",
			func(s Setup) fmt.Stringer { return RunFigure2(s) }, nil},
		{"table3", "MLPsim vs cycle-accurate simulator",
			func(s Setup) fmt.Stringer { return RunTable3(s) }, table3Points},
		{"table4", "Estimated vs measured CPI",
			func(s Setup) fmt.Stringer { return RunTable4(s) }, table4Points},
		{"table5", "MLP of in-order issue",
			func(s Setup) fmt.Stringer { return RunTable5(s) }, table5Points},
		{"figure4", "Impact of ROB size and issuing constraints",
			func(s Setup) fmt.Stringer { return RunFigure4(s) }, figure4Points},
		{"figure5", "Factors inhibiting further MLP",
			func(s Setup) fmt.Stringer { return RunFigure5(s) }, figure4Points},
		{"figure6", "Impact of decoupling issue window and ROB sizes",
			func(s Setup) fmt.Stringer { return RunFigure6(s) }, figure6Points},
		{"figure7", "Impact of L2 cache size",
			func(s Setup) fmt.Stringer { return RunFigure7(s) }, figure7Points},
		{"figure8", "Impact of runahead execution",
			func(s Setup) fmt.Stringer { return RunFigure8(s) }, figure8Points},
		{"table6", "Value predictor statistics",
			func(s Setup) fmt.Stringer { return RunTable6(s) }, nil},
		{"figure9", "Impact of value prediction",
			func(s Setup) fmt.Stringer { return RunFigure9(s) }, figure9Points},
		{"figure10", "Limit study",
			func(s Setup) fmt.Stringer { return RunFigure10(s) }, figure10Points},
		{"figure11", "Overall performance improvement",
			func(s Setup) fmt.Stringer { return RunFigure11(s) }, figure11Points},
		{"ext-mshr", "Extension: MLP vs MSHR count",
			func(s Setup) fmt.Stringer { return RunExtMSHR(s) }, extMSHRPoints},
		{"ext-prefetch", "Extension: hardware prefetching (§5.6 direction)",
			func(s Setup) fmt.Stringer { return RunExtPrefetch(s) }, extPrefetchPoints},
		{"ext-storemlp", "Extension: store MLP / finite store buffers (§7)",
			func(s Setup) fmt.Stringer { return RunExtStoreMLP(s) }, extStoreMLPPoints},
		{"ext-storesets", "Extension: store-set memory dependence speculation (Chrysos-Emer)",
			func(s Setup) fmt.Stringer { return RunExtStoreSets(s) }, extStoreSetsPoints},
		{"ext-smt", "Extension: multithreaded MLP (§7)",
			func(s Setup) fmt.Stringer { return RunExtSMT(s) }, nil},
		{"ext-smtsched", "Extension: MLP-aware SMT fetch scheduling (policies inside the bounds)",
			func(s Setup) fmt.Stringer { return RunExtSMTSched(s) }, nil},
		{"ext-bandwidth", "Extension: finite memory bandwidth (queueing model, §4.1)",
			func(s Setup) fmt.Stringer { return RunExtBandwidth(s) }, nil},
		{"stability", "Multi-seed stability (error bars for every exhibit)",
			func(s Setup) fmt.Stringer { return RunStability(s) }, stabilityPoints},
		{"compare", "Paper vs measured: headline numbers side by side",
			func(s Setup) fmt.Stringer { return RunCompare(s) }, comparePoints},
	}
}

// Find returns the runner with the given ID, or nil.
func Find(id string) *Runner {
	all := All()
	for i := range all {
		if all[i].ID == id {
			return &all[i]
		}
	}
	return nil
}
