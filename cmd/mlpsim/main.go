// Command mlpsim runs the epoch-model MLP simulator on a synthetic
// workload or a stored binary trace and prints MLP, access counts and the
// epoch-limiter breakdown.
//
// Examples:
//
//	mlpsim -workload database -window 64 -issue C
//	mlpsim -workload jbb -window 64 -rob 256 -issue D
//	mlpsim -workload database -issue D -runahead
//	mlpsim -trace db.trc -issue E -window 2048   # raw trace (tracegen)
//	mlpsim -trace db.acol -issue D -runahead     # annotated trace (tracegen -annotate),
//	                                             # memory-mapped
//	mlpsim -workload web -inorder use
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/bpred"
	"mlpsim/internal/core"
	"mlpsim/internal/mem"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/trace"
	"mlpsim/internal/vpred"
	"mlpsim/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "database", "workload: database, jbb, web, chase, stream, serialized, ibound, strided, storeheavy")
		traceFile    = flag.String("trace", "", "raw or annotated trace file from tracegen (overrides -workload)")
		seed         = flag.Int64("seed", 1, "workload generation seed")
		warmup       = flag.Int64("warmup", 2_000_000, "warm-up instructions")
		measure      = flag.Int64("measure", 8_000_000, "measured instructions (0 = rest of the -trace file)")
		window       = flag.Int("window", 64, "issue window entries")
		rob          = flag.Int("rob", 0, "reorder buffer entries (0 = same as window)")
		fetchBuf     = flag.Int("fetchbuf", 32, "fetch buffer entries")
		issue        = flag.String("issue", "C", "issue configuration A-E (Table 2)")
		inorder      = flag.String("inorder", "", "in-order mode: miss or use (overrides window flags)")
		runahead     = flag.Bool("runahead", false, "enable runahead execution")
		maxRunahead  = flag.Int("max-runahead", 2048, "maximum runahead distance")
		vp           = flag.Bool("vp", false, "enable missing-load value prediction (16K last-value)")
		perfVP       = flag.Bool("perf-vp", false, "perfect value prediction (limit study)")
		perfBP       = flag.Bool("perf-bp", false, "perfect branch prediction (limit study)")
		perfI        = flag.Bool("perf-ifetch", false, "perfect instruction prefetching (limit study)")
		l2           = flag.Int("l2", 2<<20, "L2 capacity in bytes")
		mshrs        = flag.Int("mshrs", 0, "miss-status holding registers (0 = unlimited)")
		storeBuf     = flag.Int("storebuf", 0, "store buffer entries (0 = infinite)")
		ipf          = flag.Int("iprefetch", 0, "hardware sequential I-prefetch depth (0 = off)")
		dpf          = flag.Int("dprefetch", 0, "hardware stride D-prefetch depth (0 = off)")
		epochs       = flag.Bool("epochs", false, "print per-epoch detail (first 50 epochs)")
		timeline     = flag.Bool("timeline", false, "print a Figure-1-style epoch timeline (first 32 epochs)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mlpsim: unexpected argument %q: every option is a flag\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := validateFlags(*traceFile, *warmup, *measure); err != nil {
		fmt.Fprintln(os.Stderr, "mlpsim:", err)
		os.Exit(2)
	}
	w, err := workload.ByName(*workloadName, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlpsim: -workload %q: unknown workload\n", *workloadName)
		os.Exit(2)
	}
	cfg, err := buildConfig(engineFlags{
		window: *window, rob: *rob, fetchBuf: *fetchBuf, maxRunahead: *maxRunahead,
		mshrs: *mshrs, storeBuf: *storeBuf, issue: *issue, inorder: *inorder,
		runahead: *runahead, vp: *vp, perfVP: *perfVP, perfBP: *perfBP, perfI: *perfI,
		measure: *measure,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlpsim:", err)
		os.Exit(2)
	}

	// An annotated trace replays directly: annotation and warm-up
	// already happened at tracegen time, so the annotation flags (-l2,
	// -iprefetch, -dprefetch, -vp as a predictor) have no effect and the
	// engine starts at the trace's first instruction. Engine-level flags
	// (-window, -issue, -runahead, -perf-* ...) apply as usual. Its column
	// files are memory-mapped rather than decoded, so they stay in the OS
	// page cache instead of the Go heap.
	src, pre, err := openSource(*traceFile, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlpsim:", err)
		os.Exit(1)
	}
	var engineSrc core.AnnotatedSource
	if pre != nil {
		if *ipf > 0 || *dpf > 0 || *vp {
			fmt.Fprintln(os.Stderr, "mlpsim: note: -iprefetch/-dprefetch/-vp annotation is baked in at tracegen time; flags ignored for annotated traces")
		}
		engineSrc = pre.Source()
	} else {
		acfg := annotate.Config{Hierarchy: mem.DefaultHierarchy().WithL2Size(*l2)}
		if *ipf > 0 {
			acfg.IPrefetch = prefetch.NewSequential(*ipf, mem.IFetch)
		}
		if *dpf > 0 {
			acfg.DPrefetch = prefetch.NewStride(1024, *dpf)
		}
		if *vp {
			acfg.Value = vpred.NewLastValue(vpred.DefaultEntries)
		}
		if *perfBP {
			acfg.Branch = bpred.Perfect{}
		}
		ann := annotate.New(src, acfg)
		ann.Warm(*warmup)
		engineSrc = ann
	}

	if *epochs {
		n := 0
		cfg.OnEpoch = func(ep core.Epoch) {
			if n < 50 {
				fmt.Printf("epoch %4d: trigger=%-10d accesses=%2d (D=%d P=%d I=%d) limiter=%s\n",
					ep.Seq, ep.Trigger, ep.Accesses, ep.DAccesses, ep.PAccesses, ep.IAccesses, ep.Limiter)
			}
			n++
		}
	}
	var tl core.Timeline
	if *timeline {
		prev := cfg.OnEpoch
		cfg.OnEpoch = func(ep core.Epoch) {
			tl.OnEpoch(ep)
			if prev != nil {
				prev(ep)
			}
		}
	}
	res := core.NewEngine(engineSrc, cfg).Run()
	if *timeline {
		fmt.Println(tl.String())
	}

	fmt.Printf("configuration:    %s\n", cfg.Name())
	fmt.Printf("instructions:     %d\n", res.Instructions)
	fmt.Printf("off-chip accesses: %d  (loads %d, prefetches %d, ifetches %d)\n",
		res.Accesses, res.DAccesses, res.PAccesses, res.IAccesses)
	fmt.Printf("epochs:           %d\n", res.Epochs)
	fmt.Printf("miss rate:        %.3f / 100 instructions\n", res.MissRatePer100())
	fmt.Printf("MLP:              %.3f\n", res.MLP())
	if res.SAccesses > 0 {
		fmt.Printf("store misses:     %d (store MLP %.3f)\n", res.SAccesses, res.StoreMLP())
	}
	fmt.Println("epoch limiters:")
	fr := res.LimiterFracs()
	for l := 0; l < core.NumLimiters; l++ {
		if res.Limiters[l] == 0 {
			continue
		}
		fmt.Printf("  %-14s %6.1f%%  (%d)\n", core.Limiter(l).String(), 100*fr[l], res.Limiters[l])
	}
}

// validateFlags rejects negative windows, and a run that would never
// end: a generated workload is unbounded, so it needs a positive
// -measure (0 means "rest of the trace" only for a -trace file).
func validateFlags(traceFile string, warmup, measure int64) error {
	switch {
	case warmup < 0:
		return fmt.Errorf("-warmup %d: must be >= 0", warmup)
	case measure < 0:
		return fmt.Errorf("-measure %d: must be >= 0 (0 = rest of the -trace file)", measure)
	case measure == 0 && traceFile == "":
		return errors.New("-measure 0 needs -trace: a generated workload never ends")
	}
	return nil
}

// engineFlags are the flag values that shape the engine configuration.
type engineFlags struct {
	window, rob, fetchBuf, maxRunahead, mshrs, storeBuf int
	issue, inorder                                      string
	runahead, vp, perfVP, perfBP, perfI                 bool
	measure                                             int64
}

// buildConfig assembles and validates the engine configuration, naming
// the offending flag in any error, so a bad flag fails before the
// workload is generated and warmed.
func buildConfig(f engineFlags) (core.Config, error) {
	cfg := core.Default()
	ic, err := core.ParseIssueConfig(f.issue)
	if err != nil {
		return cfg, fmt.Errorf("-issue %q: must be one of A-E", f.issue)
	}
	cfg.Issue = ic
	switch f.inorder {
	case "":
	case "miss":
		cfg.Mode = core.InOrderStallOnMiss
	case "use":
		cfg.Mode = core.InOrderStallOnUse
	default:
		return cfg, fmt.Errorf("-inorder %q: must be miss or use", f.inorder)
	}
	cfg.IssueWindow, cfg.ROB = f.window, f.rob
	if cfg.ROB == 0 {
		cfg.ROB = f.window
	}
	cfg.FetchBuffer = f.fetchBuf
	cfg.Runahead, cfg.MaxRunahead = f.runahead, f.maxRunahead
	cfg.MSHRs, cfg.StoreBuffer = f.mshrs, f.storeBuf
	cfg.ValuePredict, cfg.PerfectVP = f.vp, f.perfVP
	cfg.PerfectBP, cfg.PerfectIFetch = f.perfBP, f.perfI
	cfg.MaxInstructions = f.measure

	ooo := cfg.Mode == core.OutOfOrder
	switch {
	case ooo && f.window <= 0:
		return cfg, fmt.Errorf("-window %d: must be positive", f.window)
	case ooo && f.rob != 0 && f.rob < f.window:
		return cfg, fmt.Errorf("-rob %d: must be 0 (same as -window) or at least -window %d", f.rob, f.window)
	case f.fetchBuf < 0:
		return cfg, fmt.Errorf("-fetchbuf %d: must be >= 0", f.fetchBuf)
	case f.runahead && f.maxRunahead <= 0:
		return cfg, fmt.Errorf("-max-runahead %d: must be positive with -runahead", f.maxRunahead)
	case f.mshrs < 0:
		return cfg, fmt.Errorf("-mshrs %d: must be >= 0 (0 = unlimited)", f.mshrs)
	case f.storeBuf < 0:
		return cfg, fmt.Errorf("-storebuf %d: must be >= 0 (0 = infinite)", f.storeBuf)
	}
	return cfg, cfg.Validate()
}

// openSource returns the instruction source: an annotated trace (pre),
// or raw instructions (src) decoded from a raw trace file or generated
// from workload w.
func openSource(traceFile string, w workload.Config) (src trace.Source, pre *atrace.Stream, err error) {
	if traceFile == "" {
		return workload.MustNew(w), nil, nil
	}
	f, err := os.Open(traceFile)
	if err != nil {
		return nil, nil, err
	}
	// A raw trace stays open for the process lifetime.
	src, rawErr := trace.NewReaderSource(f)
	if rawErr == nil {
		return src, nil, nil
	}
	f.Close()
	pre, err = atrace.OpenSpill(traceFile)
	if err != nil {
		return nil, nil, fmt.Errorf("%s is neither a raw trace (%v) nor an annotated one (%v)", traceFile, rawErr, err)
	}
	return nil, pre, nil
}
