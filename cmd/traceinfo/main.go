// Command traceinfo characterizes a trace (a raw trace file from
// tracegen, or a generated workload): instruction-class mix, miss
// profile, branch behaviour, value-predictability and inter-miss
// clustering — the §2.3/Table 1 characterization for arbitrary inputs.
// It annotates the raw instructions itself, so annotated traces (which
// carry no cache hierarchy to report) are not accepted.
//
// Examples:
//
//	traceinfo -workload jbb
//	traceinfo -trace db.trc -n 5000000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"mlpsim/internal/annotate"
	"mlpsim/internal/isa"
	"mlpsim/internal/stats"
	"mlpsim/internal/trace"
	"mlpsim/internal/vpred"
	"mlpsim/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "database", "workload preset (see cmd/mlpsim)")
		traceFile    = flag.String("trace", "", "raw trace file from tracegen (overrides -workload)")
		seed         = flag.Int64("seed", 1, "workload generation seed")
		warmup       = flag.Int64("warmup", 1_000_000, "warm-up instructions")
		n            = flag.Int64("n", 4_000_000, "instructions to characterize")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "traceinfo: unexpected argument %q: pass a trace file with -trace\n", flag.Arg(0))
		os.Exit(2)
	}
	wl, err := workload.ByName(*workloadName, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceinfo: -workload %q: unknown workload\n", *workloadName)
		os.Exit(2)
	}
	if *warmup < 0 {
		fmt.Fprintf(os.Stderr, "traceinfo: -warmup %d: must be >= 0\n", *warmup)
		os.Exit(2)
	}
	if *n <= 0 {
		fmt.Fprintf(os.Stderr, "traceinfo: -n %d: must be > 0\n", *n)
		os.Exit(2)
	}

	src, err := openSource(*traceFile, wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}

	a := annotate.New(src, annotate.Config{Value: vpred.NewLastValue(vpred.DefaultEntries)})
	a.Warm(*warmup)

	classes := map[isa.Class]uint64{}
	var rec stats.DistanceRecorder
	var total int64
	for total = 0; total < *n; total++ {
		in, ok := a.Next()
		if !ok {
			break
		}
		classes[in.Class]++
		if in.OffChip() {
			rec.Observe(in.Index)
		}
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "traceinfo: empty trace")
		os.Exit(1)
	}
	s := a.Stats()

	fmt.Printf("instructions characterized: %d (after %d warm-up)\n\n", total, *warmup)

	fmt.Println("instruction mix:")
	var order []isa.Class
	for c := range classes {
		order = append(order, c)
	}
	// Ties break by class so the listing is deterministic.
	sort.Slice(order, func(i, j int) bool {
		if ci, cj := classes[order[i]], classes[order[j]]; ci != cj {
			return ci > cj
		}
		return order[i] < order[j]
	})
	for _, c := range order {
		fmt.Printf("  %-9s %7.3f%%  (%d)\n", c, 100*float64(classes[c])/float64(total), classes[c])
	}

	fmt.Println("\noff-chip profile:")
	fmt.Printf("  miss rate:        %.3f / 100 instructions\n", s.MissRatePer100())
	fmt.Printf("  data misses:      %d\n", s.DMisses)
	fmt.Printf("  prefetch misses:  %d (%.0f%% later used)\n", s.PMisses,
		100*stats.Ratio(float64(s.PrefetchUsed), float64(s.PMisses)))
	fmt.Printf("  ifetch misses:    %d\n", s.IMisses)
	fmt.Printf("  store misses:     %d (invisible to MLP)\n", s.SMisses)
	fmt.Printf("  mean inter-miss:  %.0f instructions\n", rec.MeanDistance())

	pts := []int64{16, 64, 256, 1024}
	obs := rec.CDFAt(pts)
	uni := stats.UniformCDFAt(rec.MeanDistance(), pts)
	fmt.Println("  clustering (P[next miss within N]):")
	for i, p := range pts {
		fmt.Printf("    within %4d: observed %.3f  uniform %.3f\n", p, obs[i], uni[i])
	}

	fmt.Println("\nbranches:")
	fmt.Printf("  count:            %d (%.1f%% of instructions)\n", s.Branches,
		100*float64(s.Branches)/float64(total))
	fmt.Printf("  mispredict rate:  %.2f%% (64K gshare + 16K BTB)\n",
		100*stats.Ratio(float64(s.Mispredicts), float64(s.Branches)))

	c, w, np := s.VP.Fractions()
	fmt.Println("\nmissing-load value predictability (16K last-value predictor):")
	fmt.Printf("  correct %.0f%%  wrong %.0f%%  no-predict %.0f%%\n", 100*c, 100*w, 100*np)

	hs := a.Hierarchy().Stats()
	fmt.Println("\nhierarchy:")
	fmt.Printf("  L1I misses: %d   L1D misses: %d   L2 misses: %d   TLB misses: %d\n",
		hs.L1IMisses, hs.L1DMisses, hs.L2Misses, hs.TLBMisses)
}

func openSource(traceFile string, w workload.Config) (trace.Source, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		return trace.NewReaderSource(f)
	}
	return workload.MustNew(w), nil
}
