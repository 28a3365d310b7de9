// Command tracegen generates a synthetic workload trace and stores it in
// the raw binary trace format consumed by cmd/mlpsim and cmd/traceinfo,
// which choose the cache hierarchy and predictors at replay time.
//
// With -annotate it instead runs the functional annotation pass (cache
// hierarchy + branch predictor) over the workload and writes the
// annotated trace in the spill format of the experiment trace cache: an
// MLPCOLS2 manifest at -o plus its one MLPCOLS1 column file beside it
// (-o.seg0000), the column file first and the manifest last.
// -warmup instructions train the annotator, then -n post-warmup
// instructions are captured in one pass. The files are byte-identical
// to the spill the trace cache writes for the same window. cmd/mlpsim
// replays annotated traces directly, memory-mapped, skipping its own
// annotation and warm-up.
//
// Examples:
//
//	tracegen -workload database -n 10000000 -o db.trc
//	tracegen -workload database -annotate -warmup 2000000 -n 8000000 -o db.acol
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/trace"
	"mlpsim/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "database", "workload: database, jbb, web, chase, stream, serialized, ibound, strided, storeheavy")
		seed     = flag.Int64("seed", 1, "generation seed")
		n        = flag.Int64("n", 10_000_000, "instructions to generate (post-warmup when -annotate)")
		out      = flag.String("o", "", "output file (required)")
		annotful = flag.Bool("annotate", false, "write an annotated trace (manifest plus segment file), which cmd/mlpsim memory-maps")
		warmup   = flag.Int64("warmup", 2_000_000, "annotator warm-up instructions (only with -annotate)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tracegen: unexpected argument %q: every option is a flag\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := validateFlags(*out, *n, *warmup); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}
	cfg, err := workload.ByName(*name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: -workload %q: unknown workload\n", *name)
		os.Exit(2)
	}
	if *annotful {
		err = writeAnnotated(cfg, *out, *warmup, *n)
	} else {
		err = writeRaw(cfg, *out, *n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// validateFlags rejects values that would write an empty trace or be
// silently reinterpreted, with a clear error instead.
func validateFlags(out string, n, warmup int64) error {
	switch {
	case out == "":
		return errors.New("-o output file is required")
	case n <= 0:
		return fmt.Errorf("-n %d: must be > 0", n)
	case warmup < 0:
		return fmt.Errorf("-warmup %d: must be >= 0", warmup)
	}
	return nil
}

// writeRaw stores n generated instructions as a raw trace.
func writeRaw(cfg workload.Config, out string, n int64) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc, err := trace.NewEncoder(f, uint64(n))
	if err != nil {
		return err
	}
	src := trace.Limit(workload.MustNew(cfg), n)
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		if err := enc.Encode(in); err != nil {
			return err
		}
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d instructions to %s (%d bytes, %.2f bytes/inst)\n",
		enc.Count(), out, info.Size(), float64(info.Size())/float64(enc.Count()))
	return nil
}

// writeAnnotated captures the annotated window and publishes it at out
// as a spill.
func writeAnnotated(cfg workload.Config, out string, warmup, n int64) error {
	start := time.Now()
	s, err := atrace.CaptureToFile(out, atrace.BuildSpec{
		NewAnnotator: func() *annotate.Annotator {
			return annotate.New(workload.MustNew(cfg), annotate.Config{})
		},
		Warmup:  warmup,
		Measure: n,
	})
	if err != nil {
		return err
	}
	var bytes int64
	for _, path := range []string{out, out + ".seg0000"} {
		if fi, err := os.Stat(path); err == nil {
			bytes += fi.Size()
		}
	}
	fmt.Printf("wrote %d annotated instructions to %s (%d bytes, %.2f bytes/inst, warmup %d, %.2fs)\n",
		s.Len(), out, bytes, float64(bytes)/float64(s.Len()), s.FirstIndex(), time.Since(start).Seconds())
	return nil
}
