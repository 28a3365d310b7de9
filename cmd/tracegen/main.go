// Command tracegen generates a synthetic workload trace and stores it in
// the raw binary trace format consumed by cmd/mlpsim and cmd/traceinfo,
// which choose the cache hierarchy and predictors at replay time.
//
// With -annotate it instead runs the functional annotation pass (cache
// hierarchy + branch predictor) over the workload and writes the
// annotated trace in the spill format of the experiment trace cache: an
// MLPCOLS2 manifest at -o plus one MLPCOLS1 column file per segment
// beside it (-o.seg0000, ...). -warmup instructions train the annotator,
// then -n post-warmup instructions are captured. cmd/mlpsim replays
// annotated traces directly, memory-mapped, skipping its own annotation
// and warm-up.
//
// -segment N splits the capture into N-instruction segments built by
// -workers parallel pipelines (generation -> annotation -> columnar
// encoding per segment, exploiting the seed-deterministic generator),
// each segment file published the moment it completes and the manifest
// written last. Replay can open segment 0 while later segments are still
// being captured; the result is bit-identical to a one-segment capture.
//
// Examples:
//
//	tracegen -workload database -n 10000000 -o db.trc
//	tracegen -workload database -annotate -warmup 2000000 -n 8000000 -o db.acol
//	tracegen -workload database -annotate -segment 1000000 -workers 4 -n 8000000 -o db.acol
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
		annotful = flag.Bool("annotate", false, "write an annotated trace (manifest plus segment files), which cmd/mlpsim memory-maps")
		warmup   = flag.Int64("warmup", 2_000_000, "annotator warm-up instructions (only with -annotate)")
		segment  = flag.Int64("segment", 0, "with -annotate: instructions per segment (0 = one segment)")
		workers  = flag.Int("workers", 0, "with -annotate: parallel capture workers (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if err := validateFlags(*out, *n, *warmup, *segment, *workers, *annotful); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}
	cfg, err := workload.ByName(*name, *seed)
	if err == nil {
		if *annotful {
			err = writeAnnotated(cfg, *out, *warmup, *n, *segment, *workers)
		} else {
			err = writeRaw(cfg, *out, *n)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// validateFlags rejects values that would write an empty trace or be
// silently reinterpreted, with a clear error instead.
func validateFlags(out string, n, warmup, segment int64, workers int, annotated bool) error {
	switch {
	case out == "":
		return errors.New("-o output file is required")
	case n <= 0:
		return fmt.Errorf("-n %d: must be > 0", n)
	case warmup < 0:
		return fmt.Errorf("-warmup %d: must be >= 0", warmup)
	case segment < 0:
		return fmt.Errorf("-segment %d: must be >= 0 (0 = one segment)", segment)
	case workers < 0:
		return fmt.Errorf("-workers %d: must be >= 0 (0 = GOMAXPROCS)", workers)
	case segment > 0 && !annotated:
		return errors.New("-segment requires -annotate")
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

// writeAnnotated runs the pipelined capture, printing each segment as it
// is published so the time-to-first-replay win is visible.
func writeAnnotated(cfg workload.Config, out string, warmup, n, segment int64, workers int) error {
	start := time.Now()
	p := atrace.CaptureSegmentedToFile(out, atrace.BuildSpec{
		NewAnnotator: func() *annotate.Annotator {
			return annotate.New(workload.MustNew(cfg), annotate.Config{})
		},
		Warmup:       warmup,
		Measure:      n,
		SegmentInsts: segment,
		Workers:      workers,
	})
	for k := 0; k < p.Segments(); k++ {
		s, err := p.Segment(k)
		if err != nil {
			return err
		}
		fmt.Printf("segment %04d: %d instructions published after %.2fs\n",
			k, s.Len(), time.Since(start).Seconds())
	}
	ss, err := p.Wait()
	if err == nil {
		err = p.PublishErr()
	}
	if err != nil {
		return err
	}
	paths := []string{out}
	for k := 0; k < ss.Segments(); k++ {
		paths = append(paths, fmt.Sprintf("%s.seg%04d", out, k))
	}
	var bytes int64
	for _, path := range paths {
		if fi, serr := os.Stat(path); serr == nil {
			bytes += fi.Size()
		}
	}
	fmt.Printf("wrote %d annotated instructions to %s (%d segments, %d bytes, %.2f bytes/inst, warmup %d, %.2fs)\n",
		ss.Len(), out, ss.Segments(), bytes, float64(bytes)/float64(ss.Len()), ss.FirstIndex(), time.Since(start).Seconds())
	return nil
}
