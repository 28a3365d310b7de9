package atrace

import (
	"fmt"
	"os"
	"path/filepath"

	"mlpsim/internal/annotate"
)

// BuildSpec describes one annotation pass: a fresh annotator warmed over
// Warmup instructions, then Measure instructions captured. The window
// must match the cache key.
type BuildSpec struct {
	// NewAnnotator returns a fresh, unwarmed annotator positioned at
	// dynamic instruction 0.
	NewAnnotator func() *annotate.Annotator
	// Warmup instructions train the annotator before the first captured
	// one; Measure instructions are captured.
	Warmup, Measure int64
}

// capture runs spec's pass into the heap: it warms a fresh annotator,
// captures the measured window and checks its length. A source that
// ends early panics; Cache.GetTrace hands the panic to every waiter.
func capture(spec BuildSpec) *Stream {
	a := spec.NewAnnotator()
	if a.Warm(spec.Warmup); a.Position() != spec.Warmup {
		panic(fmt.Sprintf("atrace: source ended during warm-up (%d of %d instructions)", a.Position(), spec.Warmup))
	}
	s := Capture(a, spec.Measure)
	if s.Len() != spec.Measure {
		panic(fmt.Sprintf("atrace: captured %d instructions, want %d", s.Len(), spec.Measure))
	}
	return s
}

// CaptureToFile runs capture, then publishes the trace at base in the
// spill format: the column file "<base>.seg0000" first, then the
// MLPCOLS2 manifest at base, each through a temp file and an atomic
// rename, so another process sees either no trace or a whole one. It
// returns the trace reopened memory-mapped from the published column
// file, keeping the builder's heap flat. If publishing fails it writes
// no manifest and returns the heap copy with the error: the trace is
// still good, it is just not shared on disk.
func CaptureToFile(base string, spec BuildSpec) (*Stream, error) {
	s := capture(spec)
	dir, seg := filepath.Dir(base), segmentPath(base, 0)
	segBytes, err := writeAtomic(dir, tmpPrefix+"*", seg, func(f *os.File) error {
		return writeColumnar(f, s)
	})
	if err != nil {
		return s, err
	}
	ms, err := openColumnar(seg)
	if err != nil {
		return s, err
	}
	if _, err := writeAtomic(dir, tmpPrefix+"*", base, func(f *os.File) error {
		return writeManifest(f, s, segBytes)
	}); err != nil {
		return s, err
	}
	return ms, nil
}
