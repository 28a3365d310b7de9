package atrace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/storeset"
	"mlpsim/internal/vpred"
	"mlpsim/internal/workload"
)

// spillSpec is a BuildSpec over w under the annotation config acfg
// returns, warmed over 1000 instructions.
func spillSpec(w workload.Config, acfg func() annotate.Config, measure int64) BuildSpec {
	return BuildSpec{
		NewAnnotator: func() *annotate.Annotator { return annotate.New(workload.MustNew(w), acfg()) },
		Warmup:       1000,
		Measure:      measure,
	}
}

// TestSpillStreamMatchesReference: the spill CaptureToFile streams to
// disk is byte for byte the reference encoding of the same window
// captured into the heap, for every preset, a store-set config and a
// value-predictor config. Measure 1 and 63 leave every section in the
// builder's tail and a partial bitset word; 200,003 moves many chunks
// through the spill log and ends on a partial word.
func TestSpillStreamMatchesReference(t *testing.T) {
	plain := func() annotate.Config { return annotate.Config{} }
	type config struct {
		name string
		w    workload.Config
		acfg func() annotate.Config
	}
	var configs []config
	for _, w := range workload.Presets(5) {
		configs = append(configs, config{w.Name, w, plain})
	}
	configs = append(configs,
		config{"storesets", workload.StoreHeavy(5), func() annotate.Config {
			return annotate.Config{StoreSets: storeset.New(storeset.DefaultConfig())}
		}},
		config{"lastvalue", workload.Presets(5)[0], func() annotate.Config {
			return annotate.Config{Value: vpred.NewLastValue(1024)}
		}},
	)
	dir := t.TempDir()
	for _, c := range configs {
		for _, measure := range []int64{1, 63, 200_003} {
			t.Run(fmt.Sprintf("%s/%d", c.name, measure), func(t *testing.T) {
				spec := spillSpec(c.w, c.acfg, measure)
				var want bytes.Buffer
				if err := writeColumnar(&want, capture(spec)); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, fmt.Sprintf("%s-%d%s", c.name, measure, spillExt))
				if _, err := CaptureToFile(path, spec); err != nil {
					t.Fatalf("CaptureToFile: %v", err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					i := 0
					for i < len(got) && i < len(want.Bytes()) && got[i] == want.Bytes()[i] {
						i++
					}
					t.Fatalf("spill (%d bytes) differs from the reference (%d bytes) first at byte %d",
						len(got), want.Len(), i)
				}
			})
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, tmpPrefix+"*")); len(files) != 0 {
		t.Errorf("builds left temp files %v", files)
	}
}

// TestSpillStreamHeapFlat: a spilled build's heap does not grow with its
// window. Doubling the window from 200k instructions, about 2 MiB of
// columns, may allocate at most 256 KiB more.
func TestSpillStreamHeapFlat(t *testing.T) {
	w := workload.Presets(5)[0]
	dir := t.TempDir()
	allocs := func(measure int64) uint64 {
		path := filepath.Join(dir, fmt.Sprintf("w%d%s", measure, spillExt))
		spec := spillSpec(w, func() annotate.Config { return annotate.Config{} }, measure)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := CaptureToFile(path, spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("CaptureToFile: %v", err)
		}
		if !s.Mapped() {
			t.Fatal("build returned a heap trace")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const n = 200_000
	allocs(n) // first use of lazily built tables stays out of the measure
	one, two := allocs(n), allocs(2*n)
	t.Logf("allocated %d bytes building %d instructions, %d building %d", one, n, two, 2*n)
	if two > one+256<<10 {
		t.Errorf("build of %d instructions allocated %d bytes, of %d: %d more, want at most 256 KiB more",
			2*n, two, n, two-one)
	}
}

// TestSpillWriteFailure: a write that fails while a build streams its
// log, or while it lays out the spill, or on the checksum that is the
// publish's last write, leaves no file behind. CaptureToFile then
// returns the error with a heap trace from a second pass, and a cache
// serves that trace as a build.
func TestSpillWriteFailure(t *testing.T) {
	w := workload.Presets(5)[1]
	spec := spillSpec(w, func() annotate.Config { return annotate.Config{} }, 100_000)
	mono := capture(spec)
	defer func(orig func(*os.File, []byte, int64) error) { spillWriteAt = orig }(spillWriteAt)
	errFull := errors.New("no space left on device")
	for _, tc := range []struct {
		name string
		fail func(log bool, p []byte, off int64) bool
	}{
		{"log", func(log bool, p []byte, off int64) bool { return log }},
		{"spill", func(log bool, p []byte, off int64) bool { return !log && off > 0 }},
		{"checksum", func(log bool, p []byte, off int64) bool { return !log && off == 40 && len(p) == 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logName string
			failed := 0
			spillWriteAt = func(f *os.File, p []byte, off int64) error {
				if logName == "" {
					logName = f.Name() // the log takes the build's first write
				}
				if tc.fail(f.Name() == logName, p, off) {
					failed++
					return errFull
				}
				_, err := f.WriteAt(p, off)
				return err
			}
			dir := t.TempDir()
			s, err := CaptureToFile(filepath.Join(dir, "t"+spillExt), spec)
			if !errors.Is(err, errFull) || failed == 0 {
				t.Fatalf("CaptureToFile err %v after %d failed writes, want the write error", err, failed)
			}
			if s.Mapped() {
				t.Error("fallback trace is mapped")
			}
			assertSameReplay(t, mono, s)
			if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
				t.Errorf("failed build left %v", files)
			}

			logName, failed = "", 0
			c := NewCache()
			c.SetDir(dir)
			key := Key{Workload: w, Annot: "write-failure", Warmup: spec.Warmup, Measure: spec.Measure}
			assertSameReplay(t, mono, c.GetTrace(key, spec))
			if st := c.Stats(); st.Builds != 1 || st.DiskHits != 0 {
				t.Errorf("cache stats %+v, want one build", st)
			}
			if failed == 0 {
				t.Error("the cache's build wrote nothing that failed")
			}
			if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
				t.Errorf("cache's failed build left %v", files)
			}
		})
	}
}
