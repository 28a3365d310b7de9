package atrace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/bpred"
	"mlpsim/internal/isa"
	"mlpsim/internal/mem"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/vpred"
	"mlpsim/internal/workload"
)

const (
	testWarmup  = 50_000
	testMeasure = 120_000
)

func captureStream(t testing.TB, w workload.Config, acfg annotate.Config) *Stream {
	t.Helper()
	a := annotate.New(workload.MustNew(w), acfg)
	a.Warm(testWarmup)
	return Capture(a, testMeasure)
}

func directInsts(w workload.Config, acfg annotate.Config) ([]annotate.Inst, annotate.Stats) {
	a := annotate.New(workload.MustNew(w), acfg)
	a.Warm(testWarmup)
	insts := a.Collect(testMeasure)
	return insts, a.Stats()
}

// TestReplayMatchesDirect is the core fidelity check: the replayed stream
// must be field-for-field identical to what a direct annotator yields,
// for every workload preset.
func TestReplayMatchesDirect(t *testing.T) {
	for _, w := range workload.Presets(7) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			want, wantStats := directInsts(w, annotate.Config{})
			s := captureStream(t, w, annotate.Config{})
			if s.Len() != int64(len(want)) {
				t.Fatalf("stream length %d, want %d", s.Len(), len(want))
			}
			if got := s.Stats(); got != wantStats {
				t.Errorf("stream stats %+v, want %+v", got, wantStats)
			}
			r := s.Replay()
			for i, wi := range want {
				gi, ok := r.Next()
				if !ok {
					t.Fatalf("replay ended early at %d", i)
				}
				if gi != wi {
					t.Fatalf("inst %d: replay %+v, want %+v", i, gi, wi)
				}
			}
			if _, ok := r.Next(); ok {
				t.Fatal("replay yielded extra instructions")
			}
		})
	}
}

// TestReplayMatchesDirectValuePrediction covers the VPOutcome column.
func TestReplayMatchesDirectValuePrediction(t *testing.T) {
	w := workload.Presets(3)[0]
	acfgFor := func() annotate.Config {
		return annotate.Config{Value: vpred.NewLastValue(vpred.DefaultEntries)}
	}
	want, wantStats := directInsts(w, acfgFor())
	s := captureStream(t, w, acfgFor())
	if got := s.Stats(); got != wantStats {
		t.Errorf("stream stats %+v, want %+v", got, wantStats)
	}
	r := s.Replay()
	var vpSeen bool
	for i, wi := range want {
		gi, ok := r.Next()
		if !ok {
			t.Fatalf("replay ended early at %d", i)
		}
		if gi != wi {
			t.Fatalf("inst %d: replay %+v, want %+v", i, gi, wi)
		}
		if gi.VPOutcome != vpred.NoPredict {
			vpSeen = true
		}
	}
	if !vpSeen {
		t.Error("no value-prediction outcomes in test window; coverage too weak")
	}
}

// TestReplaysAreIndependent: two concurrent cursors over one stream do
// not interfere.
func TestReplaysAreIndependent(t *testing.T) {
	w := workload.Presets(5)[1]
	s := captureStream(t, w, annotate.Config{})
	r1, r2 := s.Replay(), s.Replay()
	// Advance r1 halfway, then run r2 fully, then finish r1.
	half := s.Len() / 2
	for i := int64(0); i < half; i++ {
		r1.Next()
	}
	var n2 int64
	for {
		if _, ok := r2.Next(); !ok {
			break
		}
		n2++
	}
	var n1 = half
	for {
		if _, ok := r1.Next(); !ok {
			break
		}
		n1++
	}
	if n1 != s.Len() || n2 != s.Len() {
		t.Fatalf("cursors saw %d / %d instructions, want %d", n1, n2, s.Len())
	}
}

// TestStreamRoundTrip: a stream written in the columnar format and read
// back (through the heap fallback) holds every column and the stored
// statistics exactly, not just an equal replay.
func TestStreamRoundTrip(t *testing.T) {
	w := workload.Presets(11)[2]
	s := captureStream(t, w, annotate.Config{})
	path := filepath.Join(t.TempDir(), "s"+spillExt)
	writeColumnarFile(t, path, s)
	got := openColumnarHeap(t, path)
	got.mapped = nil
	if !reflect.DeepEqual(s, got) {
		t.Errorf("round-tripped stream differs")
		if got.n != s.n || got.firstIndex != s.firstIndex || got.lineShift != s.lineShift {
			t.Errorf("geometry: got (n=%d first=%d shift=%d), want (n=%d first=%d shift=%d)",
				got.n, got.firstIndex, got.lineShift, s.n, s.firstIndex, s.lineShift)
		}
		if got.stats != s.stats {
			t.Errorf("stats: got %+v, want %+v", got.stats, s.stats)
		}
	}
}

// TestOpenSpillMissing: a missing spill is an ordinary error, not
// corruption, so the disk cache builds instead of quarantining.
func TestOpenSpillMissing(t *testing.T) {
	_, err := OpenSpill(filepath.Join(t.TempDir(), "nope"+spillExt))
	if err == nil || errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("OpenSpill of a missing file: err %v, want a plain not-exist error", err)
	}
}

// TestConfigKey covers keyability rules.
func TestConfigKey(t *testing.T) {
	k0, fresh, ok := ConfigKey(annotate.Config{})
	if !ok {
		t.Fatal("zero config must be keyable")
	}
	// nil branch and an explicit untrained default gshare share a stream.
	k1, _, ok := ConfigKey(annotate.Config{Branch: bpred.NewGshare(bpred.DefaultGshare())})
	if !ok || k1 != k0 {
		t.Errorf("untrained default gshare key %q, want %q", k1, k0)
	}
	// A trained gshare is not keyable.
	g := bpred.NewGshare(bpred.DefaultGshare())
	g.Update(&isa.Inst{Class: isa.Branch, Taken: true})
	if _, _, ok := ConfigKey(annotate.Config{Branch: g}); ok {
		t.Error("trained gshare must not be keyable")
	}
	// Prefetchers: nil and untrained deterministic instances are keyable,
	// trained ones are not (their table state is invisible to the key).
	if _, _, ok := ConfigKey(annotate.Config{IPrefetch: nil, DPrefetch: nil}); !ok {
		t.Error("nil prefetchers must stay keyable")
	}
	pcfg := annotate.Config{
		IPrefetch: prefetch.NewSequential(4, mem.IFetch),
		DPrefetch: prefetch.NewStride(1024, 4),
	}
	kp, pFresh, ok := ConfigKey(pcfg)
	if !ok || kp == k0 {
		t.Errorf("untrained prefetcher config must be keyable and distinct: %q vs %q", kp, k0)
	}
	kp2, _, _ := ConfigKey(annotate.Config{
		IPrefetch: prefetch.NewSequential(8, mem.IFetch),
		DPrefetch: prefetch.NewStride(1024, 4),
	})
	if kp2 == kp {
		t.Error("prefetcher depth must be part of the key")
	}
	pc1, pc2 := pFresh(), pFresh()
	if pc1.IPrefetch == pc2.IPrefetch || pc1.DPrefetch == pc2.DPrefetch {
		t.Error("fresh() must not reuse prefetcher instances")
	}
	if pc1.IPrefetch == pcfg.IPrefetch || pc1.DPrefetch == pcfg.DPrefetch {
		t.Error("fresh() must not alias the caller's prefetcher instances")
	}
	trained := prefetch.NewStride(1024, 4)
	trained.OnLoad(mem.NewHierarchy(mem.DefaultHierarchy()), 0x400, 0x1000)
	if _, _, ok := ConfigKey(annotate.Config{DPrefetch: trained}); ok {
		t.Error("trained stride prefetcher must not be keyable")
	}
	// Value predictors.
	kv, _, ok := ConfigKey(annotate.Config{Value: vpred.NewLastValue(1 << 10)})
	if !ok || kv == k0 {
		t.Errorf("last-value config must be keyable and distinct: %q vs %q", kv, k0)
	}
	// fresh() must build new predictor instances each call.
	c1, c2 := fresh(), fresh()
	if c1.Branch == c2.Branch {
		t.Error("fresh() must not reuse stateful predictor instances")
	}
}

// testSpec is the BuildSpec of the standard test window over w under
// the default annotation configuration.
func testSpec(w workload.Config) BuildSpec {
	return BuildSpec{
		NewAnnotator: func() *annotate.Annotator {
			return annotate.New(workload.MustNew(w), annotate.Config{})
		},
		Warmup:  testWarmup,
		Measure: testMeasure,
	}
}

// TestCacheSingleflight: concurrent GetTrace calls for one key run one
// build.
func TestCacheSingleflight(t *testing.T) {
	w := workload.Presets(2)[0]
	c := NewCache()
	var builds atomic.Int64
	key := Key{Workload: w, Annot: "test", Warmup: testWarmup, Measure: testMeasure}
	spec := testSpec(w)
	newAnn := spec.NewAnnotator
	spec.NewAnnotator = func() *annotate.Annotator {
		builds.Add(1)
		return newAnn()
	}
	const goroutines = 8
	streams := make([]*Stream, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = c.GetTrace(key, spec)
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	for i := 1; i < goroutines; i++ {
		if streams[i] != streams[0] {
			t.Errorf("goroutine %d got a different stream pointer", i)
		}
	}
	st := c.Stats()
	if st.Builds != 1 || st.Hits+st.Misses != goroutines {
		t.Errorf("stats %+v inconsistent with %d gets", st, goroutines)
	}
}

// TestCacheBuildPanic: a panicking build propagates to all waiters and
// the key is retryable afterwards.
func TestCacheBuildPanic(t *testing.T) {
	c := NewCache()
	w := workload.Presets(2)[1]
	key := Key{Workload: w, Annot: "panic", Warmup: testWarmup, Measure: testMeasure}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic to propagate")
			}
		}()
		c.GetTrace(key, BuildSpec{
			NewAnnotator: func() *annotate.Annotator { panic("boom") },
			Warmup:       testWarmup,
			Measure:      testMeasure,
		})
	}()
	if tr := c.GetTrace(key, testSpec(w)); tr == nil || tr.Len() != testMeasure {
		t.Fatalf("retry after panic returned %v", tr)
	}
	if st := c.Stats(); st.Builds != 1 || st.Streams != 1 {
		t.Errorf("stats %+v, want the retry as the only build", st)
	}
}

// TestCacheEviction: exceeding the byte cap drops LRU entries but never
// the most recent one.
func TestCacheEviction(t *testing.T) {
	c := NewCache()
	w := workload.Presets(4)[0]
	mk := func(i int) (Key, BuildSpec) {
		cfg := w
		cfg.Seed = int64(i + 100)
		return Key{Workload: cfg, Annot: "e", Warmup: 1000, Measure: 5000}, BuildSpec{
			NewAnnotator: func() *annotate.Annotator {
				return annotate.New(workload.MustNew(cfg), annotate.Config{})
			},
			Warmup:  1000,
			Measure: 5000,
		}
	}
	k0, spec0 := mk(0)
	t0 := c.GetTrace(k0, spec0)
	c.SetCapBytes(t0.MemBytes() + t0.MemBytes()/2) // room for ~1.5 streams
	k1, spec1 := mk(1)
	c.GetTrace(k1, spec1)
	st := c.Stats()
	if st.Streams != 1 {
		t.Errorf("after eviction %d streams cached, want 1", st.Streams)
	}
	// k1 must have survived (most recent).
	c.GetTrace(k1, spec1)
	if after := c.Stats(); after.Builds != st.Builds {
		t.Error("most-recently-used stream was evicted")
	}
}

// TestCacheDiskSpill: a second cache instance sharing the directory loads
// from disk instead of re-annotating, and the loaded stream is identical.
func TestCacheDiskSpill(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(6)[0]
	key := Key{Workload: w, Annot: "spill", Warmup: testWarmup, Measure: testMeasure}

	c1 := NewCache()
	c1.SetDir(dir)
	s1 := c1.GetTrace(key, testSpec(w))

	c2 := NewCache()
	c2.SetDir(dir)
	s2 := c2.GetTrace(key, testSpec(w))
	if st := c2.Stats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("second cache stats %+v, want 1 disk hit and no re-annotation", st)
	}
	assertSameReplay(t, s1, s2)
}

// TestBuildLeavesNoLockOrLease: a build coordinates through its lease
// alone, so once it returns the directory holds no per-key lock file
// (index.lock is the only lock) and no lease.
func TestBuildLeavesNoLockOrLease(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(6)[1]
	c := NewCache()
	c.SetDir(dir)
	for i := 0; i < 2; i++ {
		key := Key{Workload: w, Annot: fmt.Sprintf("litter%d", i), Warmup: testWarmup, Measure: testMeasure}
		c.GetTrace(key, testSpec(w))
	}
	if st := c.Stats(); st.Builds != 2 || st.LeasesTaken != 2 {
		t.Fatalf("stats %+v, want 2 builds under 2 leases", st)
	}
	locks, _ := filepath.Glob(filepath.Join(dir, "*.lock"))
	if len(locks) != 1 || filepath.Base(locks[0]) != indexLockName {
		t.Errorf("lock files %v, want only %s", locks, indexLockName)
	}
	if leases, _ := filepath.Glob(filepath.Join(dir, "*"+leaseExt)); len(leases) != 0 {
		t.Errorf("leases left after release: %v", leases)
	}
}

// TestMonolithicSpillQuarantined: a spill in the retired single-file
// layout (a bare MLPCOLS1 file at the key's path) is not a manifest, so
// the first reader quarantines it and rebuilds exactly once; later
// caches hit the republished spill.
func TestMonolithicSpillQuarantined(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(6)[2]
	key := Key{Workload: w, Annot: "monolithic", Warmup: testWarmup, Measure: testMeasure}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeColumnarFile(t, filepath.Join(dir, keyHash(key)+spillExt), captureStream(t, w, annotate.Config{}))

	c1 := NewCache()
	c1.SetDir(dir)
	c1.GetTrace(key, testSpec(w))
	if st := c1.Stats(); st.Quarantined != 1 || st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("first cache stats %+v, want 1 quarantine and 1 build", st)
	}
	if moved, _ := filepath.Glob(filepath.Join(dir, "*"+corruptMark+"*")); len(moved) != 1 {
		t.Errorf("quarantined files %v, want the one monolithic spill", moved)
	}
	c2 := NewCache()
	c2.SetDir(dir)
	assertSameReplay(t, captureStream(t, w, annotate.Config{}), c2.GetTrace(key, testSpec(w)))
	if st := c2.Stats(); st.Quarantined != 0 || st.Builds != 0 || st.DiskHits != 1 {
		t.Errorf("second cache stats %+v, want a plain disk hit", st)
	}
}
