package atrace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/mem"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/storeset"
	"mlpsim/internal/vpred"
	"mlpsim/internal/workload"
)

// segSpecFor builds a BuildSpec over the standard test window. acfg must
// be reconstructible per call (workers each get a fresh annotator).
func segSpecFor(w workload.Config, acfg func() annotate.Config, segInsts int64, workers int) BuildSpec {
	return BuildSpec{
		NewAnnotator: func() *annotate.Annotator {
			return annotate.New(workload.MustNew(w), acfg())
		},
		Warmup:       testWarmup,
		Measure:      testMeasure,
		SegmentInsts: segInsts,
		Workers:      workers,
	}
}

// TestSegmentedMatchesMonolithic is the bit-identity check of the
// tentpole: a multi-worker segmented capture must replay the exact
// instruction sequence of one monolithic pass and report identical
// aggregate annotator and prefetcher statistics — including a last
// segment shorter than the nominal size.
func TestSegmentedMatchesMonolithic(t *testing.T) {
	w := workload.Presets(21)[0]
	acfg := func() annotate.Config {
		return annotate.Config{
			IPrefetch: prefetch.NewSequential(4, mem.IFetch),
			DPrefetch: prefetch.NewStride(1024, 4),
			Value:     vpred.NewLastValue(vpred.DefaultEntries),
		}
	}
	mono := captureStream(t, w, acfg())

	// 120000 / 50000 -> segments of 50k, 50k, 20k across 3 workers.
	p := CaptureSegmented(segSpecFor(w, acfg, 50_000, 3))
	ss, err := p.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if ss.Segments() != 3 {
		t.Fatalf("segments %d, want 3", ss.Segments())
	}
	if ss.Len() != mono.Len() || ss.FirstIndex() != mono.FirstIndex() {
		t.Fatalf("geometry (n=%d first=%d), want (n=%d first=%d)",
			ss.Len(), ss.FirstIndex(), mono.Len(), mono.FirstIndex())
	}
	if got, want := ss.Stats(), mono.Stats(); got != want {
		t.Errorf("aggregate stats %+v, want %+v", got, want)
	}
	ipf, ok := ss.IPrefetchStats()
	mipf, _ := mono.IPrefetchStats()
	if !ok || ipf != mipf {
		t.Errorf("iprefetch stats %+v (ok=%v), want %+v", ipf, ok, mipf)
	}
	dpf, ok := ss.DPrefetchStats()
	mdpf, _ := mono.DPrefetchStats()
	if !ok || dpf != mdpf {
		t.Errorf("dprefetch stats %+v (ok=%v), want %+v", dpf, ok, mdpf)
	}
	assertSameReplay(t, mono, ss)
}

// TestSegmentedFileRoundTrip: the spill written by the pipelined writer
// reopens memory-mapped and replays every annotate.Inst field exactly as
// the in-memory single pass captured it, for one segment and for K. The
// StoreHeavy store-set cases pin the dependence outcome (Inst.Dep): it
// must survive the spill.
func TestSegmentedFileRoundTrip(t *testing.T) {
	plain := func() annotate.Config { return annotate.Config{} }
	storeSets := func() annotate.Config {
		return annotate.Config{StoreSets: storeset.New(storeset.DefaultConfig())}
	}
	for _, tc := range []struct {
		name     string
		w        workload.Config
		acfg     func() annotate.Config
		segInsts int64
		workers  int
		wantDep  bool
	}{
		{"default", workload.Presets(22)[1], plain, 40_000, 2, false},
		{"storesets-1seg", workload.StoreHeavy(1), storeSets, 0, 1, true},
		{"storesets-Kseg", workload.StoreHeavy(1), storeSets, 40_000, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mono := captureStream(t, tc.w, tc.acfg())
			base := filepath.Join(t.TempDir(), "trace"+spillExt)
			p := CaptureSegmentedToFile(base, segSpecFor(tc.w, tc.acfg, tc.segInsts, tc.workers))
			built, err := p.Wait()
			if err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if err := p.PublishErr(); err != nil {
				t.Fatalf("PublishErr: %v", err)
			}
			if !built.Mapped() {
				t.Error("builder's own segments not memory-mapped after publication")
			}
			for k := 0; k < built.Segments(); k++ {
				if _, err := os.Stat(segmentPath(base, k)); err != nil {
					t.Fatalf("segment %d missing: %v", k, err)
				}
			}

			ss, err := OpenSpill(base)
			if err != nil {
				t.Fatalf("OpenSpill: %v", err)
			}
			if !ss.Mapped() {
				t.Error("reopened segments not memory-mapped")
			}
			if ss.Segments() != built.Segments() {
				t.Errorf("reopened %d segments, built %d", ss.Segments(), built.Segments())
			}
			if got, want := ss.Stats(), mono.Stats(); got != want {
				t.Errorf("reopened stats %+v, want %+v", got, want)
			}
			assertSameReplay(t, mono, ss)

			if tc.wantDep {
				var deps int
				src := ss.Source()
				var in annotate.Inst
				for src.NextInto(&in) {
					if in.Dep != storeset.DepNone {
						deps++
					}
				}
				if deps == 0 {
					t.Error("no load replayed a dependence outcome; Dep coverage too weak")
				}
			}
		})
	}
}

// TestSegmentStreaming proves the pipeline property: a consumer drains
// segment 0 while the final segment is still unpublished.
func TestSegmentStreaming(t *testing.T) {
	w := workload.Presets(23)[2]
	spec := segSpecFor(w, func() annotate.Config { return annotate.Config{} }, 40_000, 1)
	gate := make(chan struct{})
	segs := int((testMeasure + 40_000 - 1) / 40_000)
	spec.publish = func(k int, s *Stream) (*Stream, error) {
		if k == segs-1 {
			<-gate // hold the last segment back until the consumer is done with segment 0
		}
		return nil, nil
	}

	p := CaptureSegmented(spec)
	src := p.Source()
	var inst annotate.Inst
	for i := int64(0); i < 40_000; i++ {
		if !src.NextInto(&inst) {
			t.Fatalf("stream ended at %d, before segment 0 was drained", i)
		}
	}
	select {
	case <-p.ready[segs-1]:
		t.Fatal("final segment published before the gate opened")
	default:
	}
	close(gate)
	n := int64(40_000)
	for src.NextInto(&inst) {
		n++
	}
	if n != testMeasure {
		t.Fatalf("streamed %d instructions, want %d", n, testMeasure)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestSegmentedDiskCache: a cache configured for several segments spills
// them under one manifest; a second cache loads it from disk (no
// rebuild), memory-mapped and bit-identical; a corrupted segment
// quarantines the whole key and a third cache rebuilds cleanly.
func TestSegmentedDiskCache(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(24)[0]
	key := Key{Workload: w, Annot: "seg", Warmup: testWarmup, Measure: testMeasure}
	mono := captureStream(t, w, annotate.Config{})

	c1 := NewCache()
	c1.SetDir(dir)
	c1.SetSegments(50_000, 2)
	t1 := c1.GetTrace(key, testSpec(w))
	if st := c1.Stats(); st.Builds != 1 {
		t.Fatalf("first cache: %d builds, want 1", st.Builds)
	}
	manifest := filepath.Join(dir, keyHash(key)+spillExt)
	if ss, err := OpenSpill(manifest); err != nil || ss.Segments() != 3 {
		t.Fatalf("spill did not reopen as 3 segments (err %v)", err)
	}
	assertSameReplay(t, mono, t1)

	c2 := NewCache()
	c2.SetDir(dir)
	c2.SetSegments(50_000, 2)
	t2 := c2.GetTrace(key, testSpec(w))
	if st := c2.Stats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Fatalf("second cache stats %+v, want 1 disk hit and 0 builds", st)
	}
	if !t2.Mapped() {
		t.Error("disk-loaded segmented trace not memory-mapped")
	}
	assertSameReplay(t, mono, t2)

	// Flip one byte inside segment 1: the whole key must quarantine
	// (manifest + all segments moved aside) and rebuild.
	seg1 := segmentPath(manifest, 1)
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := NewCache()
	c3.SetDir(dir)
	c3.SetSegments(50_000, 2)
	t3 := c3.GetTrace(key, testSpec(w))
	if st := c3.Stats(); st.Quarantined != 1 || st.Builds != 1 {
		t.Fatalf("third cache stats %+v, want 1 quarantine and 1 rebuild", st)
	}
	assertSameReplay(t, mono, t3)
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*"+corruptMark+"*"))
	if len(quarantined) < 2 {
		t.Errorf("quarantine moved %d files aside, want manifest plus segments (%v)", len(quarantined), quarantined)
	}
	if _, err := OpenSpill(manifest); err != nil {
		t.Errorf("rebuild did not republish the spill: %v", err)
	}
}

// TestSegmentedDiskEviction pins byte-cap eviction's two regimes for
// segmented spills: a margin overage trims only tail segments of the
// LRU victim (leaving a sidecar-named rebuildable hole, segment 0
// live), while a deep overage still removes the whole key — manifest,
// every segment file AND the eviction sidecar.
func TestSegmentedDiskEviction(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(25)[0]
	key1 := Key{Workload: w, Annot: "evict1", Warmup: testWarmup, Measure: testMeasure}
	key2 := Key{Workload: w, Annot: "evict2", Warmup: testWarmup, Measure: testMeasure}
	key3 := Key{Workload: w, Annot: "evict3", Warmup: testWarmup, Measure: testMeasure}

	c := NewCache()
	c.SetDir(dir)
	c.SetSegments(50_000, 2)
	c.GetTrace(key1, testSpec(w))
	size := newDiskCache(dir).spillBytes(keyHash(key1))
	if size <= 0 {
		t.Fatal("first spill reports no bytes")
	}
	// Room for ~1.5 spills: publishing key2 overshoots by ~half a spill,
	// which partial eviction covers by trimming key1's tail.
	c.SetDiskCapBytes(size + size/2)
	c.GetTrace(key2, testSpec(w))
	if st := c.Stats(); st.DiskEvictions != 0 || st.SegEvictions == 0 {
		t.Fatalf("stats %+v, want 0 whole-key evictions and > 0 segment evictions", st)
	}
	h1 := keyHash(key1)
	manifest1 := filepath.Join(dir, h1+spillExt)
	if _, err := os.Stat(manifest1); err != nil {
		t.Errorf("trimmed spill lost its manifest: %v", err)
	}
	if _, err := os.Stat(segmentPath(manifest1, 0)); err != nil {
		t.Errorf("segment 0 must stay live after a partial trim: %v", err)
	}
	if missing, ok := newDiskCache(dir).evictedHole(manifest1); !ok || len(missing) == 0 {
		t.Errorf("trimmed spill's hole (%v, named=%v) not rebuildable", missing, ok)
	}

	// Deep overage: a cap far below the victims' sizes removes whole
	// keys — key1's remains (sidecar included) and then key2.
	c.SetDiskCapBytes(size / 2)
	c.GetTrace(key3, testSpec(w))
	if st := c.Stats(); st.DiskEvictions != 2 {
		t.Fatalf("stats %+v, want 2 whole-key evictions", st)
	}
	for _, h := range []string{h1, keyHash(key2)} {
		if left, _ := filepath.Glob(filepath.Join(dir, h+"*")); len(left) != 0 {
			t.Errorf("evicted spill left %v behind", left)
		}
	}
	if _, err := OpenSpill(filepath.Join(dir, keyHash(key3)+spillExt)); err != nil {
		t.Errorf("surviving spill unreadable: %v", err)
	}
}

// TestTouchNoPhantomEntry: a touch racing a concurrent eviction (spill
// already gone) must not insert a zero-byte index entry.
func TestTouchNoPhantomEntry(t *testing.T) {
	d := newDiskCache(t.TempDir())
	d.touch("deadbeef")
	d.withIndex(func(idx *indexFile) {
		if e, ok := idx.Entries["deadbeef"]; ok {
			t.Errorf("phantom index entry %+v for a spill that does not exist", e)
		}
	})
}

// TestTouchAdoptsUnindexedSpill: the companion positive case — a spill
// that predates the index is adopted with its real byte size.
func TestTouchAdoptsUnindexedSpill(t *testing.T) {
	d := newDiskCache(t.TempDir())
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	if err := os.WriteFile(d.spillPath("cafe"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	d.touch("cafe")
	d.withIndex(func(idx *indexFile) {
		e, ok := idx.Entries["cafe"]
		if !ok || e.Bytes != int64(len(payload)) {
			t.Errorf("adopted entry %+v (ok=%v), want %d bytes", e, ok, len(payload))
		}
	})
}

// TestSweepReclaimsLitter: the publish-time sweep removes aged temp
// files, orphaned segment files, quarantined spills, and expired leases
// — while keeping everything that belongs to a live spill or a live
// lease.
func TestSweepReclaimsLitter(t *testing.T) {
	d := newDiskCache(t.TempDir())
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	mk := func(name string) string {
		p := filepath.Join(d.dir, name)
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	lease := func(name string, expires time.Time) string {
		p := filepath.Join(d.dir, name+leaseExt)
		data, _ := json.Marshal(leaseInfo{Owner: "x", Expires: expires.UnixNano()})
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	tmp := mk(tmpPrefix + "abandoned")
	orphan := mk("dead.acol.seg0000") // no dead.acol manifest
	corrupt := mk("old.acol" + corruptMark + "1.2")
	expired := lease("gone", time.Now().Add(-time.Second))
	live := mk("live.acol")
	liveSeg := mk("live.acol.seg0000")
	liveLease := lease("building", time.Now().Add(time.Hour))

	d.tmpMaxAge = -1 // any age exceeds the bound
	d.corruptMaxAge = -1
	d.withIndex(func(idx *indexFile) {
		fi, err := os.Stat(liveLease)
		if err != nil {
			t.Fatal(err)
		}
		if litter := d.sweepLocked(idx); litter != fi.Size() {
			t.Errorf("aged sweep kept %d litter bytes, want %d (the live lease)", litter, fi.Size())
		}
	})
	for _, p := range []string{tmp, orphan, corrupt, expired} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("sweep left litter %s behind", p)
		}
	}
	for _, p := range []string{live, liveSeg, liveLease} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("sweep removed live file %s: %v", p, err)
		}
	}
	if got := d.swept.Load(); got != 4 {
		t.Errorf("swept counter %d, want 4", got)
	}
}

// TestSweepKeepsYoungLitter: litter younger than the age bounds stays on
// disk and its bytes are charged against the directory capacity.
func TestSweepKeepsYoungLitter(t *testing.T) {
	d := newDiskCache(t.TempDir())
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := []byte("0123456789") // 10 bytes each
	if err := os.WriteFile(filepath.Join(d.dir, tmpPrefix+"young"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.dir, "young.acol"+corruptMark+"9.9"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	d.withIndex(func(idx *indexFile) {
		if litter := d.sweepLocked(idx); litter != 20 {
			t.Errorf("young sweep reported %d litter bytes, want 20", litter)
		}
	})
	if got := d.swept.Load(); got != 0 {
		t.Errorf("swept counter %d, want 0 (nothing aged out)", got)
	}
}

// TestLitterCountsAgainstCap: young quarantined bytes tighten byte-cap
// eviction — the same index fits without litter but evicts with it.
func TestLitterCountsAgainstCap(t *testing.T) {
	d := newDiskCache(t.TempDir())
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 100)
	for _, h := range []string{"aaaa", "bbbb"} {
		if err := os.WriteFile(d.spillPath(h), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seed := func(idx *indexFile) {
		idx.Entries["aaaa"] = indexEntry{Key: "a", Bytes: 100, LastUsed: 1}
		idx.Entries["bbbb"] = indexEntry{Key: "b", Bytes: 100, LastUsed: 2}
	}
	d.capBytes = 250

	d.withIndex(func(idx *indexFile) {
		seed(idx)
		d.evictIndexed(idx, "bbbb", 0) // 200 <= 250: nothing to do
		if len(idx.Entries) != 2 {
			t.Fatalf("evicted without litter pressure: %d entries left", len(idx.Entries))
		}
		d.evictIndexed(idx, "bbbb", 100) // 300 > 250: LRU "aaaa" must go
		if _, ok := idx.Entries["aaaa"]; ok {
			t.Error("litter bytes did not force eviction of the LRU spill")
		}
		if _, ok := idx.Entries["bbbb"]; !ok {
			t.Error("eviction removed the just-published entry")
		}
	})
	if _, err := os.Stat(d.spillPath("aaaa")); !os.IsNotExist(err) {
		t.Error("evicted spill file still on disk")
	}
}
