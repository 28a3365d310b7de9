package atrace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/storeset"
	"mlpsim/internal/workload"
)

// writeOldSpill writes w's test window at base in the layout older
// builds used for a k-segment capture: k column files captured by one
// annotator whose statistics restart at every segment boundary, under a
// manifest that carries the whole window's meta blob and k records.
func writeOldSpill(t *testing.T, base string, w workload.Config, k int) {
	t.Helper()
	a := annotate.New(workload.MustNew(w), annotate.Config{})
	a.Warm(testWarmup)
	segInsts := int64(testMeasure / k)
	var recs []byte
	for i := 0; i < k; i++ {
		if i > 0 {
			a.ResetStats()
		}
		s := Capture(a, segInsts)
		writeColumnarFile(t, segmentPath(base, i), s)
		fi, err := os.Stat(segmentPath(base, i))
		if err != nil {
			t.Fatal(err)
		}
		recs = binary.LittleEndian.AppendUint64(recs, uint64(s.Len()))
		recs = binary.LittleEndian.AppendUint64(recs, uint64(fi.Size()))
	}
	var buf bytes.Buffer
	if err := writeManifest(&buf, captureStream(t, w, annotate.Config{}), 0); err != nil {
		t.Fatal(err)
	}
	m := append(buf.Bytes()[:buf.Len()-16], recs...)
	binary.LittleEndian.PutUint32(m[8:], uint32(len(m)))
	binary.LittleEndian.PutUint32(m[20:], uint32(k))
	binary.LittleEndian.PutUint64(m[40:], uint64(segInsts))
	binary.LittleEndian.PutUint32(m[12:], crc32.Checksum(m[16:], crcTable))
	if err := os.WriteFile(base, m, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedFileRoundTrip: the spill a build publishes reopens
// memory-mapped and replays every annotate.Inst field exactly as an
// independent in-memory pass captured it. The StoreHeavy store-set case
// pins the dependence outcome (Inst.Dep): it must survive the spill.
func TestSegmentedFileRoundTrip(t *testing.T) {
	plain := func() annotate.Config { return annotate.Config{} }
	storeSets := func() annotate.Config {
		return annotate.Config{StoreSets: storeset.New(storeset.DefaultConfig())}
	}
	for _, tc := range []struct {
		name    string
		w       workload.Config
		acfg    func() annotate.Config
		wantDep bool
	}{
		{"default", workload.Presets(22)[1], plain, false},
		{"storesets-1seg", workload.StoreHeavy(1), storeSets, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mono := captureStream(t, tc.w, tc.acfg())
			base := filepath.Join(t.TempDir(), "trace"+spillExt)
			built, err := CaptureToFile(base, BuildSpec{
				NewAnnotator: func() *annotate.Annotator {
					return annotate.New(workload.MustNew(tc.w), tc.acfg())
				},
				Warmup:  testWarmup,
				Measure: testMeasure,
			})
			if err != nil {
				t.Fatalf("CaptureToFile: %v", err)
			}
			if !built.Mapped() {
				t.Error("builder's own trace not memory-mapped after publication")
			}
			if segs := segmentFiles(base); len(segs) != 1 {
				t.Fatalf("published segment files %v, want exactly seg0000", segs)
			}

			ss, err := OpenSpill(base)
			if err != nil {
				t.Fatalf("OpenSpill: %v", err)
			}
			if !ss.Mapped() {
				t.Error("reopened trace not memory-mapped")
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

// TestSegmentedDiskCache: a key whose spill an older build split into
// three segments opens as corrupt. The first cache quarantines the
// manifest and all three segment files together and builds once; a
// second cache then gets a plain disk hit on the republished
// one-segment spill, memory-mapped and bit-identical.
func TestSegmentedDiskCache(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(24)[0]
	key := Key{Workload: w, Annot: "seg", Warmup: testWarmup, Measure: testMeasure}
	mono := captureStream(t, w, annotate.Config{})
	manifest := filepath.Join(dir, keyHash(key)+spillExt)
	writeOldSpill(t, manifest, w, 3)
	if _, err := OpenSpill(manifest); !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("open of a 3-segment spill: err %v, want ErrCorruptSpill", err)
	}

	c1 := NewCache()
	c1.SetDir(dir)
	assertSameReplay(t, mono, c1.GetTrace(key, testSpec(w)))
	if st := c1.Stats(); st.Quarantined != 1 || st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("first cache stats %+v, want 1 quarantine and 1 build", st)
	}
	if moved, _ := filepath.Glob(filepath.Join(dir, "*"+corruptMark+"*")); len(moved) != 4 {
		t.Errorf("quarantined files %v, want the manifest and its three segments", moved)
	}
	if segs := segmentFiles(manifest); len(segs) != 1 {
		t.Errorf("republished spill has segment files %v, want exactly seg0000", segs)
	}

	c2 := NewCache()
	c2.SetDir(dir)
	t2 := c2.GetTrace(key, testSpec(w))
	if st := c2.Stats(); st.Quarantined != 0 || st.Builds != 0 || st.DiskHits != 1 {
		t.Fatalf("second cache stats %+v, want a plain disk hit", st)
	}
	if !t2.Mapped() {
		t.Error("disk-loaded trace not memory-mapped")
	}
	assertSameReplay(t, mono, t2)
}

// TestSegmentedDiskEviction: a spill an older build had partially
// evicted under the byte cap (four segments, the last two removed and
// named by a "<hash>.acol.evict" sidecar) opens as corrupt like any
// other multi-segment spill. The first cache quarantines it and builds
// once, a second cache hits the republished spill, and the sweep reaps
// the sidecar once it is older than tmpMaxAge.
func TestSegmentedDiskEviction(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(25)[0]
	key := Key{Workload: w, Annot: "evicted-hole", Warmup: testWarmup, Measure: testMeasure}
	mono := captureStream(t, w, annotate.Config{})
	manifest := filepath.Join(dir, keyHash(key)+spillExt)
	writeOldSpill(t, manifest, w, 4)
	for k := 2; k < 4; k++ {
		if err := os.Remove(segmentPath(manifest, k)); err != nil {
			t.Fatal(err)
		}
	}
	sidecar := manifest + evictSidecarExt
	if err := os.WriteFile(sidecar, []byte(`{"evicted":[2,3]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	c1 := NewCache()
	c1.SetDir(dir)
	assertSameReplay(t, mono, c1.GetTrace(key, testSpec(w)))
	if st := c1.Stats(); st.Quarantined != 1 || st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("first cache stats %+v, want 1 quarantine and 1 build", st)
	}
	if moved, _ := filepath.Glob(filepath.Join(dir, "*"+corruptMark+"*")); len(moved) != 3 {
		t.Errorf("quarantined files %v, want the manifest and its two live segments", moved)
	}
	c2 := NewCache()
	c2.SetDir(dir)
	assertSameReplay(t, mono, c2.GetTrace(key, testSpec(w)))
	if st := c2.Stats(); st.Quarantined != 0 || st.Builds != 0 || st.DiskHits != 1 {
		t.Fatalf("second cache stats %+v, want a plain disk hit", st)
	}

	// The rebuild's own sweep kept the young sidecar; one sweep past
	// tmpMaxAge reaps it and leaves the republished spill alone.
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatalf("young sidecar reaped early: %v", err)
	}
	d := newDiskCache(dir)
	sweepAt(d, time.Now().Add(d.tmpMaxAge+time.Minute))
	if left, _ := filepath.Glob(filepath.Join(dir, "*"+evictSidecarExt)); len(left) != 0 {
		t.Errorf("eviction sidecars left after an aged sweep: %v", left)
	}
	if _, err := OpenSpill(manifest); err != nil {
		t.Errorf("aged sweep damaged the republished spill: %v", err)
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
