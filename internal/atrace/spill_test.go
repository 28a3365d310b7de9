package atrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/storeset"
	"mlpsim/internal/workload"
)

// The two-file spill layout of older builds, as `tracegen -annotate
// -workload database -seed 1 -warmup 1000 -n 1000` wrote it: an
// MLPCOLS2 manifest, and beside it the MLPCOLS1 column file whose
// checksum covers only its sections.
const (
	olderManifest = "testdata/mlpcols2.acol"
	olderColumns  = "testdata/mlpcols2.acol.seg0000"
)

// copyFile copies the file at src to dst.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSpillRoundTrip: the spill a build publishes is one file that
// reopens memory-mapped and replays every annotate.Inst field exactly as
// an independent in-memory pass captured it. The StoreHeavy store-set
// case pins the dependence outcome (Inst.Dep): it must survive the
// spill.
func TestSpillRoundTrip(t *testing.T) {
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
		{"storesets", workload.StoreHeavy(1), storeSets, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mono := captureStream(t, tc.w, tc.acfg())
			dir := t.TempDir()
			path := filepath.Join(dir, "trace"+spillExt)
			built, err := CaptureToFile(path, BuildSpec{
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
			if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
				t.Fatalf("publication left files %v, want exactly the spill", files)
			}

			ss, err := OpenSpill(path)
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

// TestSpillBytesMatchOlderColumnFile: the spill of a window is the
// column file older builds wrote for it, byte for byte, except the
// magic's version digit and the checksum, which now covers the header
// too. A change that moves the annotation of this window makes the
// fixture stale for this test only; the quarantine tests need nothing
// from it but its layout.
func TestSpillBytesMatchOlderColumnFile(t *testing.T) {
	w, err := workload.ByName("database", 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db"+spillExt)
	if _, err := CaptureToFile(path, BuildSpec{
		NewAnnotator: func() *annotate.Annotator {
			return annotate.New(workload.MustNew(w), annotate.Config{})
		},
		Warmup:  1000,
		Measure: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(olderColumns)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("spill has %d bytes, the older column file %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] && i != 7 && (i < 40 || i >= 44) {
			t.Fatalf("byte %d is %#02x, the older column file has %#02x", i, got[i], want[i])
		}
	}
	if string(got[:8]) != colMagic || string(want[:8]) != "MLPCOLS1" {
		t.Errorf("magics %q and %q, want %q and MLPCOLS1", got[:8], want[:8], colMagic)
	}
	if bytes.Equal(got[40:44], want[40:44]) {
		t.Error("checksum field unchanged; it must now cover the header")
	}
}

// writeOlderSpill writes the two-file layout older builds used at a
// key's path: the MLPCOLS2 manifest there, and its column file beside it
// as the path's .seg0000.
func writeOlderSpill(t *testing.T, path string) {
	t.Helper()
	copyFile(t, olderManifest, path)
	copyFile(t, olderColumns, path+".seg0000")
}

// TestSegmentedDiskCache: a key whose spill an older build wrote as a
// manifest and a segment file opens as corrupt, since the manifest at the
// key's path is foreign. The first cache quarantines the manifest alone
// and builds once; a second cache then gets a plain disk hit on the
// republished one-file spill, memory-mapped and bit-identical.
func TestSegmentedDiskCache(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(24)[0]
	key := Key{Workload: w, Annot: "seg", Warmup: testWarmup, Measure: testMeasure}
	path := filepath.Join(dir, keyHash(key)+spillExt)
	writeOlderSpill(t, path)
	if _, err := OpenSpill(path); !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("open of an older manifest: err %v, want ErrCorruptSpill", err)
	}

	c1 := NewCache()
	c1.SetDir(dir)
	mono := captureStream(t, w, annotate.Config{})
	assertSameReplay(t, mono, c1.GetTrace(key, testSpec(w)))
	if st := c1.Stats(); st.Quarantined != 1 || st.Builds != 1 || st.DiskHits != 0 || st.Swept != 0 {
		t.Fatalf("first cache stats %+v, want 1 quarantine, 1 build and nothing swept", st)
	}
	if moved, _ := filepath.Glob(filepath.Join(dir, "*"+corruptMark+"*")); len(moved) != 1 {
		t.Errorf("quarantined files %v, want the manifest", moved)
	}
	if _, err := os.Stat(path + ".seg0000"); err != nil {
		t.Errorf("young segment file gone before the temp age: %v", err)
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
// evicted under the byte cap, with a "<hash>.acol.evict" sidecar beside
// it and the eviction index with its lock and a temp file in the
// directory, opens as corrupt like any older manifest. The first cache
// quarantines it and builds once, and a second cache hits the
// republished spill. The leftovers are young litter, charged against the
// cap, until one sweep past tmpMaxAge reaps them all and leaves the
// spill.
func TestSegmentedDiskEviction(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(25)[0]
	key := Key{Workload: w, Annot: "evicted-hole", Warmup: testWarmup, Measure: testMeasure}
	path := filepath.Join(dir, keyHash(key)+spillExt)
	writeOlderSpill(t, path)
	leftovers := []string{path + ".seg0000", path + ".evict", filepath.Join(dir, "index.json"),
		filepath.Join(dir, "index.lock"), filepath.Join(dir, ".index-tmp-123")}
	if err := os.WriteFile(leftovers[1], []byte(`{"evicted":[1]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range leftovers[2:] {
		if err := os.WriteFile(p, []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c1 := NewCache()
	c1.SetDir(dir)
	mono := captureStream(t, w, annotate.Config{})
	assertSameReplay(t, mono, c1.GetTrace(key, testSpec(w)))
	if st := c1.Stats(); st.Quarantined != 1 || st.Builds != 1 || st.DiskHits != 0 || st.Swept != 0 {
		t.Fatalf("first cache stats %+v, want 1 quarantine, 1 build and nothing swept", st)
	}
	moved, _ := filepath.Glob(filepath.Join(dir, "*"+corruptMark+"*"))
	if len(moved) != 1 {
		t.Fatalf("quarantined files %v, want the manifest", moved)
	}
	c2 := NewCache()
	c2.SetDir(dir)
	assertSameReplay(t, mono, c2.GetTrace(key, testSpec(w)))
	if st := c2.Stats(); st.Quarantined != 0 || st.Builds != 0 || st.DiskHits != 1 {
		t.Fatalf("second cache stats %+v, want a plain disk hit", st)
	}

	d := newDiskCache(dir)
	quarantined := fileBytes(t, moved[0])
	young := quarantined
	for _, p := range leftovers {
		young += fileBytes(t, p)
	}
	if got := sweepAt(d, time.Now()); got != young {
		t.Errorf("young litter charged %d bytes, want %d (leftovers and the quarantined manifest)", got, young)
	}
	if got := sweepAt(d, time.Now().Add(d.tmpMaxAge+time.Minute)); got != quarantined {
		t.Errorf("aged sweep charged %d bytes, want %d (the quarantined manifest alone)", got, quarantined)
	}
	for _, p := range leftovers {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("aged sweep left %s behind", filepath.Base(p))
		}
	}
	if got := d.swept.Load(); got != uint64(len(leftovers)) {
		t.Errorf("swept %d files, want %d", got, len(leftovers))
	}
	if _, err := OpenSpill(path); err != nil {
		t.Errorf("aged sweep damaged the republished spill: %v", err)
	}
}

// TestSweepReclaimsLitter: the publish-time sweep removes aged temp
// files, older builds' leftovers, quarantined spills and expired leases
// — while keeping every spill and live lease.
func TestSweepReclaimsLitter(t *testing.T) {
	d := newDiskCache(t.TempDir())
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
	orphan := mk("dead.acol.seg0000")
	index := mk("index.json")
	corrupt := mk("old.acol" + corruptMark + "1.2")
	expired := lease("gone", time.Now().Add(-time.Second))
	live := mk("live.acol")
	foreign := mk("notes.txt")
	liveLease := lease("building", time.Now().Add(time.Hour))

	d.tmpMaxAge = -1 // any age exceeds the bound
	d.corruptMaxAge = -1
	litter, spills := d.sweep()
	if want := fileBytes(t, liveLease); litter != want {
		t.Errorf("aged sweep kept %d litter bytes, want %d (the live lease)", litter, want)
	}
	if len(spills) != 1 || spills[0].name != "live.acol" || spills[0].bytes != 1 {
		t.Errorf("sweep found spills %+v, want live.acol of 1 byte", spills)
	}
	for _, p := range []string{tmp, orphan, index, corrupt, expired} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("sweep left litter %s behind", p)
		}
	}
	for _, p := range []string{live, foreign, liveLease} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("sweep removed %s: %v", p, err)
		}
	}
	if got := d.swept.Load(); got != 5 {
		t.Errorf("swept counter %d, want 5", got)
	}
}

// TestSweepKeepsYoungLitter: litter younger than the age bounds stays on
// disk and its bytes are charged against the directory capacity.
func TestSweepKeepsYoungLitter(t *testing.T) {
	d := newDiskCache(t.TempDir())
	body := []byte("0123456789") // 10 bytes each
	if err := os.WriteFile(filepath.Join(d.dir, tmpPrefix+"young"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.dir, "young.acol"+corruptMark+"9.9"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	if litter, _ := d.sweep(); litter != 20 {
		t.Errorf("young sweep reported %d litter bytes, want 20", litter)
	}
	if got := d.swept.Load(); got != 0 {
		t.Errorf("swept counter %d, want 0 (nothing aged out)", got)
	}
}

// TestLitterCountsAgainstCap: young quarantined bytes tighten byte-cap
// eviction — the same two spills fit without litter but the older one
// is evicted with it.
func TestLitterCountsAgainstCap(t *testing.T) {
	d := newDiskCache(t.TempDir())
	body := make([]byte, 100)
	base := time.Now().Truncate(time.Second)
	for i, h := range []string{"aaaa", "bbbb"} {
		p := d.spillPath(h)
		if err := os.WriteFile(p, body, 0o644); err != nil {
			t.Fatal(err)
		}
		stamp := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(p, stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	d.capBytes = 250

	litter, spills := d.sweep()
	d.evict("bbbb"+spillExt, litter, spills) // 200 <= 250: nothing to do
	if got := d.evictions.Load(); got != 0 {
		t.Fatalf("evicted %d spills without litter pressure", got)
	}
	if err := os.WriteFile(filepath.Join(d.dir, "cccc.acol"+corruptMark+"1.2"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	litter, spills = d.sweep()
	d.evict("bbbb"+spillExt, litter, spills) // 300 > 250: LRU "aaaa" must go
	if _, err := os.Stat(d.spillPath("aaaa")); !os.IsNotExist(err) {
		t.Error("litter bytes did not force eviction of the LRU spill")
	}
	if _, err := os.Stat(d.spillPath("bbbb")); err != nil {
		t.Errorf("eviction removed the just-published spill: %v", err)
	}
	if got := d.evictions.Load(); got != 1 {
		t.Errorf("evictions %d, want 1", got)
	}
}
