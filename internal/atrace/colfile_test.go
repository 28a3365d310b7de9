package atrace

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/mem"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/workload"
)

// openColumnarHeap opens a spill through the portable read-into-heap
// fallback, bypassing mmap, so tests can compare both paths on one host.
func openColumnarHeap(t *testing.T, path string) *Stream {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	m, err := readFileMapping(f, fi.Size())
	if err != nil {
		t.Fatalf("readFileMapping: %v", err)
	}
	s, err := streamFromColumnar(m.data)
	if err != nil {
		t.Fatalf("streamFromColumnar: %v", err)
	}
	s.mapped = m
	return s
}

// writeColumnarFile writes s to path as one columnar segment file.
func writeColumnarFile(t *testing.T, path string, s *Stream) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeColumnar(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertSameReplay drains both streams and fails on the first difference.
func assertSameReplay(t *testing.T, want, got *Stream) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("stream length %d, want %d", got.Len(), want.Len())
	}
	if got.Stats() != want.Stats() {
		t.Errorf("stats %+v, want %+v", got.Stats(), want.Stats())
	}
	rw, rg := want.Source(), got.Source()
	for i := int64(0); ; i++ {
		wi, wok := rw.Next()
		gi, gok := rg.Next()
		if wok != gok {
			t.Fatalf("inst %d: replays end at different points (want ok=%t, got ok=%t)", i, wok, gok)
		}
		if !wok {
			return
		}
		if gi != wi {
			t.Fatalf("inst %d: got %+v, want %+v", i, gi, wi)
		}
	}
}

// TestColumnarRoundTrip: a spill opened from disk — memory-mapped where
// the platform allows, and through the heap fallback — replays
// bit-identically to the in-heap stream that produced it, including the
// prefetcher statistics carried in the metadata.
func TestColumnarRoundTrip(t *testing.T) {
	w := workload.Strided(9)
	acfg := annotate.Config{
		IPrefetch: prefetch.NewSequential(4, mem.IFetch),
		DPrefetch: prefetch.NewStride(1024, 4),
	}
	s := captureStream(t, w, acfg)
	path := filepath.Join(t.TempDir(), "s"+spillExt)
	writeColumnarFile(t, path, s)

	mapped, err := openColumnar(path)
	if err != nil {
		t.Fatalf("openColumnar: %v", err)
	}
	assertSameReplay(t, s, mapped)
	heap := openColumnarHeap(t, path)
	assertSameReplay(t, s, heap)

	for name, got := range map[string]*Stream{"mapped": mapped, "heap": heap} {
		if ist, ok := got.IPrefetchStats(); !ok || ist != mustIPF(t, s) {
			t.Errorf("%s: I-prefetch stats %+v ok=%t, want %+v", name, ist, ok, mustIPF(t, s))
		}
		if dst, ok := got.DPrefetchStats(); !ok || dst != mustDPF(t, s) {
			t.Errorf("%s: D-prefetch stats %+v ok=%t, want %+v", name, dst, ok, mustDPF(t, s))
		}
	}
	if mapped.Mapped() && mapped.MemBytes() >= s.MemBytes() {
		t.Errorf("mapped stream reports %d heap bytes, want far below the in-heap %d", mapped.MemBytes(), s.MemBytes())
	}
}

func mustIPF(t *testing.T, s *Stream) prefetch.Stats {
	t.Helper()
	st, ok := s.IPrefetchStats()
	if !ok {
		t.Fatal("source stream carries no I-prefetch stats")
	}
	return st
}

func mustDPF(t *testing.T, s *Stream) prefetch.Stats {
	t.Helper()
	st, ok := s.DPrefetchStats()
	if !ok {
		t.Fatal("source stream carries no D-prefetch stats")
	}
	return st
}

// TestColumnarEngineGolden: for every workload preset, both engines
// produce bit-identical results whether they replay the in-heap stream,
// the memory-mapped spill, or the heap-fallback load of the same spill.
func TestColumnarEngineGolden(t *testing.T) {
	for _, w := range workload.Presets(13) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s := captureStream(t, w, annotate.Config{})
			path := filepath.Join(t.TempDir(), "s"+spillExt)
			writeColumnarFile(t, path, s)
			mapped, err := openColumnar(path)
			if err != nil {
				t.Fatal(err)
			}
			heap := openColumnarHeap(t, path)

			cfg := core.Default().WithIssue(core.ConfigD).WithRunahead()
			want := core.NewEngine(s.Replay(), cfg).Run()
			ccfg := cyclesim.Default(400)
			cwant := cyclesim.New(s.Replay(), ccfg).Run()
			for name, st := range map[string]*Stream{"mapped": mapped, "heap": heap} {
				if got := core.NewEngine(st.Replay(), cfg).Run(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s replay core result differs\ngot:  %+v\nwant: %+v", name, got, want)
				}
				if got := cyclesim.New(st.Replay(), ccfg).Run(); !reflect.DeepEqual(got, cwant) {
					t.Errorf("%s replay cyclesim result differs\ngot:  %+v\nwant: %+v", name, got, cwant)
				}
			}
		})
	}
}

// onlySpill returns the manifest path of the directory's single spill.
func onlySpill(t *testing.T, dir string) string {
	t.Helper()
	spills, err := filepath.Glob(filepath.Join(dir, "*"+spillExt))
	if err != nil || len(spills) != 1 {
		t.Fatalf("want exactly one spill, got %v (err %v)", spills, err)
	}
	return spills[0]
}

// corruptOneSpill flips a byte in the column data (segment 0) of the
// directory's single spill and returns the manifest path.
func corruptOneSpill(t *testing.T, dir string) string {
	t.Helper()
	manifest := onlySpill(t, dir)
	seg := segmentPath(manifest, 0)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return manifest
}

// TestCorruptSpillQuarantined: a spill with a flipped byte fails its
// checksum on open, is moved aside rather than deleted, and the key is
// rebuilt and republished.
func TestCorruptSpillQuarantined(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(8)[0]
	key := Key{Workload: w, Annot: "corrupt", Warmup: testWarmup, Measure: testMeasure}
	// Heap-resident reference: the cached copies are memory-mapped over the
	// spill this test is about to damage, so they cannot serve as oracle.
	ref := captureStream(t, w, annotate.Config{})

	c1 := NewCache()
	c1.SetDir(dir)
	c1.GetTrace(key, testSpec(w))
	path := corruptOneSpill(t, dir)

	if _, err := OpenSpill(path); !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("open of corrupted spill: err %v, want ErrCorruptSpill", err)
	}

	c2 := NewCache()
	c2.SetDir(dir)
	s2 := c2.GetTrace(key, testSpec(w))
	assertSameReplay(t, ref, s2)
	if st := c2.Stats(); st.Quarantined != 1 || st.Builds != 1 {
		t.Errorf("stats %+v, want 1 quarantine and 1 rebuild", st)
	}
	moved, _ := filepath.Glob(filepath.Join(dir, "*.corrupt.*"))
	if len(moved) != 2 {
		t.Errorf("quarantine files %v, want the manifest and its one segment", moved)
	}
	// The rebuild must have republished a valid spill.
	c3 := NewCache()
	c3.SetDir(dir)
	c3.GetTrace(key, testSpec(w))
	if st := c3.Stats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Errorf("post-quarantine stats %+v, want 1 disk hit and no rebuild", st)
	}
}

// TestTruncatedSpillQuarantined: a segment cut short (e.g. by a full disk
// or a killed writer that bypassed the atomic rename) is detected by the
// recorded file size and quarantined.
func TestTruncatedSpillQuarantined(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(8)[1]
	key := Key{Workload: w, Annot: "trunc", Warmup: testWarmup, Measure: testMeasure}

	c1 := NewCache()
	c1.SetDir(dir)
	c1.GetTrace(key, testSpec(w))
	manifest := onlySpill(t, dir)
	seg := segmentPath(manifest, 0)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSpill(manifest); !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("open of truncated spill: err %v, want ErrCorruptSpill", err)
	}
	c2 := NewCache()
	c2.SetDir(dir)
	c2.GetTrace(key, testSpec(w))
	if st := c2.Stats(); st.Quarantined != 1 || st.Builds != 1 {
		t.Errorf("stats %+v, want 1 quarantine and 1 rebuild", st)
	}
}

// TestDiskEviction: the spill directory respects its byte cap, evicting
// least-recently-used spills but never the one just published.
func TestDiskEviction(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(4)[0]
	mk := func(i int) (Key, BuildSpec) {
		cfg := w
		cfg.Seed = int64(i + 200)
		return Key{Workload: cfg, Annot: "evict", Warmup: 1000, Measure: 20_000}, BuildSpec{
			NewAnnotator: func() *annotate.Annotator {
				return annotate.New(workload.MustNew(cfg), annotate.Config{})
			},
			Warmup:  1000,
			Measure: 20_000,
		}
	}

	c := NewCache()
	c.SetDir(dir)
	k0, spec0 := mk(0)
	c.GetTrace(k0, spec0)
	size := newDiskCache(dir).spillBytes(keyHash(k0))
	if size <= 0 {
		t.Fatal("first spill not published")
	}
	// Cap fits ~1.5 spills: publishing the second must evict the first.
	c.SetDiskCapBytes(size + size/2)
	k1, spec1 := mk(1)
	c.GetTrace(k1, spec1)

	if _, err := os.Stat(filepath.Join(dir, keyHash(k1)+spillExt)); err != nil {
		t.Errorf("just-published spill evicted: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, keyHash(k0)+"*")); len(left) != 0 {
		t.Errorf("LRU spill still present (%v), want evicted", left)
	}
	if st := c.Stats(); st.DiskEvictions != 1 {
		t.Errorf("disk evictions %d, want 1", st.DiskEvictions)
	}
}

// TestOpenColumnarRejectsGarbage covers the structural validations that
// run before the checksum: bad magic and impossible header fields.
func TestOpenColumnarRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, blob := range map[string][]byte{
		"empty":     {},
		"short":     []byte("MLPCOLS1"),
		"bad-magic": append([]byte("NOTMYFMT"), make([]byte, 256)...),
		"zeros":     make([]byte, 512),
	} {
		path := filepath.Join(dir, name+spillExt)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openColumnar(path); !errors.Is(err, ErrCorruptSpill) {
			t.Errorf("%s: err %v, want ErrCorruptSpill", name, err)
		}
	}
}
