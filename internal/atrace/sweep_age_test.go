package atrace

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mlpsim/internal/workload"
)

// litterFile drops one file with an exact modification time into dir.
func litterFile(t *testing.T, dir, name string, size int, mtime time.Time) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	return path
}

// sweepAt runs one directory sweep with the cache clock pinned to now,
// returning the kept-litter byte total.
func sweepAt(d *diskCache, now time.Time) (litterBytes int64) {
	d.now = func() time.Time { return now }
	litterBytes, _ = d.sweep()
	return litterBytes
}

// TestSweepAgeBoundaryExact pins the reclamation rule at the exact
// young/aged threshold: litter whose age equals the bound is still
// young (kept, its bytes charged against the capacity); one nanosecond
// older and it is reclaimed. Covered for each litter class — temp
// files and older builds' leftovers (tmpMaxAge), and quarantined
// spills (corruptMaxAge).
func TestSweepAgeBoundaryExact(t *testing.T) {
	base := time.Now().Truncate(time.Second) // whole seconds survive every filesystem's mtime granularity
	cases := []struct {
		name string
		file string
		age  func(d *diskCache) time.Duration
	}{
		{"temp file", tmpPrefix + "boundary", func(d *diskCache) time.Duration { return d.tmpMaxAge }},
		{"orphan segment", "feedbeef" + spillExt + ".seg0000", func(d *diskCache) time.Duration { return d.tmpMaxAge }},
		{"eviction index", "index.json", func(d *diskCache) time.Duration { return d.tmpMaxAge }},
		{"quarantined spill", "deadbeef" + spillExt + corruptMark + "1.2", func(d *diskCache) time.Duration { return d.corruptMaxAge }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := newDiskCache(dir)
			const size = 1024
			path := litterFile(t, dir, tc.file, size, base)
			maxAge := tc.age(d)

			// Age == bound exactly: young. Kept, and its bytes count.
			if got := sweepAt(d, base.Add(maxAge)); got != size {
				t.Errorf("litter aged exactly maxAge: charged %d bytes, want %d (kept)", got, size)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("litter aged exactly maxAge was reclaimed: %v", err)
			}
			if n := d.swept.Load(); n != 0 {
				t.Errorf("swept counter %d after a keep-everything sweep, want 0", n)
			}

			// One nanosecond past the bound: aged. Reclaimed, zero charge.
			if got := sweepAt(d, base.Add(maxAge+time.Nanosecond)); got != 0 {
				t.Errorf("aged litter still charged %d bytes after reclamation", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("litter aged past maxAge survived the sweep: %v", err)
			}
			if n := d.swept.Load(); n != 1 {
				t.Errorf("swept counter %d, want 1", n)
			}
		})
	}
}

// TestRepeatedQuarantineChargesBytesOnce: the same key going corrupt
// twice (quarantine, rebuild, republish, corrupt again, quarantine)
// must leave exactly one charge per corrupt byte on disk — each
// quarantined generation is litter once, and none of those bytes may
// also be charged as a spill. A quarantine that finds nothing left to
// move (the losing side of a reader race) must not inflate the
// Quarantined counter either.
func TestRepeatedQuarantineChargesBytesOnce(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(8)[2]
	key := Key{Workload: w, Annot: "requarantine", Warmup: testWarmup, Measure: testMeasure}

	for round := 0; round < 2; round++ {
		c := NewCache()
		c.SetDir(dir)
		c.GetTrace(key, testSpec(w))
		corruptOneSpill(t, dir)

		c2 := NewCache()
		c2.SetDir(dir)
		c2.GetTrace(key, testSpec(w))
		if st := c2.Stats(); st.Builds != 1 {
			t.Fatalf("round %d: corrupted spill served instead of rebuilt", round)
		}
		if st := c2.Stats(); st.Quarantined != 1 {
			t.Fatalf("round %d: quarantined %d, want 1", round, st.Quarantined)
		}
	}

	// Two generations of the same key's spill moved aside, under
	// distinct names.
	moved, err := filepath.Glob(filepath.Join(dir, "*"+corruptMark+"*"))
	if err != nil || len(moved) != 2 {
		t.Fatalf("quarantine files %v (err %v), want two generations of the spill", moved, err)
	}
	var wantLitter int64
	for _, p := range moved {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		wantLitter += fi.Size()
	}

	// The sweep charges each quarantined byte exactly once, and charges
	// as spills only the live republished one, sized to it: quarantined
	// bytes charged twice would shrink the effective capacity on every
	// corruption.
	d := newDiskCache(dir)
	litter, spills := d.sweep()
	if litter != wantLitter {
		t.Errorf("young quarantine litter charged %d bytes, want %d (each corrupt byte once)", litter, wantLitter)
	}
	live := filepath.Join(dir, keyHash(key)+spillExt)
	if len(spills) != 1 || spills[0].bytes != fileBytes(t, live) {
		t.Fatalf("spills charged %+v, want the live spill of %d bytes only", spills, fileBytes(t, live))
	}

	// A quarantine with nothing left to move (reader-race loser) is not
	// counted again.
	before := d.quarantined.Load()
	d.quarantine(d.spillPath("0000000000000000000000000000dead"))
	if got := d.quarantined.Load(); got != before {
		t.Errorf("empty quarantine bumped the counter %d -> %d", before, got)
	}

	// Aged past the post-mortem window both generations are reclaimed,
	// the charge drops to zero, and the live spill survives.
	if got := sweepAt(d, time.Now().Add(d.corruptMaxAge+time.Hour)); got != 0 {
		t.Errorf("aged quarantine litter still charged %d bytes", got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*"+corruptMark+"*")); len(left) != 0 {
		t.Errorf("aged quarantine files survived the sweep: %v", left)
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("live spill reclaimed by the quarantine sweep: %v", err)
	}
}
