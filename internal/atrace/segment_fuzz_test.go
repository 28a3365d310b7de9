package atrace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/workload"
)

// buildSegmentedSpill captures a tiny segmented trace (manifest plus
// segment files) at path and returns the manifest bytes and every
// segment file's bytes.
func buildSegmentedSpill(tb testing.TB, path string) (manifest []byte, segs [][]byte) {
	tb.Helper()
	w := workload.Presets(17)[0]
	p := CaptureSegmentedToFile(path, BuildSpec{
		NewAnnotator: func() *annotate.Annotator {
			return annotate.New(workload.MustNew(w), annotate.Config{})
		},
		Warmup:       2_000,
		Measure:      3_000,
		SegmentInsts: 1_000,
		Workers:      2,
	})
	if _, err := p.Wait(); err != nil {
		tb.Fatalf("segmented capture: %v", err)
	}
	if err := p.PublishErr(); err != nil {
		tb.Fatalf("segmented publish: %v", err)
	}
	manifest, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	for _, sp := range segmentFiles(path) {
		data, err := os.ReadFile(sp)
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, data)
	}
	return manifest, segs
}

// FuzzOpenSegmentManifest feeds arbitrary bytes to the MLPCOLS2
// manifest parser through the full disk-cache load path, with real
// segment files sitting beside the manifest. The contract under fuzz:
// never panic; either the spill opens and replays, or the load fails
// with the manifest quarantined (moved aside) so the key rebuilds —
// a corrupt or truncated manifest must never wedge the cache.
func FuzzOpenSegmentManifest(f *testing.F) {
	valid, segData := buildSegmentedSpill(f, filepath.Join(f.TempDir(), "seed"+spillExt))

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(valid[:len(valid)/2])             // truncated mid-manifest
	f.Add(append(bytes.Clone(valid), 0xff)) // trailing garbage breaks the size check
	for _, off := range []int{8, 12, 16, 20, 24, 32, 40, 48, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x5a
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		d := newDiskCache(dir)
		const hash = "00ff00ff"
		path := d.spillPath(hash)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for k, sd := range segData {
			if err := os.WriteFile(segmentPath(path, k), sd, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		tr, err := d.load(hash)
		if err == nil {
			// The bytes parsed as a whole spill (the untouched seed, or a
			// mutation the CRC could not distinguish — vanishingly rare).
			// It must then actually replay.
			src := tr.Source()
			var inst annotate.Inst
			var n int64
			for src.NextInto(&inst) {
				n++
			}
			if n != tr.Len() {
				t.Fatalf("opened spill replays %d instructions, promises %d", n, tr.Len())
			}
			return
		}
		if !errors.Is(err, ErrCorruptSpill) {
			t.Fatalf("load failed with a non-corruption error: %v", err)
		}
		// Corruption must quarantine: the manifest is moved aside so the
		// next Get rebuilds instead of tripping over it forever.
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Fatalf("corrupt manifest still in place after load: %v", serr)
		}
		if d.quarantined.Load() == 0 {
			t.Fatal("quarantine counter not bumped for a corrupt manifest")
		}
	})
}

// TestOpenSegmentManifestSeedCorpus double-checks the two interesting
// seed shapes outside the fuzz engine: the valid manifest opens, and a
// CRC-broken copy of it quarantines.
func TestOpenSegmentManifestSeedCorpus(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "x"+spillExt)
	valid, _ := buildSegmentedSpill(t, base)

	if tr, err := OpenSpill(base); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	} else if tr.Len() != 3_000 {
		t.Fatalf("valid manifest opened with %d insts, want 3000", tr.Len())
	}

	mut := bytes.Clone(valid)
	mut[len(mut)-1] ^= 0x5a // breaks a segment record and the CRC
	if err := os.WriteFile(base, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSpill(base)
	if err == nil || !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("CRC-broken manifest error = %v, want ErrCorruptSpill", err)
	}
}
