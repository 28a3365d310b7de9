package atrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/workload"
)

// buildSpill captures a tiny trace, publishes it under dir and returns
// the spill's bytes. 128 instructions, a 1.5 KB spill, fill every
// section and keep the fuzzer's inputs, and their minimization, small.
// It is the shortest window whose instruction counts take two-byte
// varints in the meta blob, as a full-size spill's do, so the header
// keeps its full-size length (336 bytes) and every seed keeps its index
// and so its name (FuzzOpenSpill/seed#N).
func buildSpill(tb testing.TB, dir string) []byte {
	tb.Helper()
	w := workload.Presets(17)[0]
	path := filepath.Join(dir, "seed"+spillExt)
	if _, err := CaptureToFile(path, BuildSpec{
		NewAnnotator: func() *annotate.Annotator {
			return annotate.New(workload.MustNew(w), annotate.Config{})
		},
		Warmup:  2_000,
		Measure: 128,
	}); err != nil {
		tb.Fatalf("publish: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// withCRC returns a copy of data with its checksum field recomputed, so
// a mutation reaches the structural checks behind the checksum. Inputs
// too short to hold the field come back unchanged.
func withCRC(data []byte) []byte {
	if len(data) < 44 {
		return data
	}
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[40:], crc32.Update(crc32.Checksum(out[:40], crcTable), crcTable, out[44:]))
	return out
}

// spillSeeds derives the seed corpus from a valid spill, which comes
// first; every other seed is corrupt as given. They are: truncations,
// trailing garbage, a flipped byte at every header offset, a flipped
// byte in each non-empty section, and a section length whose sum with
// its offset overflows int64, behind a recomputed checksum.
func spillSeeds(valid []byte) [][]byte {
	flip := func(off int) []byte {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x5a
		return mut
	}
	seeds := [][]byte{valid, {}, []byte(colMagic)}
	headerLen := int(binary.LittleEndian.Uint32(valid[8:]))
	for _, n := range []int{colHeaderMin - 1, colHeaderMin, headerLen, len(valid) / 2, len(valid) - 1} {
		seeds = append(seeds, valid[:n])
	}
	seeds = append(seeds, append(bytes.Clone(valid), 0))
	for off := 0; off < headerLen; off++ {
		seeds = append(seeds, flip(off))
	}
	table := colHeaderMin + int(binary.LittleEndian.Uint32(valid[44:]))
	for i := 0; i < colSectionCnt; i++ {
		off := binary.LittleEndian.Uint64(valid[table+16*i:])
		if length := binary.LittleEndian.Uint64(valid[table+16*i+8:]); length > 0 {
			seeds = append(seeds, flip(int(off+length/2)))
		}
	}
	overflow := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(overflow[table+8:], math.MaxInt64-uint64(headerLen)+1)
	return append(seeds, withCRC(overflow))
}

// overlongVarint returns a copy of valid whose first varint column
// (pc) starts with eleven continuation bytes, behind a recomputed
// checksum: structurally whole, so it opens, and replay must consume
// the overlong varint rather than move its cursor backwards.
func overlongVarint(valid []byte) []byte {
	mut := bytes.Clone(valid)
	table := colHeaderMin + int(binary.LittleEndian.Uint32(mut[44:]))
	pc := binary.LittleEndian.Uint64(mut[table+16*12:])
	for i := uint64(0); i < 11; i++ {
		mut[pc+i] = 0xff
	}
	return withCRC(mut)
}

// loadSpillBytes publishes data as a key's one spill in the empty
// directory dir and loads it through the disk cache. The contract: never
// panic; either the spill opens and replays every instruction it
// promises, or the load fails with ErrCorruptSpill and the file is
// quarantined (moved aside) so the key rebuilds. It reports whether the
// spill opened, and leaves dir empty again: one directory serves every
// input, which saves the fuzzer a directory per run.
func loadSpillBytes(t *testing.T, dir string, data []byte) bool {
	t.Helper()
	defer func() {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}()
	d := newDiskCache(dir)
	const hash = "00ff00ff"
	path := d.spillPath(hash)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := d.load(hash)
	if err == nil {
		src := tr.Source()
		var inst annotate.Inst
		var n int64
		for src.NextInto(&inst) {
			n++
		}
		if n != tr.Len() {
			t.Fatalf("opened spill replays %d instructions, promises %d", n, tr.Len())
		}
		return true
	}
	if !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("load failed with a non-corruption error: %v", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("corrupt spill still in place after load: %v", serr)
	}
	if d.quarantined.Load() != 1 {
		t.Fatalf("quarantine counter %d after a corrupt load, want 1", d.quarantined.Load())
	}
	return false
}

// FuzzOpenSpill feeds arbitrary bytes, as a key's spill, through the
// full disk-cache load path. Each input runs twice: as given, and with
// its checksum recomputed, so mutations also reach the geometry,
// section-table and column checks behind the checksum.
func FuzzOpenSpill(f *testing.F) {
	valid := buildSpill(f, f.TempDir())
	for _, seed := range spillSeeds(valid) {
		f.Add(seed)
	}
	f.Add(overlongVarint(valid))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		loadSpillBytes(t, dir, data)
		loadSpillBytes(t, dir, withCRC(data))
	})
}

// TestOpenSpillSeedCorpus pins the outcome the fuzz contract leaves
// open for each seed: the valid spill, and one with an overlong varint
// behind a recomputed checksum, open and replay; every other seed —
// truncated, padded, or with any single header byte or one byte of any
// section flipped — is rejected as corrupt and quarantined.
func TestOpenSpillSeedCorpus(t *testing.T) {
	seeds := spillSeeds(buildSpill(t, t.TempDir()))
	dir := t.TempDir()
	if !loadSpillBytes(t, dir, seeds[0]) {
		t.Fatal("valid spill rejected")
	}
	if !loadSpillBytes(t, dir, overlongVarint(seeds[0])) {
		t.Error("spill with an overlong varint rejected")
	}
	for i, seed := range seeds[1:] {
		if loadSpillBytes(t, dir, seed) {
			t.Errorf("seed %d (%d bytes) opened, want ErrCorruptSpill", i+1, len(seed))
		}
	}
}
