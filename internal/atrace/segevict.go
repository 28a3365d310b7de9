package atrace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Partial segment eviction.
//
// Whole-key LRU eviction throws away gigabytes to reclaim megabytes
// when the directory is barely over its cap. Segmented spills allow a
// finer move: remove only tail segments of a victim and leave a
// *rebuildable hole* — the manifest stays, a sidecar names the evicted
// segments, and the next reader re-captures just the missing windows
// (deterministic replay from the workload seed) instead of the whole
// key.
//
// Invariant: a segment file may be missing from disk only while the
// sidecar names it. The sidecar is written before the segment file is
// unlinked, so a crash between the two steps leaves a named-but-present
// segment (harmless: present wins); the reverse order could leave an
// anonymous hole, which readers must treat as corruption. A missing
// segment NOT named by the sidecar still quarantines the whole key.
//
// Sidecar layout: "<hash>.acol.evict", JSON {"evicted":[k,...]},
// written atomically and removed when the last hole is rebuilt.

// evictStateSuffix follows the spill extension: "<hash>.acol.evict".
const evictStateSuffix = ".evict"

type evictState struct {
	Evicted []int `json:"evicted"`
}

// readEvicted returns the set of segment indices the sidecar beside the
// manifest at base names as evicted; empty on absence or damage (a
// damaged sidecar just means holes quarantine as plain corruption).
func readEvicted(base string) map[int]bool {
	data, err := os.ReadFile(base + evictStateSuffix)
	if err != nil {
		return nil
	}
	var st evictState
	if json.Unmarshal(data, &st) != nil {
		return nil
	}
	ev := make(map[int]bool, len(st.Evicted))
	for _, k := range st.Evicted {
		ev[k] = true
	}
	return ev
}

// writeEvicted atomically replaces the sidecar beside base with ev; an
// empty set removes it.
func (d *diskCache) writeEvicted(base string, ev map[int]bool) error {
	path := base + evictStateSuffix
	if len(ev) == 0 {
		err := os.Remove(path)
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	st := evictState{Evicted: make([]int, 0, len(ev))}
	for k := range ev {
		st.Evicted = append(st.Evicted, k)
	}
	sort.Ints(st.Evicted)
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	_, err = writeAtomic(d.dir, tmpPrefix+"*", path, func(f *os.File) error {
		_, werr := f.Write(append(data, '\n'))
		return werr
	})
	return err
}

// SegmentsEvictedError reports that a segmented spill is structurally
// sound but has holes: the listed segments were evicted under the byte
// cap and can be rebuilt in place. It deliberately does not wrap
// ErrCorruptSpill — holes are expected state, not damage.
type SegmentsEvictedError struct {
	Missing []int
}

func (e *SegmentsEvictedError) Error() string {
	return fmt.Sprintf("atrace: %d segment(s) evicted %v; rebuild required", len(e.Missing), e.Missing)
}

// missingSegments parses the manifest at path and returns the indices
// of segment files absent from disk.
func missingSegments(path string) ([]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	man, err := parseManifest(data)
	if err != nil {
		return nil, err
	}
	var missing []int
	for k := range man.segN {
		if _, err := os.Stat(segmentPath(path, k)); os.IsNotExist(err) {
			missing = append(missing, k)
		}
	}
	return missing, nil
}

// evictedHole reports whether the spill at path fails to open only
// because of missing segments that are all named by the eviction
// sidecar — a rebuildable hole rather than corruption.
func (d *diskCache) evictedHole(path string) ([]int, bool) {
	ev := readEvicted(path)
	if len(ev) == 0 {
		return nil, false
	}
	missing, err := missingSegments(path)
	if err != nil || len(missing) == 0 {
		return nil, false
	}
	for _, k := range missing {
		if !ev[k] {
			return nil, false
		}
	}
	return missing, true
}

// evictSegments removes tail segments of h's spill until want bytes are
// freed, updating the sidecar before unlinking (see the invariant
// above) and h's index entry after. Segment 0 always stays live so the
// key keeps a replayable head, so single-segment spills free nothing.
// Returns the bytes actually freed.
func (d *diskCache) evictSegments(idx *indexFile, h string, want int64) int64 {
	base := d.spillPath(h)
	data, err := os.ReadFile(base)
	if err != nil {
		return 0
	}
	man, err := parseManifest(data)
	if err != nil {
		return 0
	}
	ev := readEvicted(base)
	if ev == nil {
		ev = make(map[int]bool)
	}
	var plan []int
	var freed int64
	for k := len(man.segN) - 1; k >= 1 && freed < want; k-- {
		if ev[k] {
			continue
		}
		fi, err := os.Stat(segmentPath(base, k))
		if err != nil {
			continue
		}
		plan = append(plan, k)
		freed += fi.Size()
	}
	if len(plan) == 0 {
		return 0
	}
	for _, k := range plan {
		ev[k] = true
	}
	if err := d.writeEvicted(base, ev); err != nil {
		return 0
	}
	for _, k := range plan {
		os.Remove(segmentPath(base, k))
		d.segEvictions.Add(1)
	}
	if e, ok := idx.Entries[h]; ok {
		if e.Bytes -= freed; e.Bytes < 0 {
			e.Bytes = 0
		}
		idx.Entries[h] = e
	}
	return freed
}

// rebuildSegments re-captures exactly the missing segments of hash's
// spill in place, then strictly re-opens and revalidates the whole key.
// The manifest is the authority for geometry (segment sizes may predate
// the current SetSegments configuration), and the rebuilt bytes must
// match its recorded per-segment sizes exactly — determinism is what
// makes holes cheap, and a size mismatch means spec no longer describes
// the spill (caller quarantines and rebuilds fully). Contiguous runs of
// holes share one annotator: warm over the prefix once, then capture
// segment after segment with a stats reset at each boundary, exactly
// like a capture worker — so rebuilt segments are bit-identical to the
// originals.
func (d *diskCache) rebuildSegments(hash string, key Key, spec BuildSpec, missing []int) (Trace, error) {
	base := d.spillPath(hash)
	data, err := os.ReadFile(base)
	if err != nil {
		return nil, err
	}
	man, err := parseManifest(data)
	if err != nil {
		return nil, err
	}
	if man.firstIndex != spec.Warmup || man.n != spec.Measure {
		return nil, fmt.Errorf("atrace: spill window [%d, +%d) does not match spec [%d, +%d)",
			man.firstIndex, man.n, spec.Warmup, spec.Measure)
	}
	for i := 0; i < len(missing); {
		// Contiguous run [missing[i], missing[j-1]].
		j := i + 1
		for j < len(missing) && missing[j] == missing[j-1]+1 {
			j++
		}
		a := spec.NewAnnotator()
		skip := man.firstIndex + int64(missing[i])*man.segInsts
		if a.Warm(skip); a.Position() != skip {
			return nil, fmt.Errorf("atrace: source ended during rebuild warm-up (%d of %d instructions)", a.Position(), skip)
		}
		for _, k := range missing[i:j] {
			if k > missing[i] {
				a.ResetStats()
			}
			s := Capture(a, man.segN[k])
			if s.Len() != man.segN[k] {
				return nil, fmt.Errorf("atrace: rebuilt segment %d captured %d instructions, want %d", k, s.Len(), man.segN[k])
			}
			size, err := writeAtomic(d.dir, tmpPrefix+"*", segmentPath(base, k), func(f *os.File) error {
				return writeColumnar(f, s)
			})
			if err != nil {
				return nil, err
			}
			if size != man.segBytes[k] {
				return nil, fmt.Errorf("atrace: rebuilt segment %d is %d bytes, manifest promises %d (non-deterministic build spec?)", k, size, man.segBytes[k])
			}
			d.segRebuilds.Add(1)
		}
		i = j
	}
	// Strict reopen: CRCs, geometry and aggregate stats all re-checked.
	t, err := OpenSpill(base)
	if err != nil {
		return nil, err
	}
	// Clear the rebuilt holes from the sidecar and re-charge the bytes —
	// entry.Bytes is recomputed from disk, so eviction accounting cannot
	// drift (no double-charge, no under-count).
	d.withIndex(func(idx *indexFile) {
		ev := readEvicted(base)
		for _, k := range missing {
			delete(ev, k)
		}
		d.writeEvicted(base, ev)
		e, ok := idx.Entries[hash]
		if !ok {
			e = indexEntry{Key: key.String()}
		}
		e.Bytes = d.spillBytes(hash)
		e.LastUsed = time.Now().UnixNano()
		idx.Entries[hash] = e
		d.evictIndexed(idx, hash, 0)
	})
	return t, nil
}
