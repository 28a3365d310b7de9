package atrace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"mlpsim/internal/annotate"
	"mlpsim/internal/prefetch"
)

// Spill format ("MLPCOLS2"): a manifest plus K >= 1 per-segment column
// files, sharding one annotated window into fixed-size segments (a
// window captured in one pass is one segment). Each segment is a complete, self-validating MLPCOLS1 file (CRC'd and
// individually mmap-able), so segments can be published as capture
// finishes them and replay can start streaming segment 0 while later
// segments are still being built. The manifest is written last — its
// atomic rename is what makes the whole trace visible to other processes.
//
// Manifest layout (all integers little-endian):
//
//	0   8  magic "MLPCOLS2"
//	8   4  uint32 manifest file size (truncation check)
//	12  4  uint32 CRC-32C (Castagnoli) of file[16:]
//	16  1  lineShift
//	17  3  padding (zero)
//	20  4  uint32 K (segment count, >= 1)
//	24  8  int64  firstIndex
//	32  8  int64  n (total instruction count)
//	40  8  int64  segInsts (nominal instructions per segment)
//	48  4  uint32 aggregate meta blob length M
//	52  M  aggregate meta blob (same uvarint encoding as MLPCOLS1)
//	52+M   K x (int64 n_k, int64 bytes_k) segment records
//
// Segment k lives beside the manifest as "<manifest>.seg%04d". Segment
// boundary rule: segment k's stream starts at dynamic index
// firstIndex + k*segInsts, carries exactly the annotator-statistics
// *delta* over its own window, and the prefetcher statistics cumulative
// through its end — so the aggregate stats are the sum of segment deltas
// and the last segment's prefetcher counters, bit-identical to one
// single pass.
const (
	segMagic     = "MLPCOLS2"
	segHeaderMin = 52
	segMaxCount  = 1 << 20
)

var segSuffixRe = regexp.MustCompile(`\.seg\d{4}$`)

// segmentPath names segment k of the manifest at base.
func segmentPath(base string, k int) string { return fmt.Sprintf("%s.seg%04d", base, k) }

// segmentFiles lists the existing segment files beside the manifest at
// base, in unspecified order.
func segmentFiles(base string) []string {
	matches, err := filepath.Glob(base + ".seg*")
	if err != nil {
		return nil
	}
	var out []string
	for _, m := range matches {
		if segSuffixRe.MatchString(m) {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// addStats accumulates one segment's annotator-statistics delta.
func addStats(a, b annotate.Stats) annotate.Stats {
	a.Instructions += b.Instructions
	a.DMisses += b.DMisses
	a.PMisses += b.PMisses
	a.IMisses += b.IMisses
	a.OffChip += b.OffChip
	a.SMisses += b.SMisses
	a.Branches += b.Branches
	a.Mispredicts += b.Mispredicts
	a.Prefetches += b.Prefetches
	a.PrefetchUsed += b.PrefetchUsed
	a.VP.Correct += b.VP.Correct
	a.VP.Wrong += b.VP.Wrong
	a.VP.NoPredict += b.VP.NoPredict
	return a
}

// SegStream is a Trace chaining contiguous segment Streams. It reports
// aggregate statistics (sum of per-segment deltas; prefetcher counters
// from the final segment) and replays the segments back to back,
// bit-identical to a single-pass Stream over the same window.
type SegStream struct {
	segs       []*Stream
	n          int64
	firstIndex int64
	lineShift  uint8
	segInsts   int64

	stats              annotate.Stats
	ipfStats, dpfStats prefetch.Stats
	hasIPF, hasDPF     bool
}

// NewSegStream assembles contiguous segments into one trace. segInsts is
// the nominal per-segment instruction count (only the last segment may be
// shorter). It validates contiguity: segment k must start exactly where
// segment k-1 ended.
func NewSegStream(segs []*Stream, segInsts int64) (*SegStream, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("atrace: segmented stream needs at least one segment")
	}
	ss := &SegStream{
		segs:       segs,
		firstIndex: segs[0].FirstIndex(),
		lineShift:  segs[0].LineShift(),
		segInsts:   segInsts,
	}
	next := ss.firstIndex
	for k, s := range segs {
		if s.LineShift() != ss.lineShift {
			return nil, fmt.Errorf("atrace: segment %d line shift %d != %d", k, s.LineShift(), ss.lineShift)
		}
		if s.Len() > 0 && s.FirstIndex() != next {
			return nil, fmt.Errorf("atrace: segment %d starts at %d, want %d (gap or overlap)", k, s.FirstIndex(), next)
		}
		next = s.FirstIndex() + s.Len()
		ss.n += s.Len()
		ss.stats = addStats(ss.stats, s.Stats())
	}
	last := segs[len(segs)-1]
	ss.ipfStats, ss.hasIPF = last.IPrefetchStats()
	ss.dpfStats, ss.hasDPF = last.DPrefetchStats()
	return ss, nil
}

// Len returns the total instruction count across all segments.
func (ss *SegStream) Len() int64 { return ss.n }

// FirstIndex returns the dynamic index of the first instruction.
func (ss *SegStream) FirstIndex() int64 { return ss.firstIndex }

// LineShift returns log2 of the L2 line size used to derive Line/ILine.
func (ss *SegStream) LineShift() uint8 { return ss.lineShift }

// Stats returns the aggregate annotator statistics over the whole window
// (the sum of the per-segment deltas).
func (ss *SegStream) Stats() annotate.Stats { return ss.stats }

// IPrefetchStats returns the instruction-prefetcher statistics through
// the end of the window (the final segment's cumulative counters).
func (ss *SegStream) IPrefetchStats() (prefetch.Stats, bool) { return ss.ipfStats, ss.hasIPF }

// DPrefetchStats returns the data-prefetcher statistics through the end
// of the window.
func (ss *SegStream) DPrefetchStats() (prefetch.Stats, bool) { return ss.dpfStats, ss.hasDPF }

// MemBytes sums the segments' footprints for cache accounting.
func (ss *SegStream) MemBytes() int64 {
	var b int64
	for _, s := range ss.segs {
		b += s.MemBytes()
	}
	return b + 256
}

// Mapped reports whether every segment is a view over a memory-mapped
// spill file.
func (ss *SegStream) Mapped() bool {
	for _, s := range ss.segs {
		if !s.Mapped() {
			return false
		}
	}
	return true
}

// Segments returns the number of segments.
func (ss *SegStream) Segments() int { return len(ss.segs) }

// Segment returns segment k.
func (ss *SegStream) Segment(k int) *Stream { return ss.segs[k] }

// SegmentInsts returns the nominal per-segment instruction count.
func (ss *SegStream) SegmentInsts() int64 { return ss.segInsts }

// Source returns a fresh cursor chaining the segments in order; a
// single segment replays through its own cursor, skipping the chain.
func (ss *SegStream) Source() Source {
	if len(ss.segs) == 1 {
		return ss.segs[0].Replay()
	}
	return &SegReplay{segs: ss.segs}
}

func (ss *SegStream) metaInfo() metaInfo {
	return metaInfo{
		lineShift: ss.lineShift, firstIndex: ss.firstIndex, n: ss.n, stats: ss.stats,
		ipfStats: ss.ipfStats, dpfStats: ss.dpfStats, hasIPF: ss.hasIPF, hasDPF: ss.hasDPF,
	}
}

// SegReplay is a zero-allocation cursor chaining segment replays; it
// yields exactly the instruction sequence a single-pass Replay would.
type SegReplay struct {
	segs []*Stream
	k    int
	cur  *Replay
}

// Next returns the next annotated instruction.
func (r *SegReplay) Next() (annotate.Inst, bool) {
	var out annotate.Inst
	ok := r.NextInto(&out)
	return out, ok
}

// NextInto decodes the next instruction into *dst, advancing across
// segment boundaries transparently.
func (r *SegReplay) NextInto(dst *annotate.Inst) bool {
	for {
		if r.cur != nil && r.cur.NextInto(dst) {
			return true
		}
		if r.k >= len(r.segs) {
			return false
		}
		r.cur = r.segs[r.k].Replay()
		r.k++
	}
}

// writeManifest renders the MLPCOLS2 manifest for ss, whose segment files
// occupy segBytes[k] bytes each.
func writeManifest(w io.Writer, ss *SegStream, segBytes []int64) error {
	if len(segBytes) != len(ss.segs) {
		return fmt.Errorf("atrace: %d segment sizes for %d segments", len(segBytes), len(ss.segs))
	}
	meta := encodeMetaInfo(ss.metaInfo())
	size := segHeaderMin + len(meta) + 16*len(ss.segs)
	buf := make([]byte, segHeaderMin, size)
	copy(buf, segMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(size))
	buf[16] = ss.lineShift
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(ss.segs)))
	binary.LittleEndian.PutUint64(buf[24:], uint64(ss.firstIndex))
	binary.LittleEndian.PutUint64(buf[32:], uint64(ss.n))
	binary.LittleEndian.PutUint64(buf[40:], uint64(ss.segInsts))
	binary.LittleEndian.PutUint32(buf[48:], uint32(len(meta)))
	buf = append(buf, meta...)
	for k, s := range ss.segs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Len()))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(segBytes[k]))
	}
	binary.LittleEndian.PutUint32(buf[12:], crc32.Checksum(buf[16:], crcTable))
	_, err := w.Write(buf)
	return err
}

// segManifest is the decoded manifest of a segmented spill.
type segManifest struct {
	lineShift  uint8
	firstIndex int64
	n          int64
	segInsts   int64
	meta       metaInfo
	segN       []int64
	segBytes   []int64
}

func parseManifest(data []byte) (*segManifest, error) {
	if len(data) < segHeaderMin || string(data[:8]) != segMagic {
		return nil, corruptf("not a segmented manifest")
	}
	size := int64(binary.LittleEndian.Uint32(data[8:]))
	if size != int64(len(data)) {
		return nil, corruptf("manifest promises %d bytes, file has %d (truncated?)", size, len(data))
	}
	wantCRC := binary.LittleEndian.Uint32(data[12:])
	if got := crc32.Checksum(data[16:], crcTable); got != wantCRC {
		return nil, corruptf("manifest checksum mismatch (want %08x, got %08x)", wantCRC, got)
	}
	m := &segManifest{
		lineShift:  data[16],
		firstIndex: int64(binary.LittleEndian.Uint64(data[24:])),
		n:          int64(binary.LittleEndian.Uint64(data[32:])),
		segInsts:   int64(binary.LittleEndian.Uint64(data[40:])),
	}
	k := int64(binary.LittleEndian.Uint32(data[20:]))
	metaLen := int64(binary.LittleEndian.Uint32(data[48:]))
	if k < 1 || k > segMaxCount || m.lineShift > 63 || m.n < 0 {
		return nil, corruptf("invalid manifest geometry (K=%d n=%d shift=%d)", k, m.n, m.lineShift)
	}
	if metaLen < 0 || segHeaderMin+metaLen+16*k != int64(len(data)) {
		return nil, corruptf("manifest geometry disagrees with size (meta %d, K %d)", metaLen, k)
	}
	meta, err := decodeMeta(data[segHeaderMin : segHeaderMin+metaLen])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSpill, err)
	}
	if meta.n != m.n || meta.firstIndex != m.firstIndex || meta.lineShift != m.lineShift {
		return nil, corruptf("manifest meta blob disagrees with header geometry")
	}
	m.meta = meta
	recs := data[segHeaderMin+metaLen:]
	var total int64
	for i := int64(0); i < k; i++ {
		n := int64(binary.LittleEndian.Uint64(recs[16*i:]))
		b := int64(binary.LittleEndian.Uint64(recs[16*i+8:]))
		if n < 0 || b < 0 {
			return nil, corruptf("segment %d record invalid (n=%d bytes=%d)", i, n, b)
		}
		total += n
		m.segN = append(m.segN, n)
		m.segBytes = append(m.segBytes, b)
	}
	if total != m.n {
		return nil, corruptf("segment counts sum to %d, manifest promises %d", total, m.n)
	}
	return m, nil
}

// OpenSpill opens a spilled trace: the MLPCOLS2 manifest at path and
// every segment file beside it, validating the manifest checksum, each
// segment's own CRC, and cross-checking the per-segment geometry and the
// aggregate statistics against the manifest. Segments are memory-mapped
// where the platform allows. Any structural failure — including a
// missing segment file, or a file in another format at path — returns
// an error wrapping ErrCorruptSpill so the disk cache quarantines the
// whole key and rebuilds.
func OpenSpill(path string) (*SegStream, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	man, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	segs := make([]*Stream, len(man.segN))
	for k := range segs {
		sp := segmentPath(path, k)
		s, err := openColumnar(sp)
		if err != nil {
			if os.IsNotExist(err) {
				return nil, fmt.Errorf("%s: %w", path, corruptf("segment %d missing (%s)", k, sp))
			}
			return nil, err
		}
		if s.Len() != man.segN[k] {
			return nil, fmt.Errorf("%s: %w", path, corruptf("segment %d holds %d insts, manifest promises %d", k, s.Len(), man.segN[k]))
		}
		segs[k] = s
	}
	ss, err := NewSegStream(segs, man.segInsts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %v", path, ErrCorruptSpill, err)
	}
	if ss.n != man.n || ss.firstIndex != man.firstIndex || ss.stats != man.meta.stats ||
		ss.hasIPF != man.meta.hasIPF || ss.ipfStats != man.meta.ipfStats ||
		ss.hasDPF != man.meta.hasDPF || ss.dpfStats != man.meta.dpfStats {
		return nil, fmt.Errorf("%s: %w", path, corruptf("segment aggregate disagrees with manifest meta"))
	}
	return ss, nil
}
