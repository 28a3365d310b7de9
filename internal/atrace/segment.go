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
)

// Spill format ("MLPCOLS2"): a manifest plus one column file. Every
// build captures its window in one pass and publishes it as one segment:
// the column file "<manifest>.seg0000" (a complete, self-validating,
// individually mmap-able MLPCOLS1 file) first, the manifest last — its
// atomic rename is what makes the whole trace visible to other
// processes.
//
// Manifest layout (all integers little-endian):
//
//	0   8  magic "MLPCOLS2"
//	8   4  uint32 manifest file size (truncation check)
//	12  4  uint32 CRC-32C (Castagnoli) of file[16:]
//	16  1  lineShift
//	17  3  padding (zero)
//	20  4  uint32 K (segment count; always 1)
//	24  8  int64  firstIndex
//	32  8  int64  n (total instruction count)
//	40  8  int64  segInsts (instructions per segment; n)
//	48  4  uint32 aggregate meta blob length M
//	52  M  aggregate meta blob (same uvarint encoding as MLPCOLS1)
//	52+M   K x (int64 n_k, int64 bytes_k) segment records
//
// Older builds could split a window into K > 1 segments; such a
// manifest reads as corrupt, so the disk cache quarantines it and
// rebuilds the key once.
const (
	segMagic     = "MLPCOLS2"
	segHeaderMin = 52
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

// writeManifest renders the MLPCOLS2 manifest for s, whose column file
// occupies segBytes bytes.
func writeManifest(w io.Writer, s *Stream, segBytes int64) error {
	meta := encodeMeta(s)
	size := segHeaderMin + len(meta) + 16
	buf := make([]byte, segHeaderMin, size)
	copy(buf, segMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(size))
	buf[16] = s.lineShift
	binary.LittleEndian.PutUint32(buf[20:], 1)
	binary.LittleEndian.PutUint64(buf[24:], uint64(s.firstIndex))
	binary.LittleEndian.PutUint64(buf[32:], uint64(s.n))
	binary.LittleEndian.PutUint64(buf[40:], uint64(s.n))
	binary.LittleEndian.PutUint32(buf[48:], uint32(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(segBytes))
	binary.LittleEndian.PutUint32(buf[12:], crc32.Checksum(buf[16:], crcTable))
	_, err := w.Write(buf)
	return err
}

// parseManifest validates a one-segment manifest and returns its meta
// blob, cross-checked against the header geometry and the segment
// record.
func parseManifest(data []byte) (metaInfo, error) {
	if len(data) < segHeaderMin || string(data[:8]) != segMagic {
		return metaInfo{}, corruptf("not a segmented manifest")
	}
	size := int64(binary.LittleEndian.Uint32(data[8:]))
	if size != int64(len(data)) {
		return metaInfo{}, corruptf("manifest promises %d bytes, file has %d (truncated?)", size, len(data))
	}
	wantCRC := binary.LittleEndian.Uint32(data[12:])
	if got := crc32.Checksum(data[16:], crcTable); got != wantCRC {
		return metaInfo{}, corruptf("manifest checksum mismatch (want %08x, got %08x)", wantCRC, got)
	}
	lineShift := data[16]
	firstIndex := int64(binary.LittleEndian.Uint64(data[24:]))
	n := int64(binary.LittleEndian.Uint64(data[32:]))
	if k := binary.LittleEndian.Uint32(data[20:]); k != 1 {
		return metaInfo{}, corruptf("manifest names %d segments, want 1 (written by an older build)", k)
	}
	if lineShift > 63 || n < 0 {
		return metaInfo{}, corruptf("invalid manifest geometry (n=%d shift=%d)", n, lineShift)
	}
	metaLen := int64(binary.LittleEndian.Uint32(data[48:]))
	if segHeaderMin+metaLen+16 != int64(len(data)) {
		return metaInfo{}, corruptf("manifest geometry disagrees with size (meta %d)", metaLen)
	}
	meta, err := decodeMeta(data[segHeaderMin : segHeaderMin+metaLen])
	if err != nil {
		return metaInfo{}, fmt.Errorf("%w: %v", ErrCorruptSpill, err)
	}
	if meta.n != n || meta.firstIndex != firstIndex || meta.lineShift != lineShift {
		return metaInfo{}, corruptf("manifest meta blob disagrees with header geometry")
	}
	rec := data[segHeaderMin+metaLen:]
	segN, segBytes := int64(binary.LittleEndian.Uint64(rec)), int64(binary.LittleEndian.Uint64(rec[8:]))
	if segN != n || segBytes < 0 {
		return metaInfo{}, corruptf("segment record (n=%d bytes=%d) disagrees with manifest n=%d", segN, segBytes, n)
	}
	return meta, nil
}

// OpenSpill opens a spilled trace: the MLPCOLS2 manifest at path and the
// column file beside it, validating the manifest checksum and the
// segment's own CRC, and cross-checking the segment's geometry and
// statistics against the manifest. The column file is memory-mapped
// where the platform allows. Any structural failure — including a
// missing column file, a manifest naming more than one segment, or a
// file in another format at path — returns an error wrapping
// ErrCorruptSpill so the disk cache quarantines the whole key and
// rebuilds.
func OpenSpill(path string) (*Stream, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	meta, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sp := segmentPath(path, 0)
	s, err := openColumnar(sp)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%s: %w", path, corruptf("segment 0 missing (%s)", sp))
		}
		return nil, err
	}
	if s.n != meta.n || s.firstIndex != meta.firstIndex || s.lineShift != meta.lineShift || s.stats != meta.stats ||
		s.hasIPF != meta.hasIPF || s.ipfStats != meta.ipfStats ||
		s.hasDPF != meta.hasDPF || s.dpfStats != meta.dpfStats {
		return nil, fmt.Errorf("%s: %w", path, corruptf("segment disagrees with manifest meta"))
	}
	return s, nil
}
