package atrace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"unsafe"
)

// Spill format ("MLPCOLS3"): one file per trace, the on-disk twin of
// Stream's struct-of-arrays layout, designed so a reader can memory-map
// the file and use the column sections in place — replay then reads
// pages straight from the OS page cache instead of resident Go heap.
//
// Layout (all integers little-endian):
//
//	0   8  magic "MLPCOLS3"
//	8   4  uint32 header length H (payload start, 8-byte aligned)
//	12  1  lineShift
//	13  3  padding (zero)
//	16  8  int64  firstIndex
//	24  8  int64  n (instruction count)
//	32  8  int64  total file size (truncation check)
//	40  4  uint32 CRC-32C (Castagnoli) of every other byte of the file:
//	       file[:40] then file[44:] (corruption check)
//	44  4  uint32 meta blob length M
//	48  M  meta blob (see meta.go)
//	48+M   16 x (uint64 offset, uint64 length) section table
//	H  ...  sections, each 8-byte aligned, zero padded between
//
// Sections, in order: class, src1, src2, dst, vpo (n bytes each); the
// seven packed event bitsets (ceil(n/64) uint64 words each, stored
// little-endian); pc, ea, tgt, val (varint byte columns).
//
// Older builds wrote "MLPCOLS1" column files, whose checksum covered
// only the sections, under "MLPCOLS2" manifests. Both fail the magic
// check, so the disk cache quarantines them like any corrupt spill and
// rebuilds the key once.
const (
	colMagic      = "MLPCOLS3"
	colHeaderMin  = 48
	colSectionCnt = 16
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptSpill marks a spill file that is structurally invalid,
// truncated, in another format, or fails its checksum. The disk cache
// quarantines such files and rebuilds instead of crashing.
var ErrCorruptSpill = errors.New("atrace: corrupt columnar spill")

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorruptSpill, fmt.Sprintf(format, args...))
}

// mapping owns the backing bytes of a columnar stream: either a read-only
// memory mapping (unmapped when released) or a plain heap buffer on
// platforms without mmap support.
type mapping struct {
	data []byte
	heap bool
}

func (m *mapping) release() {
	if m == nil || m.heap || m.data == nil {
		return
	}
	munmap(m.data)
	m.data = nil
}

// hostLittleEndian gates the zero-copy views between bitset words and
// their bytes: the format stores bitset words little-endian, so
// big-endian hosts convert through heap copies instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func align8(n int64) int64 { return (n + 7) &^ 7 }

// byteCols points at s's byte columns by spill section, nil at the
// bitsets' sections (wordCols).
func (s *Stream) byteCols() [colSectionCnt]*[]byte {
	return [colSectionCnt]*[]byte{
		0: &s.class, 1: &s.src1, 2: &s.src2, 3: &s.dst, 4: &s.vpo,
		12: &s.pc, 13: &s.ea, 14: &s.tgt, 15: &s.val,
	}
}

// wordCols points at s's bitsets, spill sections 5 to 11.
func (s *Stream) wordCols() [7]*[]uint64 {
	return [7]*[]uint64{&s.dmiss, &s.pmiss, &s.imiss, &s.smiss, &s.mispred, &s.taken, &s.hasTgt}
}

// colSections lists the stream's sections in file order, the bitsets as
// their on-disk bytes (see leBytes). The byte columns alias the stream.
func colSections(s *Stream) (secs [colSectionCnt][]byte) {
	for i, col := range s.byteCols() {
		if col != nil {
			secs[i] = *col
		}
	}
	for k, ws := range s.wordCols() {
		secs[5+k] = leBytes(*ws)
	}
	return secs
}

// leBytes returns bitset words in the on-disk little-endian byte order:
// a view of ws on little-endian hosts, a byte-swapped copy otherwise.
func leBytes(ws []uint64) []byte {
	if len(ws) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&ws[0])), 8*len(ws))
	}
	out := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// spillHeader returns the header of the spill that holds s's geometry
// and statistics and sections of the given lengths, laid out in order
// from the header's end, each 8-byte aligned. Its checksum field is
// zero: the checksum covers the sections too, so the writer fills it in
// once they are written.
func spillHeader(s *Stream, lens [colSectionCnt]int64) []byte {
	meta := encodeMeta(s)
	headerLen := align8(colHeaderMin + int64(len(meta)) + colSectionCnt*16)
	hdr := make([]byte, colHeaderMin, headerLen)
	copy(hdr, colMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(headerLen))
	hdr[12] = s.lineShift
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.firstIndex))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(s.n))
	binary.LittleEndian.PutUint32(hdr[44:], uint32(len(meta)))
	hdr = append(hdr, meta...)
	off := headerLen
	for _, n := range lens {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(off))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(n))
		off = align8(off + n)
	}
	binary.LittleEndian.PutUint64(hdr[32:], uint64(off))
	return append(hdr, make([]byte, headerLen-int64(len(hdr)))...)
}

// OpenSpill opens a spilled trace, validating its size, checksum and
// structure. On unix the column sections are views over a read-only
// memory mapping (released by a finalizer when the stream becomes
// unreachable); elsewhere the file is read into the heap. A truncated
// or corrupt file, or one in any other format, returns an error
// wrapping ErrCorruptSpill, so the disk cache quarantines it and
// rebuilds; a missing file returns the plain not-exist error.
func OpenSpill(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < colHeaderMin {
		return nil, corruptf("%s: %d bytes, below minimum header", path, size)
	}

	m, err := mmapFile(f, size)
	if err != nil {
		m, err = readFileMapping(f, size)
		if err != nil {
			return nil, err
		}
	}
	s, err := streamFromColumnar(m.data)
	if err != nil {
		m.release()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.mapped = m
	if !m.heap {
		runtime.SetFinalizer(s, func(s *Stream) { s.mapped.release() })
	}
	return s, nil
}

// readFileMapping is the portable fallback: the whole file read into one
// 8-byte-aligned heap buffer.
func readFileMapping(f *os.File, size int64) (*mapping, error) {
	words := make([]uint64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, corruptf("short read: %v", err)
	}
	return &mapping{data: buf, heap: true}, nil
}

// streamFromColumnar builds a Stream whose columns are views into data.
func streamFromColumnar(data []byte) (*Stream, error) {
	if string(data[:8]) != colMagic {
		return nil, corruptf("bad magic %q", data[:8])
	}
	headerLen := int64(binary.LittleEndian.Uint32(data[8:]))
	lineShift := data[12]
	firstIndex := int64(binary.LittleEndian.Uint64(data[16:]))
	n := int64(binary.LittleEndian.Uint64(data[24:]))
	fileSize := int64(binary.LittleEndian.Uint64(data[32:]))
	wantCRC := binary.LittleEndian.Uint32(data[40:])
	metaLen := int64(binary.LittleEndian.Uint32(data[44:]))

	if fileSize != int64(len(data)) {
		return nil, corruptf("header promises %d bytes, file has %d (truncated?)", fileSize, len(data))
	}
	if got := crc32.Update(crc32.Checksum(data[:40], crcTable), crcTable, data[44:]); got != wantCRC {
		return nil, corruptf("checksum mismatch (want %08x, got %08x)", wantCRC, got)
	}
	if n < 0 || lineShift > 63 {
		return nil, corruptf("invalid geometry n=%d shift=%d", n, lineShift)
	}
	tableOff := colHeaderMin + metaLen
	if metaLen < 0 || metaLen > 1<<20 || align8(tableOff+colSectionCnt*16) != headerLen || headerLen > fileSize {
		return nil, corruptf("invalid header geometry (meta %d bytes, header %d)", metaLen, headerLen)
	}

	meta, err := decodeMeta(data[colHeaderMin:tableOff])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSpill, err)
	}
	if meta.n != n || meta.firstIndex != firstIndex || meta.lineShift != lineShift {
		return nil, corruptf("meta blob disagrees with header geometry")
	}

	var secs [colSectionCnt][]byte
	pos := headerLen
	for i := 0; i < colSectionCnt; i++ {
		off := int64(binary.LittleEndian.Uint64(data[tableOff+int64(i)*16:]))
		length := int64(binary.LittleEndian.Uint64(data[tableOff+int64(i)*16+8:]))
		if off != pos || length < 0 || length > fileSize-off {
			return nil, corruptf("section %d out of bounds (off %d len %d)", i, off, length)
		}
		secs[i] = data[off : off+length : off+length]
		pos = align8(off + length)
	}
	words := bitsetWords(n)
	for i := 0; i < 5; i++ {
		if int64(len(secs[i])) != n {
			return nil, corruptf("fixed column %d has %d bytes, want %d", i, len(secs[i]), n)
		}
	}
	for i := 5; i < 12; i++ {
		if int64(len(secs[i])) != 8*words {
			return nil, corruptf("bitset %d has %d bytes, want %d", i, len(secs[i]), 8*words)
		}
	}

	s := &Stream{n: n, firstIndex: firstIndex, lineShift: lineShift}
	meta.apply(s)
	for i, col := range s.byteCols() {
		if col != nil {
			*col = secs[i]
		}
	}
	for k, ws := range s.wordCols() {
		*ws = bitsetSection(secs[5+k])
	}
	return s, nil
}

// bitsetSection interprets an 8-byte-aligned little-endian section as
// []uint64: zero-copy on little-endian hosts, decoded copy otherwise.
func bitsetSection(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}
