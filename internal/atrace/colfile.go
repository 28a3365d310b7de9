package atrace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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

// hostLittleEndian gates the zero-copy []byte -> []uint64 bitset views:
// the format stores bitset words little-endian, so big-endian hosts
// decode them into heap copies instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func align8(n int64) int64 { return (n + 7) &^ 7 }

// colSections lists the stream's sections in file order. The returned
// slices alias the stream.
func colSections(s *Stream) [colSectionCnt][]byte {
	u64 := func(ws []uint64) []byte {
		if len(ws) == 0 {
			return nil
		}
		return unsafe.Slice((*byte)(unsafe.Pointer(&ws[0])), 8*len(ws))
	}
	return [colSectionCnt][]byte{
		s.class, s.src1, s.src2, s.dst, s.vpo,
		u64(s.dmiss), u64(s.pmiss), u64(s.imiss), u64(s.smiss),
		u64(s.mispred), u64(s.taken), u64(s.hasTgt),
		s.pc, s.ea, s.tgt, s.val,
	}
}

// writeColumnar writes the stream to w in the columnar spill format.
// On big-endian hosts the bitset words are byte-swapped to the on-disk
// little-endian order.
func writeColumnar(w io.Writer, s *Stream) error {
	meta := encodeMeta(s)
	secs := colSections(s)
	if !hostLittleEndian {
		for i := 5; i < 12; i++ {
			secs[i] = swapWords(secs[i])
		}
	}

	headerLen := align8(colHeaderMin + int64(len(meta)) + colSectionCnt*16)
	var table [colSectionCnt][2]uint64
	off := headerLen
	for i, sec := range secs {
		table[i][0] = uint64(off)
		table[i][1] = uint64(len(sec))
		off = align8(off + int64(len(sec)))
	}
	fileSize := off

	hdr := make([]byte, colHeaderMin, headerLen)
	copy(hdr, colMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(headerLen))
	hdr[12] = s.lineShift
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.firstIndex))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(s.n))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(fileSize))
	binary.LittleEndian.PutUint32(hdr[44:], uint32(len(meta)))
	hdr = append(hdr, meta...)
	for _, te := range table {
		hdr = binary.LittleEndian.AppendUint64(hdr, te[0])
		hdr = binary.LittleEndian.AppendUint64(hdr, te[1])
	}
	hdr = append(hdr, make([]byte, headerLen-int64(len(hdr)))...)

	var pad [8]byte
	crc := crc32.Update(crc32.Checksum(hdr[:40], crcTable), crcTable, hdr[44:])
	pos := headerLen
	for _, sec := range secs {
		crc = crc32.Update(crc, crcTable, sec)
		pos += int64(len(sec))
		if gap := align8(pos) - pos; gap > 0 {
			crc = crc32.Update(crc, crcTable, pad[:gap])
			pos += gap
		}
	}
	binary.LittleEndian.PutUint32(hdr[40:], crc)

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	pos = headerLen
	for _, sec := range secs {
		if _, err := bw.Write(sec); err != nil {
			return err
		}
		pos += int64(len(sec))
		if gap := align8(pos) - pos; gap > 0 {
			if _, err := bw.Write(pad[:gap]); err != nil {
				return err
			}
			pos += gap
		}
	}
	return bw.Flush()
}

// swapWords returns a copy of an 8-byte-aligned section with each uint64
// word byte-swapped (big-endian host <-> little-endian file).
func swapWords(b []byte) []byte {
	out := make([]byte, len(b))
	for i := 0; i+8 <= len(b); i += 8 {
		v := *(*uint64)(unsafe.Pointer(&b[i]))
		binary.LittleEndian.PutUint64(out[i:], v)
	}
	return out
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
	s.class, s.src1, s.src2, s.dst, s.vpo = secs[0], secs[1], secs[2], secs[3], secs[4]
	s.dmiss = bitsetSection(secs[5])
	s.pmiss = bitsetSection(secs[6])
	s.imiss = bitsetSection(secs[7])
	s.smiss = bitsetSection(secs[8])
	s.mispred = bitsetSection(secs[9])
	s.taken = bitsetSection(secs[10])
	s.hasTgt = bitsetSection(secs[11])
	s.pc, s.ea, s.tgt, s.val = secs[12], secs[13], secs[14], secs[15]
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
