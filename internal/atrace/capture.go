package atrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"mlpsim/internal/annotate"
)

// BuildSpec describes one annotation pass: a fresh annotator warmed over
// Warmup instructions, then Measure instructions captured. The window
// must match the cache key.
type BuildSpec struct {
	// NewAnnotator returns a fresh, unwarmed annotator positioned at
	// dynamic instruction 0.
	NewAnnotator func() *annotate.Annotator
	// Warmup instructions train the annotator before the first captured
	// one; Measure instructions are captured.
	Warmup, Measure int64
}

// warmed returns spec's annotator warmed over the warm-up window. A
// source that ends early panics; Cache.GetTrace hands the panic to every
// waiter.
func (spec BuildSpec) warmed() *annotate.Annotator {
	a := spec.NewAnnotator()
	if a.Warm(spec.Warmup); a.Position() != spec.Warmup {
		panic(fmt.Sprintf("atrace: source ended during warm-up (%d of %d instructions)", a.Position(), spec.Warmup))
	}
	return a
}

// checkLen panics unless a captured window holds Measure instructions.
func (spec BuildSpec) checkLen(s *Stream) {
	if s.Len() != spec.Measure {
		panic(fmt.Sprintf("atrace: captured %d instructions, want %d", s.Len(), spec.Measure))
	}
}

// capture runs spec's pass into the heap: it warms a fresh annotator,
// captures the measured window and checks its length.
func capture(spec BuildSpec) *Stream {
	s := Capture(spec.warmed(), spec.Measure)
	spec.checkLen(s)
	return s
}

// CaptureToFile runs spec's pass straight into a spill at path: the
// columns stream through a spill log (see spillLog) beside path, which
// is then laid out in the spill format into a temp file and published
// with an atomic rename, so another process sees either no trace or a
// whole one, and the builder's heap never holds the trace. It returns
// the trace memory-mapped from the published file. If writing or
// publishing fails it removes what it wrote and returns the trace
// captured into the heap by a second pass, with the error: the trace is
// still good, it is just not shared on disk.
func CaptureToFile(path string, spec BuildSpec) (*Stream, error) {
	if err := captureSpill(path, spec); err != nil {
		return capture(spec), err
	}
	s, err := OpenSpill(path)
	if err != nil {
		return capture(spec), err
	}
	return s, nil
}

// captureSpill runs spec's pass into a spill log and publishes it at
// path. The log is gone when it returns, and by the time the publish
// renames its temp file.
func captureSpill(path string, spec BuildSpec) error {
	dir := filepath.Dir(path)
	log, err := newSpillLog(dir)
	if err != nil {
		return err
	}
	defer log.discard()
	a := spec.warmed()
	s, err := captureInto(a, spec.Measure, newSpillBuilder(lineShiftOf(a.Hierarchy().Config().L2.LineBytes)), log.flush)
	if err != nil {
		return err
	}
	spec.checkLen(s)
	return writeAtomic(dir, tmpPrefix+"*", path, func(f *os.File) error {
		defer log.discard()
		return log.writeSpill(f, s)
	})
}

// spillChunk is the unit a spill log moves: a section's bytes reach the
// log spillChunk at a time, and the final pass copies them through one
// chunk-sized buffer.
const spillChunk = 16 << 10

// spillWriteAt is the spill writer's one write primitive, for the log
// and the published file alike; tests swap it to make a write fail.
var spillWriteAt = func(f *os.File, p []byte, off int64) error {
	_, err := f.WriteAt(p, off)
	return err
}

// fileWriter writes f front to back through spillWriteAt; off is the
// length written.
type fileWriter struct {
	f   *os.File
	off int64
}

func (w *fileWriter) Write(p []byte) (int, error) {
	if err := spillWriteAt(w.f, p, w.off); err != nil {
		return 0, err
	}
	w.off += int64(len(p))
	return len(p), nil
}

// spillLog is the provisional file of a spilled build. Whenever a
// section in the builder fills a spillChunk the chunk is appended to the
// log and dropped from the builder, so the build's heap holds at most a
// chunk and a capture block per section, whatever the window's length.
// writeSpill then moves every chunk to its place in the spill format.
type spillLog struct {
	fileWriter
	chunks [colSectionCnt][]int64 // log offsets of each section's chunks, in order
}

// newSpillLog creates an empty log in dir. It is named like a publish
// temp file, so the directory sweep reclaims one a crash abandons.
func newSpillLog(dir string) (*spillLog, error) {
	f, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return nil, err
	}
	return &spillLog{fileWriter: fileWriter{f: f}}, nil
}

// discard closes and removes the log; later calls do nothing.
func (l *spillLog) discard() {
	if l.f != nil {
		l.f.Close()
		os.Remove(l.f.Name())
		l.f = nil
	}
}

// append writes p, whole chunks of section i, at the log's end.
func (l *spillLog) append(i int, p []byte) error {
	for k := 0; k < len(p); k += spillChunk {
		l.chunks[i] = append(l.chunks[i], l.off+int64(k))
	}
	_, err := l.Write(p)
	return err
}

// newSpillBuilder returns a builder whose columns never grow under a
// spill log's flushes: each holds less than a chunk between them, plus
// one capture block's worth (uvarints at their longest).
func newSpillBuilder(lineShift uint8) *Builder {
	b := &Builder{first: true}
	b.s.lineShift = lineShift
	for i, col := range b.s.byteCols() {
		switch {
		case col == nil:
		case i < 5:
			*col = make([]byte, 0, spillChunk+captureBlock)
		default:
			*col = make([]byte, 0, spillChunk+binary.MaxVarintLen64*captureBlock)
		}
	}
	for _, ws := range b.s.wordCols() {
		*ws = make([]uint64, 0, (spillChunk+captureBlock/8)/8)
	}
	return b
}

// flush moves every whole chunk b holds into the log and keeps the rest
// of each section at the front of its column. Bitsets move only whole
// words, which every word before the last is.
func (l *spillLog) flush(b *Builder) error {
	for i, col := range b.s.byteCols() {
		if col == nil {
			continue
		}
		n := len(*col) / spillChunk * spillChunk
		if n == 0 {
			continue
		}
		if err := l.append(i, (*col)[:n]); err != nil {
			return err
		}
		*col = (*col)[:copy(*col, (*col)[n:])]
	}
	const chunkWords = spillChunk / 8
	words := (b.s.n - b.off) / 64 / chunkWords * chunkWords
	if words == 0 {
		return nil
	}
	for i, ws := range b.s.wordCols() {
		if err := l.append(5+i, leBytes((*ws)[:words])); err != nil {
			return err
		}
		*ws = (*ws)[:copy(*ws, (*ws)[words:])]
	}
	b.off += 64 * words
	return nil
}

// writeSpill writes the spill of the finished stream s to f: the header,
// then each section as its logged chunks followed by the tail s still
// holds, zero-padded to 8 bytes, checksummed on the way; the checksum
// lands in the header last.
func (l *spillLog) writeSpill(f *os.File, s *Stream) error {
	tails := colSections(s)
	var lens [colSectionCnt]int64
	for i, tail := range tails {
		lens[i] = int64(len(l.chunks[i]))*spillChunk + int64(len(tail))
	}
	hdr := spillHeader(s, lens)
	crc := crc32.New(crcTable)
	crc.Write(hdr[:40]) // all but the checksum's own field
	crc.Write(hdr[44:])
	bw := bufio.NewWriterSize(&fileWriter{f: f}, spillChunk)
	bw.Write(hdr)
	// bw keeps its first error, which Flush returns.
	w := io.MultiWriter(bw, crc)
	chunk := make([]byte, spillChunk)
	var pad [8]byte
	for i, tail := range tails {
		for _, off := range l.chunks[i] {
			if _, err := l.f.ReadAt(chunk, off); err != nil {
				return err
			}
			w.Write(chunk)
		}
		w.Write(tail)
		w.Write(pad[:align8(lens[i])-lens[i]])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return spillWriteAt(f, binary.LittleEndian.AppendUint32(nil, crc.Sum32()), 40)
}
