package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"mlpsim/internal/isa"
)

// Binary trace format.
//
// Header: 8-byte magic "MLPTRC\x00" + version byte, then a uvarint
// instruction-count hint (0 when unknown / streaming). Records carry no
// annotation: the cache hierarchy and predictors are chosen at replay
// time. Annotated traces live in internal/atrace's spill format.
//
// Each record is delta-encoded against the previous instruction to keep
// traces compact:
//
//	flags   byte    bit0: EA present, bit1: Taken, bit2: Target present,
//	                bit3: Value present, bit4: PC is prev+4 (no PC field)
//	class   byte
//	regs    2 bytes (src1, src2) + 1 byte dst
//	pc      uvarint zig-zag delta from previous PC (if bit4 clear)
//	ea      uvarint zig-zag delta from previous EA (if bit0 set)
//	target  uvarint zig-zag delta from PC (if bit2 set)
//	value   uvarint raw (if bit3 set)

const (
	magic       = "MLPTRC\x00"
	formatVer   = 1
	flagEA      = 1 << 0
	flagTaken   = 1 << 1
	flagTarget  = 1 << 2
	flagValue   = 1 << 3
	flagSeqPC   = 1 << 4
	instrBytes4 = 4 // fixed SPARC instruction size used for sequential PCs
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Encoder writes instructions in the binary trace format.
type Encoder struct {
	w      *bufio.Writer
	prevPC uint64
	prevEA uint64
	buf    []byte
	n      int64
}

// NewEncoder writes a trace header and returns an Encoder. countHint
// may be 0 when the final instruction count is unknown.
func NewEncoder(w io.Writer, countHint uint64) (*Encoder, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	if err := bw.WriteByte(formatVer); err != nil {
		return nil, fmt.Errorf("trace: writing version: %w", err)
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], countHint)
	if _, err := bw.Write(tmp[:n]); err != nil {
		return nil, fmt.Errorf("trace: writing count hint: %w", err)
	}
	return &Encoder{w: bw, buf: make([]byte, 0, 64)}, nil
}

// Encode appends one instruction to the trace.
func (e *Encoder) Encode(in isa.Inst) error {
	e.buf = e.buf[:0]
	var flags byte
	if in.Class.IsMem() {
		flags |= flagEA
	}
	if in.Taken {
		flags |= flagTaken
	}
	if in.Class == isa.Branch && in.Target != 0 {
		flags |= flagTarget
	}
	if in.Class.IsMemRead() && in.Class != isa.Prefetch {
		flags |= flagValue
	}
	if in.PC == e.prevPC+instrBytes4 {
		flags |= flagSeqPC
	}
	e.buf = append(e.buf, flags, byte(in.Class), byte(in.Src1), byte(in.Src2), byte(in.Dst))
	if flags&flagSeqPC == 0 {
		e.buf = binary.AppendUvarint(e.buf, zigzag(int64(in.PC)-int64(e.prevPC)))
	}
	if flags&flagEA != 0 {
		e.buf = binary.AppendUvarint(e.buf, zigzag(int64(in.EA)-int64(e.prevEA)))
		e.prevEA = in.EA
	}
	if flags&flagTarget != 0 {
		e.buf = binary.AppendUvarint(e.buf, zigzag(int64(in.Target)-int64(in.PC)))
	}
	if flags&flagValue != 0 {
		e.buf = binary.AppendUvarint(e.buf, in.Value)
	}
	e.prevPC = in.PC
	e.n++
	if _, err := e.w.Write(e.buf); err != nil {
		return fmt.Errorf("trace: writing record %d: %w", e.n, err)
	}
	return nil
}

// Count returns the number of instructions encoded so far.
func (e *Encoder) Count() int64 { return e.n }

// Flush writes any buffered data to the underlying writer.
func (e *Encoder) Flush() error {
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("trace: flushing: %w", err)
	}
	return nil
}

// Decoder reads instructions from the binary trace format.
type Decoder struct {
	r         *bufio.Reader
	prevPC    uint64
	prevEA    uint64
	countHint uint64
}

// NewDecoder validates the trace header and returns a Decoder.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:len(magic)])
	}
	if ver := hdr[len(magic)]; ver != formatVer {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", ver, formatVer)
	}
	hint, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count hint: %w", err)
	}
	return &Decoder{r: br, countHint: hint}, nil
}

// CountHint returns the instruction-count hint recorded in the header
// (0 when the producer did not know the final count).
func (d *Decoder) CountHint() uint64 { return d.countHint }

// Decode returns the next instruction, or io.EOF at the clean end of the
// trace. Any other error indicates corruption.
func (d *Decoder) Decode() (isa.Inst, error) {
	var in isa.Inst
	flags, err := d.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return in, io.EOF
		}
		return in, fmt.Errorf("trace: reading flags: %w", err)
	}
	var fixed [4]byte
	if _, err := io.ReadFull(d.r, fixed[:]); err != nil {
		return in, fmt.Errorf("trace: truncated record: %w", noEOF(err))
	}
	in.Class = isa.Class(fixed[0])
	if !in.Class.Valid() {
		return in, fmt.Errorf("trace: invalid instruction class %d", fixed[0])
	}
	in.Src1, in.Src2, in.Dst = isa.Reg(fixed[1]), isa.Reg(fixed[2]), isa.Reg(fixed[3])
	in.Taken = flags&flagTaken != 0

	if flags&flagSeqPC != 0 {
		in.PC = d.prevPC + instrBytes4
	} else {
		delta, err := binary.ReadUvarint(d.r)
		if err != nil {
			return in, fmt.Errorf("trace: reading pc delta: %w", noEOF(err))
		}
		in.PC = uint64(int64(d.prevPC) + unzigzag(delta))
	}
	d.prevPC = in.PC

	if flags&flagEA != 0 {
		delta, err := binary.ReadUvarint(d.r)
		if err != nil {
			return in, fmt.Errorf("trace: reading ea delta: %w", noEOF(err))
		}
		in.EA = uint64(int64(d.prevEA) + unzigzag(delta))
		d.prevEA = in.EA
	}
	if flags&flagTarget != 0 {
		delta, err := binary.ReadUvarint(d.r)
		if err != nil {
			return in, fmt.Errorf("trace: reading target delta: %w", noEOF(err))
		}
		in.Target = uint64(int64(in.PC) + unzigzag(delta))
	}
	if flags&flagValue != 0 {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return in, fmt.Errorf("trace: reading value: %w", noEOF(err))
		}
		in.Value = v
	}
	return in, nil
}

// noEOF converts io.EOF into io.ErrUnexpectedEOF so that a record truncated
// mid-way is reported as corruption rather than a clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
