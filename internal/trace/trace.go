// Package trace provides dynamic-instruction-stream sources and a compact
// binary on-disk trace format.
//
// All simulators in this repository are trace driven, exactly like the
// paper's MLPsim: they consume a stream of isa.Inst records produced either
// by a synthetic workload generator (internal/workload) or by decoding a
// stored trace file.
package trace

import (
	"errors"
	"io"

	"mlpsim/internal/isa"
)

// Source yields a dynamic instruction stream. Implementations are not safe
// for concurrent use.
type Source interface {
	// Next returns the next dynamic instruction. It returns ok=false when
	// the stream is exhausted; the returned instruction is then undefined.
	Next() (in isa.Inst, ok bool)
}

// SliceSource adapts a materialized instruction slice into a Source.
type SliceSource struct {
	insts []isa.Inst
	pos   int
}

// NewSliceSource returns a Source that replays insts in order. The slice is
// not copied; the caller must not mutate it while the source is in use.
func NewSliceSource(insts []isa.Inst) *SliceSource {
	return &SliceSource{insts: insts}
}

// Next implements Source.
func (s *SliceSource) Next() (isa.Inst, bool) {
	if s.pos >= len(s.insts) {
		return isa.Inst{}, false
	}
	in := s.insts[s.pos]
	s.pos++
	return in, true
}

// Reset rewinds the source to the beginning of the slice.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the underlying slice.
func (s *SliceSource) Len() int { return len(s.insts) }

// FuncSource adapts a generator function into a Source.
type FuncSource func() (isa.Inst, bool)

// Next implements Source.
func (f FuncSource) Next() (isa.Inst, bool) { return f() }

// Limit wraps src so that at most n instructions are delivered.
func Limit(src Source, n int64) Source {
	remaining := n
	return FuncSource(func() (isa.Inst, bool) {
		if remaining <= 0 {
			return isa.Inst{}, false
		}
		remaining--
		return src.Next()
	})
}

// Collect drains up to max instructions from src into a fresh slice.
// max < 0 collects the entire stream.
func Collect(src Source, max int64) []isa.Inst {
	var out []isa.Inst
	for max < 0 || int64(len(out)) < max {
		in, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	return out
}

// ReaderSource adapts an io.Reader of the binary trace format into a
// Source. Decoding errors terminate the stream; call Err to distinguish a
// clean EOF from a corrupt trace.
type ReaderSource struct {
	dec *Decoder
	err error
}

// NewReaderSource creates a ReaderSource, reading and validating the trace
// header immediately.
func NewReaderSource(r io.Reader) (*ReaderSource, error) {
	dec, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return &ReaderSource{dec: dec}, nil
}

// Next implements Source.
func (rs *ReaderSource) Next() (isa.Inst, bool) {
	if rs.err != nil {
		return isa.Inst{}, false
	}
	in, err := rs.dec.Decode()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			rs.err = err
		}
		return isa.Inst{}, false
	}
	return in, true
}

// Err returns the first decoding error encountered, or nil if the stream
// ended cleanly (or has not ended yet).
func (rs *ReaderSource) Err() error { return rs.err }
