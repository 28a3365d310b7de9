// Package atrace materializes one functional annotation pass into a
// compact, immutable columnar store that can be replayed any number of
// times. Annotation (cache hierarchy + branch predictor + value predictor
// over warmup+measure windows) costs ~250ns/inst and is byte-identical
// across every engine configuration, so experiment sweeps that fan dozens
// of core/cyclesim configs over the same workload waste almost all of
// their wall clock re-deriving the same stream. Capturing the stream once
// and replaying it (~20ns/inst, zero allocations) removes that redundancy
// without changing a single simulated event.
package atrace

import (
	"encoding/binary"

	"mlpsim/internal/annotate"
	"mlpsim/internal/isa"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/storeset"
	"mlpsim/internal/vpred"
)

// packVPODep packs the 2-bit value-prediction outcome and the 2-bit
// store-set dependence outcome into the one-byte vpo column: low nibble
// VPOutcome, high nibble Dep. Streams captured before dependence
// prediction existed decode Dep as zero (DepNone), so the on-disk
// column format (and every spill already published) is unchanged.
func packVPODep(vpo vpred.Outcome, dep storeset.Outcome) uint8 {
	return uint8(vpo) | uint8(dep)<<4
}

// Source is a sequential cursor over an annotated instruction window.
// NextInto is the zero-copy variant of Next; both methods yield the exact
// annotate.Inst values the annotator emitted. (The engines' fetch paths
// prefer Replay's narrower NextEngine.)
type Source interface {
	Next() (annotate.Inst, bool)
	NextInto(*annotate.Inst) bool
}

// Stream is an immutable struct-of-arrays encoding of an annotated
// instruction window. All replays decode the same columns; a Stream is
// safe for concurrent use once built.
type Stream struct {
	n          int64
	firstIndex int64
	lineShift  uint8

	// Fixed-width columns, one entry per instruction.
	class []uint8
	src1  []uint8
	src2  []uint8
	dst   []uint8
	vpo   []uint8

	// Packed event bitsets (bit i = instruction i).
	dmiss   []uint64
	pmiss   []uint64
	imiss   []uint64
	smiss   []uint64
	mispred []uint64
	taken   []uint64
	hasTgt  []uint64

	// Variable-width columns: zig-zag uvarint deltas. pc holds one delta
	// per instruction (vs previous PC); ea one per memory instruction
	// (vs previous EA); tgt one per branch-with-target (vs own PC); val
	// one raw uvarint per non-prefetch memory read.
	pc  []byte
	ea  []byte
	tgt []byte
	val []byte

	stats annotate.Stats

	// Hardware-prefetcher statistics captured with the stream (zero when
	// the annotation configuration had no prefetchers). Replays of a cached
	// stream report these instead of re-running the engines.
	ipfStats, dpfStats prefetch.Stats
	hasIPF, hasDPF     bool

	// mapped, when non-nil, owns the memory-mapped columnar spill file the
	// columns above are views into; it is kept alive by this reference and
	// unmapped by a finalizer once the stream is unreachable.
	mapped *mapping
}

// Len returns the number of instructions in the stream.
func (s *Stream) Len() int64 { return s.n }

// FirstIndex returns the dynamic index of the first instruction (the
// number of instructions consumed before capture, i.e. the warmup).
func (s *Stream) FirstIndex() int64 { return s.firstIndex }

// Stats returns the annotator statistics accumulated over exactly the
// captured window (what a direct annotator would report after draining
// the same instructions post-warmup).
func (s *Stream) Stats() annotate.Stats { return s.stats }

// IPrefetchStats returns the hardware instruction prefetcher statistics
// captured with the stream; ok is false when the annotation configuration
// had no instruction prefetcher.
func (s *Stream) IPrefetchStats() (prefetch.Stats, bool) { return s.ipfStats, s.hasIPF }

// DPrefetchStats returns the hardware data prefetcher statistics captured
// with the stream.
func (s *Stream) DPrefetchStats() (prefetch.Stats, bool) { return s.dpfStats, s.hasDPF }

// Mapped reports whether the stream's columns are views over a
// memory-mapped spill file rather than resident heap.
func (s *Stream) Mapped() bool { return s.mapped != nil && !s.mapped.heap }

// MemBytes returns the approximate heap footprint of the stream, used
// for cache accounting. A memory-mapped stream occupies file pages (the
// OS page cache), not Go heap, so it accounts only a small constant.
func (s *Stream) MemBytes() int64 {
	if s.Mapped() {
		return 4096
	}
	b := int64(cap(s.class) + cap(s.src1) + cap(s.src2) + cap(s.dst) + cap(s.vpo))
	b += 8 * int64(cap(s.dmiss)+cap(s.pmiss)+cap(s.imiss)+cap(s.smiss)+cap(s.mispred)+cap(s.taken)+cap(s.hasTgt))
	b += int64(cap(s.pc) + cap(s.ea) + cap(s.tgt) + cap(s.val))
	return b + 256
}

func bitsetWords(n int64) int64 { return (n + 63) / 64 }

func getBit(bs []uint64, i int64) bool { return bs[i>>6]&(1<<uint(i&63)) != 0 }

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Builder accumulates annotated instructions into a Stream.
type Builder struct {
	s      Stream
	prevPC uint64
	prevEA uint64
	first  bool
	// off counts the instructions whose bitset words a spill log has
	// taken (a multiple of 64); the words held start at instruction off.
	off int64
}

// NewBuilder starts a stream whose Line/ILine fields are derived with the
// given line shift (log2 of the L2 line size). sizeHint preallocates for
// the expected instruction count (0 is fine).
func NewBuilder(lineShift uint8, sizeHint int64) *Builder {
	b := &Builder{first: true}
	b.s.lineShift = lineShift
	if sizeHint > 0 {
		b.s.class = make([]uint8, 0, sizeHint)
		b.s.src1 = make([]uint8, 0, sizeHint)
		b.s.src2 = make([]uint8, 0, sizeHint)
		b.s.dst = make([]uint8, 0, sizeHint)
		b.s.vpo = make([]uint8, 0, sizeHint)
		words := bitsetWords(sizeHint)
		b.s.dmiss = make([]uint64, 0, words)
		b.s.pmiss = make([]uint64, 0, words)
		b.s.imiss = make([]uint64, 0, words)
		b.s.smiss = make([]uint64, 0, words)
		b.s.mispred = make([]uint64, 0, words)
		b.s.taken = make([]uint64, 0, words)
		b.s.hasTgt = make([]uint64, 0, words)
		b.s.pc = make([]byte, 0, 2*sizeHint)
		b.s.ea = make([]byte, 0, 2*sizeHint)
	}
	return b
}

func setBit(bs *[]uint64, i int64, v bool) {
	w := i >> 6
	for int64(len(*bs)) <= w {
		*bs = append(*bs, 0)
	}
	if v {
		(*bs)[w] |= 1 << uint(i&63)
	}
}

// Append adds one annotated instruction. Instructions must be appended in
// stream order; the first instruction's Index becomes FirstIndex.
func (b *Builder) Append(in annotate.Inst) {
	if b.first {
		b.s.firstIndex = in.Index
		b.first = false
	}
	i := b.s.n - b.off
	b.s.n++
	b.s.class = append(b.s.class, uint8(in.Class))
	b.s.src1 = append(b.s.src1, uint8(in.Src1))
	b.s.src2 = append(b.s.src2, uint8(in.Src2))
	b.s.dst = append(b.s.dst, uint8(in.Dst))
	b.s.vpo = append(b.s.vpo, packVPODep(in.VPOutcome, in.Dep))
	setBit(&b.s.dmiss, i, in.DMiss)
	setBit(&b.s.pmiss, i, in.PMiss)
	setBit(&b.s.imiss, i, in.IMiss)
	setBit(&b.s.smiss, i, in.SMiss)
	setBit(&b.s.mispred, i, in.Mispred)
	setBit(&b.s.taken, i, in.Taken)
	hasTgt := in.Class == isa.Branch && in.Target != 0
	setBit(&b.s.hasTgt, i, hasTgt)

	b.s.pc = binary.AppendUvarint(b.s.pc, zigzag(int64(in.PC)-int64(b.prevPC)))
	b.prevPC = in.PC
	if in.Class.IsMem() {
		b.s.ea = binary.AppendUvarint(b.s.ea, zigzag(int64(in.EA)-int64(b.prevEA)))
		b.prevEA = in.EA
	}
	if hasTgt {
		b.s.tgt = binary.AppendUvarint(b.s.tgt, zigzag(int64(in.Target)-int64(in.PC)))
	}
	if in.Class.IsMemRead() && in.Class != isa.Prefetch {
		b.s.val = binary.AppendUvarint(b.s.val, in.Value)
	}
}

// AppendBlock adds a block of annotated instructions column by column:
// one pass per fixed-width column, one bulk extension per bitset, then
// the data-dependent varint columns — a transpose at the block boundary
// instead of a full per-instruction Append. Instructions must be in
// stream order; interleaving with Append is allowed.
func (b *Builder) AppendBlock(block []annotate.Inst) {
	if len(block) == 0 {
		return
	}
	if b.first {
		b.s.firstIndex = block[0].Index
		b.first = false
	}
	base := b.s.n - b.off
	b.s.n += int64(len(block))

	for i := range block {
		b.s.class = append(b.s.class, uint8(block[i].Class))
	}
	for i := range block {
		b.s.src1 = append(b.s.src1, uint8(block[i].Src1))
	}
	for i := range block {
		b.s.src2 = append(b.s.src2, uint8(block[i].Src2))
	}
	for i := range block {
		b.s.dst = append(b.s.dst, uint8(block[i].Dst))
	}
	for i := range block {
		b.s.vpo = append(b.s.vpo, packVPODep(block[i].VPOutcome, block[i].Dep))
	}

	words := bitsetWords(b.s.n - b.off)
	b.s.dmiss = growWords(b.s.dmiss, words)
	b.s.pmiss = growWords(b.s.pmiss, words)
	b.s.imiss = growWords(b.s.imiss, words)
	b.s.smiss = growWords(b.s.smiss, words)
	b.s.mispred = growWords(b.s.mispred, words)
	b.s.taken = growWords(b.s.taken, words)
	b.s.hasTgt = growWords(b.s.hasTgt, words)
	for i := range block {
		in := &block[i]
		w, bit := (base+int64(i))>>6, uint(base+int64(i))&63
		if in.DMiss {
			b.s.dmiss[w] |= 1 << bit
		}
		if in.PMiss {
			b.s.pmiss[w] |= 1 << bit
		}
		if in.IMiss {
			b.s.imiss[w] |= 1 << bit
		}
		if in.SMiss {
			b.s.smiss[w] |= 1 << bit
		}
		if in.Mispred {
			b.s.mispred[w] |= 1 << bit
		}
		if in.Taken {
			b.s.taken[w] |= 1 << bit
		}
		if in.Class == isa.Branch && in.Target != 0 {
			b.s.hasTgt[w] |= 1 << bit
		}
	}

	for i := range block {
		in := &block[i]
		b.s.pc = binary.AppendUvarint(b.s.pc, zigzag(int64(in.PC)-int64(b.prevPC)))
		b.prevPC = in.PC
		if in.Class.IsMem() {
			b.s.ea = binary.AppendUvarint(b.s.ea, zigzag(int64(in.EA)-int64(b.prevEA)))
			b.prevEA = in.EA
		}
		if in.Class == isa.Branch && in.Target != 0 {
			b.s.tgt = binary.AppendUvarint(b.s.tgt, zigzag(int64(in.Target)-int64(in.PC)))
		}
		if in.Class.IsMemRead() && in.Class != isa.Prefetch {
			b.s.val = binary.AppendUvarint(b.s.val, in.Value)
		}
	}
}

// growWords zero-extends a bitset to the given word count.
func growWords(bs []uint64, words int64) []uint64 {
	for int64(len(bs)) < words {
		bs = append(bs, 0)
	}
	return bs
}

// Finish seals the stream, attaching the annotator statistics for the
// captured window.
func (b *Builder) Finish(stats annotate.Stats) *Stream {
	b.s.stats = stats
	s := b.s
	b.s = Stream{}
	return &s
}

// captureBlock is the fused-capture batch size: large enough to
// amortize the per-block column transpose, small enough that the
// annotate.Inst staging buffer (~100 bytes each) stays cache resident.
const captureBlock = 2048

// Capture drains up to max instructions from a (typically pre-warmed)
// annotator into a new Stream. The annotator's post-drain Stats are
// stored on the stream. Annotation and encoding are fused block-wise:
// AnnotateInto fills a reusable staging buffer and AppendBlock
// transposes it into the columns, instead of one call pair plus an
// Inst copy per instruction.
func Capture(a *annotate.Annotator, max int64) *Stream {
	s, _ := captureInto(a, max, NewBuilder(lineShiftOf(a.Hierarchy().Config().L2.LineBytes), max), nil)
	return s
}

// captureInto drains up to max instructions from a into b block by
// block and seals the stream with the annotator's statistics. After
// every full block it hands b to flush, when set, which may take the
// columns' leading bytes (a spill log does); a flush error stops the
// capture and is returned.
func captureInto(a *annotate.Annotator, max int64, b *Builder, flush func(*Builder) error) (*Stream, error) {
	buf := make([]annotate.Inst, captureBlock)
	for left := max; left > 0; {
		want := int64(len(buf))
		if left < want {
			want = left
		}
		got := a.AnnotateInto(buf[:want])
		b.AppendBlock(buf[:got])
		left -= int64(got)
		if int64(got) < want {
			break
		}
		if flush != nil {
			if err := flush(b); err != nil {
				return nil, err
			}
		}
	}
	s := b.Finish(a.Stats())
	if p := a.IPrefetch(); p != nil {
		s.ipfStats, s.hasIPF = p.Stats(), true
	}
	if p := a.DPrefetch(); p != nil {
		s.dpfStats, s.hasDPF = p.Stats(), true
	}
	return s, nil
}

func lineShiftOf(lineBytes int) uint8 {
	var shift uint8
	for 1<<shift != lineBytes {
		shift++
		if shift > 63 {
			panic("atrace: line size not a power of two")
		}
	}
	return shift
}

// Replay is a sequential, zero-allocation decoder over a Stream. It
// implements the engines' AnnotatedSource contract and reproduces the
// exact annotate.Inst values the annotator emitted, including Index,
// Line and ILine. Each replay has independent position state; create one
// per engine run.
type Replay struct {
	s      *Stream
	i      int64
	pcOff  int
	eaOff  int
	tgtOff int
	valOff int
	prevPC uint64
	prevEA uint64
}

// Replay returns a fresh replay cursor positioned at the first
// instruction.
func (s *Stream) Replay() *Replay { return &Replay{s: s} }

// Source returns a fresh replay cursor as a Source.
func (s *Stream) Source() Source { return s.Replay() }

// StoresLeft counts the memory writes among the instructions the replay
// has left to decode, stopping at limit: it scans the class column until
// the count reaches limit. The engines size their store tables by it.
func (r *Replay) StoresLeft(limit int64) int64 {
	var n int64
	for _, c := range r.s.class[r.i:] {
		if isa.Class(c).IsMemWrite() {
			if n++; n >= limit {
				break
			}
		}
	}
	return n
}

// Next returns the next annotated instruction in the stream.
func (r *Replay) Next() (annotate.Inst, bool) {
	var out annotate.Inst
	ok := r.NextInto(&out)
	return out, ok
}

// NextInto decodes the next instruction directly into *dst, avoiding the
// by-value copies of Next. It overwrites every field of *dst.
func (r *Replay) NextInto(dst *annotate.Inst) bool {
	s := r.s
	if r.i >= s.n {
		return false
	}
	i := r.i
	r.i++

	out := dst
	*out = annotate.Inst{}
	out.Index = s.firstIndex + i
	out.Class = isa.Class(s.class[i])
	out.Src1 = isa.Reg(s.src1[i])
	out.Src2 = isa.Reg(s.src2[i])
	out.Dst = isa.Reg(s.dst[i])
	out.VPOutcome = vpred.Outcome(s.vpo[i] & 0x0F)
	out.Dep = storeset.Outcome(s.vpo[i] >> 4)
	out.DMiss = getBit(s.dmiss, i)
	out.PMiss = getBit(s.pmiss, i)
	out.IMiss = getBit(s.imiss, i)
	out.SMiss = getBit(s.smiss, i)
	out.Mispred = getBit(s.mispred, i)
	out.Taken = getBit(s.taken, i)

	d, n := uvarint(s.pc[r.pcOff:])
	r.pcOff += n
	out.PC = uint64(int64(r.prevPC) + unzigzag(d))
	r.prevPC = out.PC
	out.ILine = out.PC >> s.lineShift

	if out.Class.IsMem() {
		d, n = uvarint(s.ea[r.eaOff:])
		r.eaOff += n
		out.EA = uint64(int64(r.prevEA) + unzigzag(d))
		r.prevEA = out.EA
		out.Line = out.EA >> s.lineShift
	}
	if getBit(s.hasTgt, i) {
		d, n = uvarint(s.tgt[r.tgtOff:])
		r.tgtOff += n
		out.Target = uint64(int64(out.PC) + unzigzag(d))
	}
	if out.Class.IsMemRead() && out.Class != isa.Prefetch {
		v, n := uvarint(s.val[r.valOff:])
		r.valOff += n
		out.Value = v
	}
	return true
}

// NextEngine is the engines' narrow decode: it fills only the fields
// they read — Class, the registers, VPOutcome, Dep, the five event flags
// and, for a memory instruction, EA — and leaves every other field of
// *dst as it was. It never reads the pc, tgt or val columns, which hold
// most of a stream's varints. A replay is drained by one decode or the
// other: NextEngine does not advance the columns it skips, so a later
// NextInto on the same replay would decode wrong PCs, targets and values.
func (r *Replay) NextEngine(dst *annotate.Inst) bool {
	s := r.s
	i := r.i
	if i >= s.n {
		return false
	}
	r.i++
	cls := isa.Class(s.class[i])
	dst.Class = cls
	dst.Src1 = isa.Reg(s.src1[i])
	dst.Src2 = isa.Reg(s.src2[i])
	dst.Dst = isa.Reg(s.dst[i])
	vpo := s.vpo[i]
	dst.VPOutcome = vpred.Outcome(vpo & 0x0F)
	dst.Dep = storeset.Outcome(vpo >> 4)
	w, b := i>>6, uint64(1)<<uint(i&63)
	dst.DMiss = s.dmiss[w]&b != 0
	dst.PMiss = s.pmiss[w]&b != 0
	dst.IMiss = s.imiss[w]&b != 0
	dst.SMiss = s.smiss[w]&b != 0
	dst.Mispred = s.mispred[w]&b != 0
	if cls.IsMem() {
		d, n := uvarint(s.ea[r.eaOff:])
		r.eaOff += n
		r.prevEA = uint64(int64(r.prevEA) + unzigzag(d))
		dst.EA = r.prevEA
	}
	return true
}

// uvarint decodes one uvarint from b as binary.Uvarint does, except that
// it never reports an error: a varint running past 64 bits is consumed
// whole, and a truncated one consumes the rest of b. A replay cursor
// thus only ever moves forward within its column, whatever bytes a
// corrupt spill that passed its checksum holds.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	var shift uint
	for i, c := range b {
		if c < 0x80 {
			return x | uint64(c)<<shift, i + 1
		}
		x |= uint64(c&0x7f) << shift
		shift += 7
	}
	return x, len(b)
}
