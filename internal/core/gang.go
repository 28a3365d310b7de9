package core

import "math/bits"

// gangRingInsts is the initial broadcast-ring capacity (instructions).
// The scheduler always steps the engine furthest behind, which keeps the
// run-ahead spread near one epoch's consumption; the ring doubles on the
// rare occasions (e.g. a miss-free stretch consumed whole by one epoch,
// or an in-order window that outruns it) that the spread genuinely
// outruns it.
const gangRingInsts = 4096

// gangRing decodes the annotated stream exactly once and binds each
// instruction's dependence links exactly once — one Binder.Next per
// dynamic instruction — broadcasting both to every engine in the gang.
// The ring is stored as parallel columns, keyed by absolute instruction
// index:
//
//	meta — the packed metaWord (flags + class predicates)
//	lnk  — the six dependence links, kept together because the epoch
//	       model reads them as a unit per execution attempt
//	stop — one bit per slot, set when the raw meta word goes off chip
//	       (metaOffChip), which engines scan to cross quiet stretches
//
// Links and meta are a pure function of the stream (register renaming,
// store forwarding, same-class predecessor chains), so engines fed from
// the ring skip their own binder and StoreTable entirely, and never see
// the wide decoded annotate.Inst.
type gangRing struct {
	bind *Binder

	meta []metaWord
	lnk  []Links
	stop []uint64

	mask int64
	// head is the absolute count of decoded instructions; the ring holds
	// [tail, head).
	head int64
	// tail is a cached lower bound on the lowest index any live engine
	// still needs (its retire frontier: an engine's whole window reads
	// the ring in place), refreshed lazily when the ring looks full.
	tail int64
	eof  bool

	engines []*soaEngine
}

// newGangRing builds a ring over src whose engines never read past
// instruction bound (see instLimit), so its binder's store table is
// sized to what it can bind (see storeBound).
func newGangRing(src AnnotatedSource, capHint int, bound int64) *gangRing {
	n := pow2ceil(capHint)
	if n < gangRingInsts {
		n = gangRingInsts
	}
	return &gangRing{
		bind: NewBinder(src, bound),
		meta: make([]metaWord, n),
		lnk:  make([]Links, n),
		stop: make([]uint64, n/64),
		mask: int64(n) - 1,
	}
}

// attach builds an engine for cfg that reads this ring.
func (r *gangRing) attach(cfg Config) *soaEngine {
	e := newSoAEngine(r, cfg)
	r.engines = append(r.engines, e)
	return e
}

// refreshTail recomputes the cached tail from the live engines.
func (r *gangRing) refreshTail() {
	min := r.head
	for _, e := range r.engines {
		if !e.done && e.retire < min {
			min = e.retire
		}
	}
	r.tail = min
}

// grow doubles the ring, re-placing the live entries.
func (r *gangRing) grow() {
	n := 2 * len(r.lnk)
	meta := make([]metaWord, n)
	lnk := make([]Links, n)
	stop := make([]uint64, n/64)
	mask := int64(n) - 1
	for j := r.tail; j < r.head; j++ {
		meta[j&mask] = r.meta[j&r.mask]
		lnk[j&mask] = r.lnk[j&r.mask]
		if meta[j&mask]&metaOffChip != 0 {
			w, b := slotBit(j & mask)
			stop[w] |= b
		}
	}
	r.meta, r.lnk, r.stop, r.mask = meta, lnk, stop, mask
}

// nextStop returns the first instruction in [j, hi) whose raw meta word
// goes off chip, or hi if there is none. [j, hi) must be decoded and
// live (tail <= j, hi <= head). Bits of slots past head are stale, which
// the clamp to hi covers.
func (r *gangRing) nextStop(j, hi int64) int64 {
	for j < hi {
		s := uint64(j & r.mask)
		if w := r.stop[s>>6] >> (s & 63); w != 0 {
			return min(j+int64(bits.TrailingZeros64(w)), hi)
		}
		j += int64(64 - (s & 63))
	}
	return hi
}

// ensure decodes (and binds) until instruction pos is in the ring; it
// returns false when the stream ends first.
func (r *gangRing) ensure(pos int64) bool {
	for pos >= r.head {
		if r.eof {
			return false
		}
		if r.head-r.tail >= int64(len(r.lnk)) {
			r.refreshTail()
			if r.head-r.tail >= int64(len(r.lnk)) {
				r.grow()
			}
		}
		i := r.head & r.mask
		in, ok := r.bind.Next(&r.lnk[i])
		if !ok {
			r.eof = true
			return false
		}
		m := packMeta(in)
		r.meta[i] = m
		w, b := slotBit(i)
		r.stop[w] &^= b
		if m&metaOffChip != 0 {
			r.stop[w] |= b
		}
		r.head++
	}
	return true
}

// Gang steps one engine per config in lock-step over a single decode of
// an annotated stream. Construct with NewGang (so steady-state Run stays
// allocation-free) and call Run once.
type Gang struct {
	engines []*soaEngine
	results []Result
	ran     bool
}

// NewGang builds the ring and one structure-of-arrays stepper per config
// without running them. Every stepper reads meta words and links
// directly from the shared ring.
func NewGang(src AnnotatedSource, cfgs []Config) *Gang {
	g := &Gang{
		engines: make([]*soaEngine, len(cfgs)),
		results: make([]Result, len(cfgs)),
	}
	if len(cfgs) == 0 {
		return g
	}
	maxWin, bound := 0, int64(0)
	for _, cfg := range cfgs {
		maxWin = max(maxWin, ringSize(cfg))
		bound = max(bound, instLimit(cfg))
	}
	// Engines hold ring entries down to their retire frontier, so the
	// ring must span at least the largest window (ROB, or MaxRunahead in
	// runahead) plus scheduling spread; starting there avoids growth
	// doubling during the run.
	ring := newGangRing(src, 2*maxWin, bound)
	for i, cfg := range cfgs {
		g.engines[i] = ring.attach(cfg)
	}
	return g
}

// Run drives every engine to completion and returns their results in
// config order. Results are bit-identical to running each config alone
// against its own copy of the stream: every engine sees the full stream,
// links and meta words are the same pure function of the stream a solo
// engine computes, and engines never share mutable state — so the
// lock-step schedule below affects only performance, never results.
//
// Scheduling is single-threaded: each round steps one epoch of the
// engine whose stream position is furthest behind (ties to the lowest
// index). That engine holds the ring's tail, so stepping it first bounds
// the decode spread; faster engines simply find their entries already
// decoded. An engine that exhausts its stream (EOF or MaxInstructions)
// keeps being stepped until its window drains, then releases its claim
// so the tail can move past it.
func (g *Gang) Run() []Result {
	if g.ran {
		return g.results
	}
	g.ran = true
	for live := len(g.engines); live > 0; {
		var pick *soaEngine
		pi := 0
		for i, e := range g.engines {
			if !e.done && (pick == nil || e.fetchEnd < pick.fetchEnd) {
				pick, pi = e, i
			}
		}
		if !pick.step() {
			g.results[pi] = pick.finish()
			pick.done = true
			live--
		}
	}
	return g.results
}

// RunGang runs one engine per config over a single decode of src and
// returns their results in config order. It is NewGang(src, cfgs).Run();
// callers that want allocation-free repeated timing construct the Gang
// explicitly.
func RunGang(src AnnotatedSource, cfgs []Config) []Result {
	return NewGang(src, cfgs).Run()
}
