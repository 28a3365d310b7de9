package core

import "mlpsim/internal/annotate"

// gangRingInsts is the initial broadcast-ring capacity (instructions).
// The scheduler always steps the engine furthest behind, which keeps the
// run-ahead spread near one epoch's consumption; the ring doubles on the
// rare occasions (e.g. a miss-free stretch consumed whole by one epoch)
// that the spread genuinely outruns it.
const gangRingInsts = 4096

// gangRing decodes the annotated stream exactly once — one NextInto per
// dynamic instruction — and binds each instruction's dependence links
// exactly once, broadcasting both to every engine in the gang. The ring
// is stored as parallel columns, keyed by absolute instruction index:
//
//	meta — the packed metaWord (flags + class predicates)
//	lnk  — the six dependence links, kept together because the epoch
//	       model reads them as a unit per execution attempt
//	ai   — the full decoded annotate.Inst, allocated only when a scalar
//	       fallback engine rides the ring (SoA engines run on meta+lnk
//	       alone, so an all-SoA gang never stores the wide struct)
//
// Links and meta are a pure function of the stream (register renaming,
// store forwarding, same-class predecessor chains), so engines fed from
// the ring skip their own binder and StoreTable entirely.
type gangRing struct {
	src     AnnotatedSource
	srcInto inPlaceSource
	bind    *binder

	meta []metaWord
	lnk  []links
	ai   []annotate.Inst // nil unless a scalar consumer needs decoded insts
	// scratch is the decode target when no ai column exists.
	scratch annotate.Inst

	mask int64
	// head is the absolute count of decoded instructions; the ring holds
	// [tail, head).
	head int64
	// tail is a cached lower bound on the lowest index any live consumer
	// still needs, refreshed lazily when the ring looks full. Scalar
	// cursors need their read position; SoA engines need their retire
	// frontier (their whole window reads the ring in place).
	tail int64
	eof  bool

	consumers []ringConsumer
}

// ringConsumer is one engine's claim on ring entries: lowWater is the
// lowest absolute index it may still read, and done reports that it has
// finished and releases the claim.
type ringConsumer interface {
	lowWater() int64
	finished() bool
}

// gangCursor is a scalar engine's private read position in the ring. It
// satisfies AnnotatedSource and the linkedSource fast path; engines copy
// entries out of the ring, never mutate them in place.
type gangCursor struct {
	ring *gangRing
	pos  int64
	done bool
}

func (c *gangCursor) lowWater() int64 { return c.pos }
func (c *gangCursor) finished() bool  { return c.done }

func newGangRing(src AnnotatedSource, wantAI bool, capHint int) *gangRing {
	n := pow2ceil(capHint)
	if n < gangRingInsts {
		n = gangRingInsts
	}
	r := &gangRing{
		src:  src,
		bind: newBinder(),
		meta: make([]metaWord, n),
		lnk:  make([]links, n),
		mask: int64(n) - 1,
	}
	if wantAI {
		r.ai = make([]annotate.Inst, n)
	}
	r.srcInto, _ = src.(inPlaceSource)
	return r
}

func (r *gangRing) newCursor() *gangCursor {
	c := &gangCursor{ring: r}
	r.consumers = append(r.consumers, c)
	return c
}

// refreshTail recomputes the cached tail from the live consumers.
func (r *gangRing) refreshTail() {
	min := r.head
	for _, c := range r.consumers {
		if !c.finished() {
			if low := c.lowWater(); low < min {
				min = low
			}
		}
	}
	r.tail = min
}

// grow doubles the ring, re-placing the live entries.
func (r *gangRing) grow() {
	n := 2 * len(r.lnk)
	meta := make([]metaWord, n)
	lnk := make([]links, n)
	var ai []annotate.Inst
	if r.ai != nil {
		ai = make([]annotate.Inst, n)
	}
	mask := int64(n) - 1
	for j := r.tail; j < r.head; j++ {
		meta[j&mask] = r.meta[j&r.mask]
		lnk[j&mask] = r.lnk[j&r.mask]
		if ai != nil {
			ai[j&mask] = r.ai[j&r.mask]
		}
	}
	r.meta, r.lnk, r.ai, r.mask = meta, lnk, ai, mask
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
		dst := &r.scratch
		if r.ai != nil {
			dst = &r.ai[i]
		}
		ok := false
		if r.srcInto != nil {
			ok = r.srcInto.NextInto(dst)
		} else {
			var ai annotate.Inst
			if ai, ok = r.src.Next(); ok {
				*dst = ai
			}
		}
		if !ok {
			r.eof = true
			return false
		}
		r.bind.bind(dst, r.head, &r.lnk[i])
		r.meta[i] = packMeta(dst)
		r.head++
	}
	return true
}

// NextLinked copies the cursor's next instruction and its pre-bound
// links out of the ring.
func (c *gangCursor) NextLinked(dst *annotate.Inst, ln *links) bool {
	if !c.ring.ensure(c.pos) {
		return false
	}
	i := c.pos & c.ring.mask
	*dst = c.ring.ai[i]
	*ln = c.ring.lnk[i]
	c.pos++
	return true
}

// Next satisfies AnnotatedSource; engines always take the NextLinked
// fast path, this exists only to fit the NewEngine signature.
func (c *gangCursor) Next() (annotate.Inst, bool) {
	var ai annotate.Inst
	var ln links
	ok := c.NextLinked(&ai, &ln)
	return ai, ok
}

// SoAEligible reports whether cfg can run on the gang's structure-of-
// arrays fast path. The fast path implements the out-of-order epoch
// model, runahead, finite MSHR files and store buffers and perfect value
// prediction included; configs that diverge from it — in-order
// disciplines, realistic value prediction, non-oracle memory
// disambiguation, or an epoch observer — fall back to the scalar
// slotState engine inside the same gang.
func SoAEligible(cfg Config) bool {
	return cfg.Mode == OutOfOrder &&
		!cfg.ValuePredict &&
		cfg.Disamb == DisambOracle &&
		cfg.OnEpoch == nil
}

// GangRunStats reports how one gang's instructions were processed: on
// the SoA fast path or by scalar-fallback engines. The split is decided
// per config (an engine either satisfies SoAEligible or it does not), so
// the instruction counts expose the divergence rate of a sweep's config
// mix.
type GangRunStats struct {
	SoAInsts    uint64
	ScalarInsts uint64
}

// gangMember is one engine of a gang plus its scheduling state. Exactly
// one of soa/eng is non-nil.
type gangMember struct {
	soa *soaEngine
	eng *Engine
	// cur is a scalar engine's cursor into the ring. It is nil for SoA
	// members and for the single-scalar gang, whose engine reads straight
	// off the source with no ring.
	cur  *gangCursor
	done bool
}

// pos is the member's scheduling position: the next instruction it will
// consume from the stream.
func (m *gangMember) pos() int64 {
	if m.soa != nil {
		return m.soa.fetchEnd
	}
	if m.cur != nil {
		return m.cur.pos
	}
	return m.eng.srcPulled
}

func (m *gangMember) step() bool {
	if m.soa != nil {
		return m.soa.step()
	}
	return m.eng.step()
}

func (m *gangMember) finish() Result {
	if m.soa != nil {
		return m.soa.finish()
	}
	return m.eng.finish()
}

// release marks the member finished so the ring tail can move past it.
func (m *gangMember) release() {
	m.done = true
	if m.soa != nil {
		m.soa.done = true
	}
	if m.cur != nil {
		m.cur.done = true
	}
}

// Gang steps one engine per config in lock-step over a single decode of
// an annotated stream. Construct with NewGang (so steady-state Run stays
// allocation-free) and call Run once.
type Gang struct {
	ring    *gangRing
	members []gangMember
	results []Result
	stats   GangRunStats
	ran     bool
}

// NewGang builds the ring and engines for cfgs without running them.
// Configs on the SoA fast path get a structure-of-arrays stepper that
// reads meta words and links directly from the shared ring; the rest get
// scalar engines fed through private cursors. A single scalar config
// skips the ring entirely and runs straight off the source.
func NewGang(src AnnotatedSource, cfgs []Config) *Gang {
	g := &Gang{
		members: make([]gangMember, len(cfgs)),
		results: make([]Result, len(cfgs)),
	}
	if len(cfgs) == 0 {
		return g
	}
	if len(cfgs) == 1 && !SoAEligible(cfgs[0]) {
		g.members[0] = gangMember{eng: NewEngine(src, cfgs[0])}
		return g
	}
	wantAI := false
	maxWin := 0
	for _, cfg := range cfgs {
		if !SoAEligible(cfg) {
			wantAI = true
		} else if n := ringSize(cfg); n > maxWin {
			maxWin = n
		}
	}
	// SoA engines hold ring entries down to their retire frontier, so the
	// ring must span at least the largest SoA window (ROB, or MaxRunahead
	// in runahead) plus scheduling spread; starting there avoids growth
	// doubling during the run.
	ring := newGangRing(src, wantAI, 2*maxWin)
	g.ring = ring
	for i, cfg := range cfgs {
		if SoAEligible(cfg) {
			g.members[i] = gangMember{soa: newSoAEngine(ring, cfg)}
			ring.consumers = append(ring.consumers, g.members[i].soa)
		} else {
			cur := ring.newCursor()
			g.members[i] = gangMember{eng: NewEngine(cur, cfg), cur: cur}
		}
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
	live := 0
	for i := range g.members {
		if g.members[i].soa != nil || g.members[i].eng != nil {
			live++
		}
	}
	for live > 0 {
		pick := -1
		var pickPos int64
		for i := range g.members {
			m := &g.members[i]
			if m.done {
				continue
			}
			if p := m.pos(); pick < 0 || p < pickPos {
				pick, pickPos = i, p
			}
		}
		m := &g.members[pick]
		if !m.step() {
			g.results[pick] = m.finish()
			if m.soa != nil {
				g.stats.SoAInsts += uint64(g.results[pick].Instructions)
			} else {
				g.stats.ScalarInsts += uint64(g.results[pick].Instructions)
			}
			m.release()
			live--
		}
	}
	return g.results
}

// Stats reports the gang's fast-path/fallback instruction split. Valid
// after Run.
func (g *Gang) Stats() GangRunStats { return g.stats }

// RunGang runs one engine per config over a single decode of src and
// returns their results in config order. It is NewGang(src, cfgs).Run();
// callers that want the divergence stats or allocation-free repeated
// timing construct the Gang explicitly.
func RunGang(src AnnotatedSource, cfgs []Config) []Result {
	return NewGang(src, cfgs).Run()
}
