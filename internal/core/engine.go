package core

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/isa"
)

// AnnotatedSource yields annotated instructions (see internal/annotate).
type AnnotatedSource interface {
	Next() (annotate.Inst, bool)
}

// inPlaceSource is an optional fast path: sources that can decode
// directly into a caller-provided Inst (e.g. atrace.Replay) skip the
// by-value copies of Next. annotate.Inst is large enough that routing it
// through return values is measurable on the decode path.
type inPlaceSource interface {
	NextInto(*annotate.Inst) bool
}

// links are one instruction's dependence edges, bound in program order.
// They depend only on the instruction stream, never on the engine
// configuration.
type links struct {
	// prod1, prod2 are the register producers (renaming).
	prod1, prod2 int64
	// memProd is the most recent earlier store to the same address.
	memProd int64
	// prevMem / prevStore / prevBranch chain same-class predecessors for
	// the issue-ordering policies.
	prevMem, prevStore, prevBranch int64
}

// binder computes dependence links in program order: register renaming
// via the producers table, store forwarding via the bounded StoreTable,
// and the same-class predecessor chains. One binder serves a whole gang —
// binding at decode time is equivalent to binding at window entry
// because instructions enter every window in decode order.
type binder struct {
	producers                               [isa.NumRegs]int64
	lastStore                               *StoreTable
	prevMemIdx, prevStoreIdx, prevBranchIdx int64
}

func newBinder() *binder {
	b := &binder{lastStore: NewStoreTable()}
	for i := range b.producers {
		b.producers[i] = -1
	}
	b.prevMemIdx, b.prevStoreIdx, b.prevBranchIdx = -1, -1, -1
	return b
}

// bind fills in instruction j's links and updates the binding state.
func (b *binder) bind(ai *annotate.Inst, j int64, ln *links) {
	ln.prod1, ln.prod2, ln.memProd = -1, -1, -1
	ln.prevMem, ln.prevStore, ln.prevBranch = -1, -1, -1

	if ai.Src1 != isa.NoReg && ai.Src1 != isa.RegZero {
		ln.prod1 = b.producers[ai.Src1]
	}
	if ai.Src2 != isa.NoReg && ai.Src2 != isa.RegZero {
		ln.prod2 = b.producers[ai.Src2]
	}
	cls := ai.Class
	if cls.IsMemRead() && cls != isa.Prefetch {
		if p, ok := b.lastStore.Get(ai.EA >> 3); ok {
			ln.memProd = p
		}
	}
	if cls == isa.Load || cls == isa.Store || cls == isa.CASA || cls == isa.LDSTUB {
		ln.prevMem = b.prevMemIdx
		b.prevMemIdx = j
		// Loads carry the link too: non-oracle disambiguation serializes a
		// predicted-dependent load behind the last fetched store.
		ln.prevStore = b.prevStoreIdx
	}
	if cls.IsMemWrite() {
		b.prevStoreIdx = j
		// Bounded table; stale producers resolve as retired.
		b.lastStore.Put(ai.EA>>3, j)
	}
	if cls == isa.Branch {
		ln.prevBranch = b.prevBranchIdx
		b.prevBranchIdx = j
	}
	if ai.HasDst() {
		b.producers[ai.Dst] = j
	}
}

// Engine is the MLPsim epoch-model engine over one stream: a gang of
// one, stepped to completion by Run.
type Engine struct {
	s *Stepper
}

// NewEngine builds an engine; it panics on invalid configurations
// (configurations are produced by code, not end users).
func NewEngine(src AnnotatedSource, cfg Config) *Engine {
	return &Engine{s: NewStepper(src, cfg)}
}

// Run processes the stream to completion (or cfg.MaxInstructions) and
// returns the result.
func (e *Engine) Run() Result {
	for e.s.Step() {
	}
	return e.s.Finish()
}

// ringSize returns an engine's per-slot capacity for cfg: enough for the
// largest possible live set where the window bound is known (out of
// order), a modest start the state grows from where it is workload-
// dependent (in order: outstanding prefetches can pile up behind a
// stalled tail).
func ringSize(cfg Config) int {
	switch {
	case cfg.Mode == OutOfOrder && cfg.Runahead:
		return pow2ceil(cfg.MaxRunahead + 1)
	case cfg.Mode == OutOfOrder:
		return pow2ceil(cfg.ROB + 1)
	default:
		return 256
	}
}

// pow2ceil returns the smallest power of two >= n (minimum 1).
func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// epochState accumulates one epoch's events.
type epochState struct {
	accesses  int
	dAccesses int
	pAccesses int
	iAccesses int
	sAccesses int
	limiter   Limiter
	termIdx   int64 // index where the window terminated
	blockIdx  int64 // earliest Fig-5 blocking event (config A/B load blocks)
	blockLim  Limiter
	// firstUnresolvedStore is the first store in scan order whose address
	// is not yet resolved (configurations A and B block later loads on it).
	firstUnresolvedStore int64
	// firstUnexecStore is the first not-yet-executed store in scan order
	// (DisambConservative serializes every later load behind it).
	firstUnexecStore int64
	// epoch collects what an OnEpoch observer receives.
	epoch Epoch
}

// accessKind classifies one off-chip access.
type accessKind uint8

const (
	accD accessKind = iota // missing load / atomic
	accP                   // missing prefetch
	accI                   // missing instruction fetch
)

// record counts one off-chip access at instruction j; track lists it in
// the epoch's AccessIdx for an OnEpoch observer.
func (ep *epochState) record(j int64, kind accessKind, track bool) {
	if ep.accesses == 0 {
		ep.epoch.Trigger = j
	}
	ep.accesses++
	switch kind {
	case accD:
		ep.dAccesses++
	case accP:
		ep.pAccesses++
	case accI:
		ep.iAccesses++
	}
	if track {
		ep.epoch.AccessIdx = append(ep.epoch.AccessIdx, j)
	}
}

// terminate records the window termination point and cause.
func (ep *epochState) terminate(idx int64, lim Limiter) {
	ep.termIdx = idx
	ep.limiter = lim
}

// block records the earliest Figure-5 blocking event (a missing load held
// back by the load-ordering or store-address policy).
func (ep *epochState) block(idx int64, lim Limiter) {
	if ep.blockIdx < 0 {
		ep.blockIdx = idx
		ep.blockLim = lim
	}
}

// execResult is the outcome of one execution attempt.
type execResult uint8

const (
	execOK execResult = iota
	execBlocked
	// execVPFlush: a consumer found a wrongly value-predicted producer;
	// the machine pays a recovery flush.
	execVPFlush
	// execDepFlush: the load issued past a store it depended on (store-set
	// dependence misprediction); the machine pays a recovery flush.
	execDepFlush
)
