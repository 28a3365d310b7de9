package core

import (
	"fmt"
	"math"
	"math/bits"
)

// notExecuted is the readyAt sentinel for a slot that has not executed.
// Folding the executed flag into readyAt makes the three hottest
// predicates (resultReady, producerExecuted, advanceRetire's commit
// check) a single load and compare each.
const notExecuted = math.MaxInt64

// soaEngine is the epoch-model stepper (§3, §4.1): one engine per
// config, every engine a member of a gang, its hot per-slot state kept
// in parallel arrays (structure of arrays) sized by the window bound.
//
// The layout is driven by access pattern:
//
//   - "executed" is a packed bitmask (execBits), so the phase-1 revisit
//     is a trailing-zeros scan over a handful of complement words that
//     visits only the unexecuted slots, not a walk of the whole window;
//   - a slot's result availability and its retirement share one readyAt
//     epoch, the retire epoch: they differ only for a value-predicted
//     missing load. Under PerfectVP every executed value is consumable at
//     once, so consumers test readyAt against readyBy (one epoch ahead of
//     the retire test); under realistic value prediction a consumer also
//     accepts an executed producer whose meta word carries vpCut;
//   - execution is at most once per slot, so an access is counted when
//     its slot executes; the other per-slot facts are bitmasks: imissPend
//     for a fetch a full MSHR file deferred (or, in order, not yet
//     issued), and the once-per-load flush and serialize flags
//     depFlushed, depSerialized and vpPaid.
//
// Decoded instructions are never copied: the stepper reads the gang
// ring's meta words and links in place, holding entries down to its
// retire frontier via the ringConsumer claim. Per-engine perfect-feature
// and runahead rewrites are a single and-not with metaClear at each read.
type soaEngine struct {
	cfg  Config
	ring *gangRing

	// Cached ring columns and bounds: rmeta/rlnk/rmask shadow the ring's
	// slices (resynced on the rare ring growth via the rmask guard), and
	// rhead shadows ring.head (refreshed at step entry and after each
	// ensure) so the fetch fast path never chases the ring pointer.
	rmeta []metaWord
	rlnk  []Links
	rmask int64
	rhead int64

	// Per-slot SoA state, indexed by absolute instruction index & mask.
	// Out of order the capacity ringSize(cfg) is exact: phase 2
	// terminates the window before fetch whenever fetchEnd-retire would
	// reach the window bound (ROB, or MaxRunahead in runahead). In order
	// the live window has no such bound, so the arrays double when it
	// fills them (grow). readyAt is the epoch a slot can retire
	// (notExecuted until the slot executes); execBits mirrors "executed"
	// as a packed bitmask for the phase-1 complement scan only; imissPend
	// marks fetched slots whose I-miss has not issued yet.
	execBits  []uint64
	imissPend []uint64
	readyAt   []int64
	mask      int64

	// Once-per-load flags, nil unless the config needs them: depFlushed
	// marks a load whose store-set violation flush was charged,
	// depSerialized one whose needless serialization was counted, and
	// vpPaid a wrongly predicted missing load whose recovery flush a
	// consumer already paid. execute clears a slot's flags, so a reused
	// slot starts clean.
	depFlushed, depSerialized, vpPaid []uint64

	// sat lists pending instructions beyond fetchEnd whose I-miss was
	// already issued by a fetch-buffer scan ("fetch satisfied; arrives
	// with this epoch"). The stepper cannot clear IMiss in the shared
	// ring, so it remembers the indices instead. Entries are distinct
	// indices in (fetchEnd, fetchEnd+FetchBuffer], so the preallocated
	// capacity FetchBuffer is a hard bound.
	sat []int64

	fetchEnd int64
	retire   int64
	unexec   int64
	// limit is instLimit(cfg); the stream may also end earlier at the
	// ring's EOF.
	limit int64
	eof   bool
	done  bool

	epoch int64
	// readyBy is the latest readyAt a consumer accepts this epoch: the
	// epoch itself, or the next one under PerfectVP (vpSlack 1), where a
	// missing load's value is consumable in the epoch it issues.
	readyBy int64
	vpSlack int64
	ep      epochState
	res     Result

	// Hoisted configuration: the issue-policy booleans, window bounds and
	// resource caps the per-instruction loop tests. gateMask collects the
	// meta bits that send a slot through gate: serializing instructions
	// when they drain the pipeline, and the misses a finite MSHR file or
	// store buffer can hold back.
	metaClear          metaWord
	gateMask           metaWord
	serializing        bool
	branchesInOrder    bool
	loadsInOrder       bool
	loadsWaitStoreAddr bool
	rob                int64
	issueWindow        int64
	fetchBuffer        int64
	mshrs              int
	storeBuffer        int

	// The per-engine flags of the rarer kinds, each zero for a plain
	// config. vpCut is the meta bit that frees a missing load's consumers
	// at issue under realistic value prediction; vpFlush charges a wrong
	// prediction's recovery flush (conventional mode only). depViolation
	// is the meta bit of a load the store-set predictor failed to cover.
	// slowAll sends every fetched instruction through tryExecute: the
	// inlined fast path neither reports executions to an OnEpoch
	// observer nor knows value prediction.
	vpCut        metaWord
	vpFlush      bool
	depViolation metaWord
	slowAll      bool
}

func newSoAEngine(ring *gangRing, cfg Config) *soaEngine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := int64(ringSize(cfg))
	e := &soaEngine{
		cfg:       cfg,
		ring:      ring,
		execBits:  make([]uint64, (n+63)/64),
		imissPend: make([]uint64, (n+63)/64),
		readyAt:   make([]int64, n),
		mask:      n - 1,
		sat:       make([]int64, 0, cfg.FetchBuffer),
		limit:     instLimit(cfg),

		metaClear:          metaClearFor(cfg),
		serializing:        cfg.Issue.Serializing(),
		branchesInOrder:    cfg.Issue.BranchesInOrder(),
		loadsInOrder:       cfg.Issue.LoadsInOrder(),
		loadsWaitStoreAddr: cfg.Issue.LoadsWaitStoreAddr(),
		rob:                int64(cfg.ROB),
		issueWindow:        int64(cfg.IssueWindow),
		fetchBuffer:        int64(cfg.FetchBuffer),
		mshrs:              cfg.MSHRs,
		storeBuffer:        cfg.StoreBuffer,
	}
	if cfg.Runahead && cfg.Mode == OutOfOrder {
		// Runahead speculates MaxRunahead past the retire frontier with no
		// issue-window bound, and its stores bypass the store buffer. It
		// also lifts serialization, store forwarding, the load-ordering
		// policies and non-oracle disambiguation: metaClearFor erases the
		// class bits those key on, so only the branch order needs lifting
		// here.
		e.rob, e.issueWindow = int64(cfg.MaxRunahead), math.MaxInt64
		e.storeBuffer = 0
		e.branchesInOrder = false
	}
	switch {
	case cfg.PerfectVP:
		e.vpSlack = 1
	case cfg.ValuePredict:
		e.vpCut = metaVPCorrect
		e.vpFlush = !cfg.Runahead && cfg.Mode == OutOfOrder
	}
	if cfg.Disamb == DisambStoreSets {
		e.depViolation = metaDepViolation
	}
	if cfg.Disamb != DisambOracle {
		e.depFlushed = make([]uint64, (n+63)/64)
		e.depSerialized = make([]uint64, (n+63)/64)
	}
	if e.vpFlush {
		e.vpPaid = make([]uint64, (n+63)/64)
	}
	e.slowAll = cfg.OnEpoch != nil || e.vpCut != 0
	if e.serializing {
		e.gateMask |= metaSerializing
	}
	if e.mshrs > 0 {
		e.gateMask |= metaIMiss | metaMiss
	}
	if e.storeBuffer > 0 {
		e.gateMask |= metaSMiss
	}
	for i := range e.readyAt {
		e.readyAt[i] = notExecuted
	}
	e.syncRing()
	return e
}

// slotBit returns slot s's word and mask in a per-slot bitmask.
func slotBit(s int64) (int64, uint64) { return s >> 6, 1 << (uint64(s) & 63) }

// syncRing refreshes the cached ring columns and head.
func (e *soaEngine) syncRing() {
	e.rmeta, e.rlnk, e.rmask = e.ring.meta, e.ring.lnk, e.ring.mask
	e.rhead = e.ring.head
}

// ensure extends the ring through instruction j, keeping the cached
// columns coherent across growth. Callers check j < e.rhead first.
func (e *soaEngine) ensure(j int64) bool {
	if !e.ring.ensure(j) {
		return false
	}
	if e.rmask != e.ring.mask {
		e.rmeta, e.rlnk, e.rmask = e.ring.meta, e.ring.lnk, e.ring.mask
	}
	e.rhead = e.ring.head
	return true
}

// metaAt returns instruction j's meta word with this engine's perfect-
// feature rewrites applied. Valid for any decoded j >= retire.
func (e *soaEngine) metaAt(j int64) metaWord {
	return e.rmeta[j&e.rmask] &^ e.metaClear
}

func (e *soaEngine) executed(j int64) bool {
	return e.readyAt[j&e.mask] != notExecuted
}

// resultReady reports whether producer p's result can be consumed in the
// current epoch (notExecuted > any epoch, so one compare covers both the
// executed and available checks). Under realistic value prediction an
// executed, correctly predicted missing load is consumable too.
func (e *soaEngine) resultReady(p int64) bool {
	if p < e.retire { // covers p < 0: retire is never negative
		return true
	}
	r := e.readyAt[p&e.mask]
	return r <= e.readyBy || e.vpCut != 0 && r != notExecuted && e.rmeta[p&e.rmask]&e.vpCut != 0
}

// producerExecuted reports whether slot p has executed (issued).
func (e *soaEngine) producerExecuted(p int64) bool {
	if p < e.retire {
		return true
	}
	return e.readyAt[p&e.mask] != notExecuted
}

// advanceRetire moves the commit frontier past completed work.
func (e *soaEngine) advanceRetire() {
	j := e.retire
	for j < e.fetchEnd && e.readyAt[j&e.mask] <= e.epoch {
		j++
	}
	e.retire = j
}

// execute marks slot j executed in the current epoch, counting its
// off-chip access if it has one. A missing load's data returns at the
// end of the epoch, so it retires in the next one.
func (e *soaEngine) execute(j int64, m metaWord, ep *epochState) {
	s := j & e.mask
	w, b := slotBit(s)
	e.execBits[w] |= b
	e.unexec--
	ready := e.epoch
	if m&metaMiss != 0 {
		kind := accD
		if m&metaPMiss != 0 {
			kind = accP
		}
		ep.record(j, kind, e.cfg.OnEpoch != nil)
		if m&metaDMiss != 0 {
			// Data returns at the end of this epoch.
			ready = e.epoch + 1
		}
	}
	if m&metaSMiss != 0 {
		ep.sAccesses++
	}
	e.readyAt[s] = ready
	if e.depFlushed != nil {
		e.depFlushed[w] &^= b
		e.depSerialized[w] &^= b
	}
	if e.vpPaid != nil {
		e.vpPaid[w] &^= b
	}
	if e.cfg.OnEpoch != nil {
		ep.epoch.Executed = append(ep.epoch.Executed, j)
	}
}

// gate applies tryExecute's rare leading checks to a slot whose meta
// word hits gateMask, in order: a deferred I-fetch issues first, a
// draining serializing instruction waits for the commit frontier, and a
// full MSHR file or store buffer holds a new miss back.
// done reports that the attempt ends here with result r.
func (e *soaEngine) gate(j int64, m metaWord, ep *epochState) (r execResult, done bool) {
	w, b := slotBit(j & e.mask)
	if m&metaIMiss != 0 && e.imissPend[w]&b != 0 {
		if ep.accesses >= e.mshrs {
			ep.block(j, LimMSHR)
			return execBlocked, true
		}
		e.imissPend[w] &^= b
		ep.record(j, accI, e.cfg.OnEpoch != nil)
		return execBlocked, true
	}
	if e.serializing && m&metaSerializing != 0 {
		e.advanceRetire()
		if e.retire != j {
			return execBlocked, true
		}
		e.execute(j, m, ep)
		return execOK, true
	}
	if e.mshrs > 0 && m&metaMiss != 0 && ep.accesses >= e.mshrs {
		ep.block(j, LimMSHR)
		return execBlocked, true
	}
	if e.storeBuffer > 0 && m&metaSMiss != 0 && ep.sAccesses >= e.storeBuffer {
		ep.block(j, LimStoreBuf)
		return execBlocked, true
	}
	return execBlocked, false
}

// tryExecute attempts to execute slot j in the current epoch under the
// out-of-order issue policies: the gate, operands (with a wrong value
// prediction's recovery flush), store forwarding (with an uncovered
// store-set violation's flush), non-oracle serialization, branch order
// and the load-ordering policies. Runahead engines never see the
// load-like or serializing class bits, so those rules lift for them.
func (e *soaEngine) tryExecute(j int64, m metaWord, ep *epochState) execResult {
	if m&e.gateMask != 0 {
		if r, done := e.gate(j, m, ep); done {
			return r
		}
	}

	ln := &e.rlnk[j&e.rmask]
	if !e.resultReady(ln.Prod1) || !e.resultReady(ln.Prod2) {
		// A consumer of a wrongly value-predicted missing load costs a
		// recovery flush in conventional mode.
		if e.vpFlush && e.payVPFlush(ln) {
			return execVPFlush
		}
		return execBlocked
	}

	// True memory dependence: a load must wait for the latest earlier
	// same-address store to execute (forwarding). Under store-set
	// prediction a load the predictor failed to cover does not wait — it
	// issues, reads stale data, and pays a recovery flush once.
	if m&metaLoadLike != 0 && ln.MemProd >= 0 && !e.producerExecuted(ln.MemProd) {
		if m&e.depViolation != 0 {
			w, b := slotBit(j & e.mask)
			if e.depFlushed[w]&b == 0 {
				e.depFlushed[w] |= b
				return execDepFlush
			}
		}
		return execBlocked
	}

	if m&metaLoadLike != 0 && e.cfg.Disamb != DisambOracle && e.disambBlocked(j, m, ln, ep) {
		return execBlocked
	}

	if m&metaBranch != 0 && e.branchesInOrder && !e.producerExecuted(ln.PrevBranch) {
		return execBlocked
	}

	if m&metaLoadLike != 0 {
		if e.loadsInOrder && !e.producerExecuted(ln.PrevMem) {
			if m&metaDMiss != 0 {
				if ep.firstUnresolvedStore >= 0 && ep.firstUnresolvedStore < j {
					ep.block(j, LimDepStore)
				} else {
					ep.block(j, LimMissingLoad)
				}
			}
			return execBlocked
		}
		if e.loadsWaitStoreAddr &&
			ep.firstUnresolvedStore >= 0 && ep.firstUnresolvedStore < j {
			if m&metaDMiss != 0 {
				ep.block(j, LimDepStore)
			}
			return execBlocked
		}
	}

	e.execute(j, m, ep)
	return execOK
}

// payVPFlush finds a producer of the slot that is a wrongly predicted
// missing load still outstanding this epoch, whose recovery flush no
// consumer has paid yet; it marks the flush paid and reports whether
// one was found.
func (e *soaEngine) payVPFlush(ln *Links) bool {
	for _, p := range [2]int64{ln.Prod1, ln.Prod2} {
		if p < e.retire {
			continue
		}
		s := p & e.mask
		w, b := slotBit(s)
		if e.readyAt[s] == e.epoch+1 && e.rmeta[p&e.rmask]&metaVPWrong != 0 && e.vpPaid[w]&b == 0 {
			e.vpPaid[w] |= b
			return true
		}
	}
	return false
}

// disambBlocked applies the non-oracle serialization costs: a
// predicted-but-false dependence (store sets) holds the load behind the
// last fetched store; conservative disambiguation holds it behind every
// unexecuted earlier store. Both are counted once per load as a needless
// serialize, and a blocked missing load charges the epoch's Figure-5
// category to the dependent-store condition.
func (e *soaEngine) disambBlocked(j int64, m metaWord, ln *Links, ep *epochState) bool {
	if e.cfg.Disamb == DisambStoreSets {
		if m&metaDepFalse == 0 || e.producerExecuted(ln.PrevStore) {
			return false
		}
	} else if ep.firstUnexecStore < 0 || ep.firstUnexecStore >= j {
		return false
	}
	w, b := slotBit(j & e.mask)
	if e.depSerialized[w]&b == 0 {
		e.depSerialized[w] |= b
		e.res.DepSerializes++
	}
	if m&metaDMiss != 0 {
		ep.block(j, LimDepStore)
	}
	return true
}

// noteUnresolvedStore records the first still-unexecuted store in scan
// order whose address is not yet resolved, and — under conservative
// disambiguation — the first still-unexecuted store. Callers only reach
// it for slots that remained unexecuted after their execution attempt.
func (e *soaEngine) noteUnresolvedStore(j int64, m metaWord, ep *epochState) {
	if m&metaMemWrite == 0 {
		return
	}
	if e.cfg.Disamb == DisambConservative && ep.firstUnexecStore < 0 {
		ep.firstUnexecStore = j
	}
	if ep.firstUnresolvedStore < 0 && !e.resultReady(e.rlnk[j&e.rmask].Prod1) {
		ep.firstUnresolvedStore = j
	}
}

// revisit is phase 1 of the epoch: retry every unexecuted slot in
// [retire, fetchEnd) in program order. The unexecuted set is walked via
// the complement of execBits, one trailing-zeros scan per 64-slot word —
// executing slot j only ever flips j's own bit, so a per-word snapshot
// taken on entry stays valid for the rest of the word.
func (e *soaEngine) revisit(ep *epochState) {
	lo, hi := e.retire, e.fetchEnd
	if lo >= hi {
		return
	}
	capSlots := e.mask + 1
	s0 := lo & e.mask
	// The live window occupies at most two contiguous slot ranges:
	// [s0, min(cap, s0+n)) and, on wrap, [0, remainder).
	first := hi - lo
	if s0+first > capSlots {
		first = capSlots - s0
	}
	e.revisitRange(s0, s0+first, lo, ep)
	if rest := (hi - lo) - first; rest > 0 {
		e.revisitRange(0, rest, lo+first, ep)
	}
}

// revisitRange scans the contiguous slot range [a, b) whose slot a holds
// absolute instruction base. A flush found here only marks its flag:
// phase 1 never ends the window.
func (e *soaEngine) revisitRange(a, b, base int64, ep *epochState) {
	for w := a >> 6; w<<6 < b; w++ {
		word := ^e.execBits[w] // 1 = unexecuted
		wbase := w << 6
		if wbase < a {
			word &= ^uint64(0) << (uint64(a) & 63)
		}
		if b-wbase < 64 {
			word &= (1 << (uint64(b-wbase) & 63)) - 1
		}
		for word != 0 {
			s := wbase + int64(bits.TrailingZeros64(word))
			word &= word - 1
			j := base + (s - a)
			m := e.metaAt(j)
			if e.tryExecute(j, m, ep) != execOK {
				e.noteUnresolvedStore(j, m, ep)
			}
		}
	}
}

// consumeSat pops j from the satisfied-I-miss list, reporting whether a
// fetch-buffer scan already issued this instruction's I-miss.
func (e *soaEngine) consumeSat(j int64) bool {
	for i, jj := range e.sat {
		if jj == j {
			e.sat[i] = e.sat[len(e.sat)-1]
			e.sat = e.sat[:len(e.sat)-1]
			return true
		}
	}
	return false
}

// fetchBufferScan models the fetch buffer after a Maxwin termination:
// the front end keeps fetching up to FetchBuffer instructions; an I-miss
// found there is issued in (and overlaps with) the current epoch. The
// scan stops at a mispredicted branch — beyond it the front end is on
// the wrong path.
func (e *soaEngine) fetchBufferScan(ep *epochState) {
	for k := int64(0); k < e.fetchBuffer; k++ {
		jj := e.fetchEnd + k
		if jj >= e.limit || (jj >= e.rhead && !e.ensure(jj)) {
			return
		}
		m := e.metaAt(jj)
		if m&metaBranch != 0 && m&metaMispred != 0 {
			return
		}
		if m&metaIMiss != 0 && !e.satisfied(jj) {
			if e.mshrs > 0 && ep.accesses >= e.mshrs {
				return
			}
			ep.record(jj, accI, e.cfg.OnEpoch != nil)
			e.sat = append(e.sat, jj)
			return
		}
	}
}

func (e *soaEngine) satisfied(jj int64) bool {
	for _, s := range e.sat {
		if s == jj {
			return true
		}
	}
	return false
}

// skipQuiet crosses a quiet stretch from an empty window at j, where
// fetchEnd == retire == j. With everything earlier retired, an
// instruction that does not go off chip finds its register, store and
// same-class predecessors retired, passes every check (a serializing
// drain included), executes this epoch and retires at once, leaving the
// window empty again. So fetchEnd and retire jump together to the next
// instruction whose raw meta word goes off chip, writing no per-slot
// state: a skipped slot is below retire from then on, and fetch rewrites
// a slot before anything reads it. The jump stops at limit and at the end
// of the stream; it returns the new fetchEnd.
func (e *soaEngine) skipQuiet(j int64) int64 {
	for j < e.limit {
		if j >= e.rhead {
			// Everything decoded is quiet. Retire it, so the ring's tail
			// can pass it, and decode one more.
			e.fetchEnd, e.retire = j, j
			if !e.ensure(j) {
				break
			}
		}
		hi := min(e.rhead, e.limit)
		if j = e.ring.nextStop(j, hi); j < hi {
			break
		}
	}
	e.fetchEnd, e.retire = j, j
	return j
}

// runEpoch runs phases 1 and 2 of one out-of-order or runahead epoch.
func (e *soaEngine) runEpoch(ep *epochState) {
	e.advanceRetire()
	e.revisit(ep)
	e.advanceRetire()

	// An unexecuted fetch blocker at the window tail stalls fetch for the
	// whole epoch: the front end sits on a wrong path (unresolvable
	// mispredicted branch) or a drained pipeline (serializing
	// instruction).
	if e.fetchEnd > e.retire && !e.executed(e.fetchEnd-1) {
		tm := e.metaAt(e.fetchEnd - 1)
		if tm&metaBranch != 0 && tm&metaMispred != 0 {
			ep.terminate(e.fetchEnd-1, LimMispredBr)
			return
		}
		if e.serializing && tm&metaSerializing != 0 {
			ep.terminate(e.fetchEnd-1, LimSerialize)
			return
		}
	}

	// Phase 2: fetch and execute until a window termination condition.
	// The loop body inlines the fetch and the common case — a plain
	// instruction with no policy-relevant flags either executes (both
	// producers ready) or parks — with ring columns and bounds hoisted
	// into locals. The model advances the commit frontier before every
	// fetch, but within phase 2 that is a no-op unless the slot at the
	// commit frontier itself just executed: only the newly fetched
	// slot ever executes here (older slots are retried in phase 1 only),
	// and an executed slot's readyAt never changes — so retire is updated
	// in place on the retire==j executions instead. An empty window
	// crosses a quiet stretch in one skipQuiet, except under an observer,
	// which hears every executed index.
	const slowMask = metaSerializing | metaLoadLike | metaBranch |
		metaMiss | metaSMiss | metaMemWrite | metaMispred
	rmeta, rlnk, rmask := e.rmeta, e.rlnk, e.rmask
	readyAt, execBits, mask := e.readyAt, e.execBits, e.mask
	epoch, readyBy, clear := e.epoch, e.readyBy, e.metaClear
	fast, skip := !e.slowAll, e.cfg.OnEpoch == nil
	for {
		j := e.fetchEnd
		if j-e.retire >= e.rob || e.unexec >= e.issueWindow {
			if e.cfg.Runahead {
				ep.terminate(j, LimRunahead)
				return
			}
			ep.terminate(j, LimMaxwin)
			e.fetchBufferScan(ep)
			return
		}

		if skip && e.retire == j {
			j = e.skipQuiet(j)
			rmeta, rlnk, rmask = e.rmeta, e.rlnk, e.rmask
		}
		if e.eof || j >= e.limit {
			e.eof = true
			ep.terminate(j, LimEnd)
			return
		}
		if j >= e.rhead {
			if !e.ensure(j) {
				e.eof = true
				ep.terminate(j, LimEnd)
				return
			}
			rmeta, rlnk, rmask = e.rmeta, e.rlnk, e.rmask
		}
		m := rmeta[j&rmask] &^ clear
		s := j & mask
		bit := uint64(1) << (uint64(s) & 63)

		// A missing instruction fetch blocks the front end; the access
		// itself overlaps with this epoch — unless a fetch-buffer scan
		// already issued it, or a full MSHR file defers it to a revisit.
		if m&metaIMiss != 0 {
			if len(e.sat) > 0 && e.consumeSat(j) {
				m &^= metaIMiss
			} else {
				execBits[s>>6] &^= bit
				readyAt[s] = notExecuted
				e.fetchEnd = j + 1
				e.unexec++
				if e.mshrs > 0 && ep.accesses >= e.mshrs {
					e.imissPend[s>>6] |= bit
					ep.terminate(j, LimMSHR)
					return
				}
				lim := LimImissEnd
				if ep.accesses == 0 {
					lim = LimImissStart
				}
				ep.record(j, accI, e.cfg.OnEpoch != nil)
				ep.terminate(j, lim)
				return
			}
		}

		if fast && m&slowMask == 0 {
			e.fetchEnd = j + 1
			ln := &rlnk[j&rmask]
			p1, p2 := ln.Prod1, ln.Prod2
			if (p1 < e.retire || readyAt[p1&mask] <= readyBy) &&
				(p2 < e.retire || readyAt[p2&mask] <= readyBy) {
				execBits[s>>6] |= bit
				readyAt[s] = epoch
				if e.retire == j {
					e.retire = j + 1
				}
			} else {
				execBits[s>>6] &^= bit
				readyAt[s] = notExecuted
				e.unexec++
			}
			continue
		}

		// Slow path: the slot is being reused, clear the previous
		// occupant's state before the full policy ladder.
		execBits[s>>6] &^= bit
		readyAt[s] = notExecuted
		e.fetchEnd = j + 1
		e.unexec++
		switch e.tryExecute(j, m, ep) {
		case execOK:
			if e.retire == j && readyAt[s] <= epoch {
				e.retire = j + 1
			}
		case execBlocked:
			if m&metaBranch != 0 && m&metaMispred != 0 {
				ep.terminate(j, LimMispredBr)
				return
			}
			if e.serializing && m&metaSerializing != 0 {
				ep.terminate(j, LimSerialize)
				return
			}
			e.noteUnresolvedStore(j, m, ep)
		case execVPFlush:
			ep.terminate(j, LimVPMisp)
			return
		case execDepFlush:
			e.res.DepMispredicts++
			ep.terminate(j, LimDepMispred)
			return
		}
	}
}

// fetchInOrder brings instruction j == fetchEnd into an in-order window,
// doubling the per-slot state when the live window fills it. It returns
// false at the end of the stream.
func (e *soaEngine) fetchInOrder(j int64) bool {
	if e.eof || j >= e.limit || (j >= e.rhead && !e.ensure(j)) {
		e.eof = true
		return false
	}
	if j-e.retire > e.mask {
		e.grow()
	}
	s := j & e.mask
	w, b := slotBit(s)
	e.execBits[w] &^= b
	e.readyAt[s] = notExecuted
	if e.metaAt(j)&metaIMiss != 0 {
		e.imissPend[w] |= b
	}
	e.fetchEnd = j + 1
	e.unexec++
	return true
}

// grow doubles the per-slot state, re-placing the live slots. Only the
// in-order epoch grows, and it never needs the once-per-load flags.
func (e *soaEngine) grow() {
	n := 2 * (e.mask + 1)
	readyAt := make([]int64, n)
	execBits := make([]uint64, (n+63)/64)
	imissPend := make([]uint64, (n+63)/64)
	mask := n - 1
	for j := e.retire; j < e.fetchEnd; j++ {
		s, t := j&e.mask, j&mask
		readyAt[t] = e.readyAt[s]
		sw, sb := slotBit(s)
		tw, tb := slotBit(t)
		if e.execBits[sw]&sb != 0 {
			execBits[tw] |= tb
		}
		if e.imissPend[sw]&sb != 0 {
			imissPend[tw] |= tb
		}
	}
	e.readyAt, e.execBits, e.imissPend, e.mask = readyAt, execBits, imissPend, mask
}

// runInOrder runs one epoch of the in-order models (§3.3).
//
// In-order issue admits at most one stalled instruction: the window tail.
// Stall-on-miss terminates the window at a missing load itself (after
// issuing its access); stall-on-use terminates at the first instruction
// whose operands depend on an outstanding miss. Missing prefetches and an
// in-flight missing load may overlap in both disciplines; serializing
// instructions and I-misses terminate windows exactly as out of order.
//
// An empty window crosses a quiet stretch in one skipQuiet while the
// epoch has issued no access: a serializing instruction then passes, so
// every quiet instruction executes and retires at once. After an access
// a serializing instruction ends the epoch, so the skip waits for the
// next one. Under an observer, which hears every executed index, fetch
// stays one instruction at a time.
func (e *soaEngine) runInOrder(ep *epochState) {
	e.advanceRetire()
	skip := e.cfg.OnEpoch == nil
	for {
		// Revisit the stalled tail instruction, if any; otherwise fetch.
		j := e.fetchEnd
		if t := j - 1; t >= e.retire && !e.executed(t) {
			j = t
		} else {
			if skip && e.retire == j && ep.accesses == 0 {
				j = e.skipQuiet(j)
			}
			if !e.fetchInOrder(j) {
				ep.terminate(j, LimEnd)
				return
			}
		}
		m := e.metaAt(j)
		if w, b := slotBit(j & e.mask); m&metaIMiss != 0 && e.imissPend[w]&b != 0 {
			if e.mshrs > 0 && ep.accesses >= e.mshrs {
				ep.terminate(j, LimMSHR)
				return
			}
			e.imissPend[w] &^= b
			lim := LimImissEnd
			if ep.accesses == 0 {
				lim = LimImissStart
			}
			ep.record(j, accI, e.cfg.OnEpoch != nil)
			ep.terminate(j, lim)
			return
		}

		// Operand or forwarding stall: only outstanding misses can cause
		// one in order, so this is the stall-on-use window termination.
		ln := &e.rlnk[j&e.rmask]
		if !e.resultReady(ln.Prod1) || !e.resultReady(ln.Prod2) ||
			(ln.MemProd >= 0 && !e.producerExecuted(ln.MemProd)) {
			lim := LimMissingLoad
			if m&metaBranch != 0 && m&metaMispred != 0 {
				lim = LimMispredBr
			}
			ep.terminate(j, lim)
			return
		}

		if e.mshrs > 0 && m&metaMiss != 0 && ep.accesses >= e.mshrs {
			ep.terminate(j, LimMSHR)
			return
		}
		if e.storeBuffer > 0 && m&metaSMiss != 0 && ep.sAccesses >= e.storeBuffer {
			ep.terminate(j, LimStoreBuf)
			return
		}

		if m&metaSerializing != 0 {
			e.advanceRetire()
			if ep.accesses > 0 || e.retire < j {
				ep.terminate(j, LimSerialize)
				return
			}
		}

		e.execute(j, m, ep)
		e.advanceRetire()

		if m&metaDMiss != 0 && e.cfg.Mode == InOrderStallOnMiss {
			// Issue stalls as soon as the miss is detected.
			ep.terminate(j, LimMissingLoad)
			return
		}
	}
}

// step runs one epoch; it returns false when the stream is exhausted and
// no work remains. An observer hears only epochs with accesses.
func (e *soaEngine) step() bool {
	if e.eof && e.retire >= e.fetchEnd {
		return false
	}
	// Other gang members may have advanced (or grown) the ring between
	// this engine's steps; re-anchor the cached columns once per epoch.
	e.syncRing()
	e.epoch++
	e.readyBy = e.epoch + e.vpSlack
	before := e.fetchEnd
	unexecBefore := e.unexec
	e.ep = epochState{firstUnresolvedStore: -1, firstUnexecStore: -1, blockIdx: -1}
	ep := &e.ep

	if e.cfg.Mode != OutOfOrder {
		e.runInOrder(ep)
	} else {
		e.runEpoch(ep)
	}

	if ep.sAccesses > 0 {
		e.res.StoreEpochs++
		e.res.SAccesses += uint64(ep.sAccesses)
	}
	if ep.accesses > 0 {
		e.res.Epochs++
		e.res.Accesses += uint64(ep.accesses)
		e.res.DAccesses += uint64(ep.dAccesses)
		e.res.PAccesses += uint64(ep.pAccesses)
		e.res.IAccesses += uint64(ep.iAccesses)
		lim := ep.limiter
		if ep.blockIdx >= 0 && ep.blockIdx <= ep.termIdx {
			lim = ep.blockLim
		}
		e.res.Limiters[lim]++
		if e.cfg.OnEpoch != nil {
			ep.epoch.Seq = e.res.Epochs - 1
			ep.epoch.Accesses = ep.accesses
			ep.epoch.DAccesses = ep.dAccesses
			ep.epoch.PAccesses = ep.pAccesses
			ep.epoch.IAccesses = ep.iAccesses
			ep.epoch.Limiter = lim
			e.cfg.OnEpoch(ep.epoch)
		}
	}

	// Progress guard: an epoch must fetch, execute or access something.
	if e.fetchEnd == before && e.unexec == unexecBefore && ep.accesses == 0 && !e.eof {
		panic(fmt.Sprintf("core: epoch %d made no progress at instruction %d", e.epoch, e.fetchEnd))
	}
	return true
}

// finish seals and returns the accumulated result.
func (e *soaEngine) finish() Result {
	e.res.Config = e.cfg
	e.res.Instructions = e.fetchEnd
	return e.res
}
