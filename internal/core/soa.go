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

// soaEngine is the gang's structure-of-arrays stepper: the out-of-order
// epoch model (SoAEligible configs, runahead, finite MSHR files and store
// buffers and perfect value prediction included) transposed so the hot
// per-slot state lives in parallel arrays instead of the scalar engine's
// 80-byte slotState ring.
//
// The transposition is driven by access pattern:
//
//   - executed becomes a packed bitmask (execBits), so the phase-1
//     revisit — which the scalar engine performs as a full window walk
//     over pointer-rich structs every epoch — collapses to a
//     trailing-zeros scan over a handful of complement words that visits
//     only the genuinely unexecuted slots;
//   - avail and complete collapse into one readyAt epoch per slot, the
//     retire epoch: they differ only for a value-predicted missing load,
//     and under PerfectVP every executed value is consumable at once, so
//     consumers test readyAt against readyBy (one epoch ahead of the
//     retire test); realistic value prediction is scalar-fallback
//     territory;
//   - counted and countedS vanish (execute runs at most once per slot),
//     as do the vp flags; imissDone survives only as the imissPend
//     bitmask, set for the rare fetch a full MSHR file deferred.
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
	rlnk  []links
	rmask int64
	rhead int64

	// Per-slot SoA state, indexed by absolute instruction index & mask.
	// The capacity ringSize(cfg) is exact: phase 2 terminates the window
	// before fetch whenever fetchEnd-retire would reach the window bound
	// (ROB, or MaxRunahead in runahead), so unlike the scalar ring this
	// one never grows. readyAt is the epoch a slot can retire (notExecuted
	// until the slot executes); execBits mirrors "executed" as a packed
	// bitmask for the phase-1 complement scan only; imissPend marks
	// fetched slots whose I-miss a full MSHR file deferred (the scalar
	// imissDone == false), which must issue that fetch before they run.
	execBits  []uint64
	imissPend []uint64
	readyAt   []int64
	mask      int64

	// sat lists pending instructions beyond fetchEnd whose I-miss was
	// already issued by a fetch-buffer scan ("fetch satisfied; arrives
	// with this epoch"). The scalar engine records this by clearing IMiss
	// on its private pending copy; the SoA stepper cannot mutate the
	// shared ring, so it remembers the indices instead. Entries are
	// distinct indices in (fetchEnd, fetchEnd+FetchBuffer], so the
	// preallocated capacity FetchBuffer is a hard bound.
	sat []int64

	fetchEnd int64
	retire   int64
	unexec   int64
	// limit is MaxInstructions as an absolute index bound (MaxInt64 when
	// unbounded); the stream may also end earlier at the ring's EOF.
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
}

// lowWater / finished implement ringConsumer: the engine reads ring
// entries in place for its whole live window [retire, fetchEnd) plus the
// fetch-buffer lookahead, so the claim is the retire frontier.
func (e *soaEngine) lowWater() int64 { return e.retire }
func (e *soaEngine) finished() bool  { return e.done }

func newSoAEngine(ring *gangRing, cfg Config) *soaEngine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if !SoAEligible(cfg) {
		panic(fmt.Sprintf("core: config %s is not SoA-eligible", cfg.Name()))
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
		limit:     math.MaxInt64,

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
	if cfg.Runahead {
		// Runahead speculates MaxRunahead past the retire frontier with no
		// issue-window bound, and its stores bypass the store buffer. It
		// also lifts serialization, store forwarding and the load-ordering
		// policies: metaClearFor erases the class bits those key on, so
		// only the branch order needs lifting here.
		e.rob, e.issueWindow = int64(cfg.MaxRunahead), math.MaxInt64
		e.storeBuffer = 0
		e.branchesInOrder = false
	}
	if cfg.PerfectVP {
		e.vpSlack = 1
	}
	if e.serializing {
		e.gateMask |= metaSerializing
	}
	if e.mshrs > 0 {
		e.gateMask |= metaIMiss | metaMiss
	}
	if e.storeBuffer > 0 {
		e.gateMask |= metaSMiss
	}
	if cfg.MaxInstructions > 0 {
		e.limit = cfg.MaxInstructions
	}
	for i := range e.readyAt {
		e.readyAt[i] = notExecuted
	}
	e.syncRing()
	return e
}

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
// current epoch (scalar resultReady, on SoA state: notExecuted > any
// epoch, so one compare covers both the executed and available checks).
func (e *soaEngine) resultReady(p int64) bool {
	if p < e.retire { // covers p < 0: retire is never negative
		return true
	}
	return e.readyAt[p&e.mask] <= e.readyBy
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
// off-chip access if it has one (scalar execute, specialized: counted
// and countedS are implied by the at-most-once execution, and readyAt is
// the scalar complete).
func (e *soaEngine) execute(j int64, m metaWord, ep *epochState) {
	s := j & e.mask
	e.execBits[s>>6] |= 1 << (uint64(s) & 63)
	e.unexec--
	ready := e.epoch
	if m&metaMiss != 0 {
		kind := accD
		if m&metaPMiss != 0 {
			kind = accP
		}
		ep.record(j, kind, false)
		if m&metaDMiss != 0 {
			// Data returns at the end of this epoch.
			ready = e.epoch + 1
		}
	}
	if m&metaSMiss != 0 {
		ep.sAccesses++
	}
	e.readyAt[s] = ready
}

// gate applies scalar tryExecute's rare leading checks to a slot whose
// meta word hits gateMask, in the scalar order: a deferred I-fetch
// issues first, a draining serializing instruction waits for the commit
// frontier, and a full MSHR file or store buffer holds a new miss back.
// done reports that the attempt ends here with result r.
func (e *soaEngine) gate(j int64, m metaWord, ep *epochState) (r execResult, done bool) {
	s := j & e.mask
	if m&metaIMiss != 0 && e.imissPend[s>>6]&(1<<(uint64(s)&63)) != 0 {
		if ep.accesses >= e.mshrs {
			ep.block(j, LimMSHR)
			return execBlocked, true
		}
		e.imissPend[s>>6] &^= 1 << (uint64(s) & 63)
		ep.record(j, accI, false)
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

// tryExecute attempts to execute slot j in the current epoch (scalar
// tryExecute restricted to the SoA-eligible subset: no value prediction
// and oracle disambiguation, so the only outcomes are execOK and
// execBlocked).
func (e *soaEngine) tryExecute(j int64, m metaWord, ep *epochState) execResult {
	if m&e.gateMask != 0 {
		if r, done := e.gate(j, m, ep); done {
			return r
		}
	}

	ln := &e.rlnk[j&e.rmask]
	if !e.resultReady(ln.prod1) || !e.resultReady(ln.prod2) {
		return execBlocked
	}

	// True memory dependence: a load must wait for the latest earlier
	// same-address store to execute (forwarding).
	if m&metaLoadLike != 0 && ln.memProd >= 0 && !e.producerExecuted(ln.memProd) {
		return execBlocked
	}

	if m&metaBranch != 0 && e.branchesInOrder && !e.producerExecuted(ln.prevBranch) {
		return execBlocked
	}

	if m&metaLoadLike != 0 {
		if e.loadsInOrder && !e.producerExecuted(ln.prevMem) {
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

// noteUnresolvedStore records the first still-unexecuted store in scan
// order whose address is not yet resolved. Callers only reach it for
// slots that remained unexecuted after their execution attempt.
func (e *soaEngine) noteUnresolvedStore(j int64, m metaWord, ep *epochState) {
	if m&metaMemWrite == 0 || ep.firstUnresolvedStore >= 0 {
		return
	}
	if !e.resultReady(e.rlnk[j&e.rmask].prod1) {
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
// absolute instruction base.
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
			ep.record(jj, accI, false)
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

// runEpoch runs phases 1 and 2 of one out-of-order or runahead epoch
// (scalar runEpochOoO).
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
	// into locals. The scalar model re-runs advanceRetire every
	// iteration, but within phase 2 that is a no-op unless the slot at
	// the commit frontier itself just executed: only the newly fetched
	// slot ever executes here (older slots are retried in phase 1 only),
	// and an executed slot's readyAt never changes — so retire is updated
	// in place on the retire==j executions instead.
	const slowMask = metaSerializing | metaLoadLike | metaBranch |
		metaMiss | metaSMiss | metaMemWrite | metaMispred
	rmeta, rlnk, rmask := e.rmeta, e.rlnk, e.rmask
	readyAt, execBits, mask := e.readyAt, e.execBits, e.mask
	epoch, readyBy, clear := e.epoch, e.readyBy, e.metaClear
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
				ep.record(j, accI, false)
				ep.terminate(j, lim)
				return
			}
		}

		if m&slowMask == 0 {
			e.fetchEnd = j + 1
			ln := &rlnk[j&rmask]
			p1, p2 := ln.prod1, ln.prod2
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
		if e.tryExecute(j, m, ep) == execBlocked {
			if m&metaBranch != 0 && m&metaMispred != 0 {
				ep.terminate(j, LimMispredBr)
				return
			}
			if e.serializing && m&metaSerializing != 0 {
				ep.terminate(j, LimSerialize)
				return
			}
			e.noteUnresolvedStore(j, m, ep)
		} else if e.retire == j && readyAt[s] <= epoch {
			e.retire = j + 1
		}
	}
}

// step runs one epoch; it returns false when the stream is exhausted and
// no work remains. It mirrors Engine.step exactly (the OnEpoch branch is
// absent because observers are SoA-ineligible).
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
	e.ep = epochState{firstUnresolvedStore: -1, blockIdx: -1}
	ep := &e.ep

	e.runEpoch(ep)

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
	}

	// Progress guard: an epoch must fetch, execute or access something.
	if e.fetchEnd == before && e.unexec == unexecBefore && ep.accesses == 0 && !e.eof {
		panic(fmt.Sprintf("core: SoA epoch %d made no progress at instruction %d", e.epoch, e.fetchEnd))
	}
	return true
}

// finish seals and returns the accumulated result.
func (e *soaEngine) finish() Result {
	e.res.Config = e.cfg
	e.res.Instructions = e.fetchEnd
	return e.res
}
