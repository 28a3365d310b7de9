package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/isa"
	"mlpsim/internal/storeset"
	"mlpsim/internal/vpred"
)

// The reference model restates the §3 epoch rules, as the engine applies
// them, over a whole in-memory stream. Every instruction keeps its own
// entry in plain per-instruction slices, its dependence links come from
// one program-order scan with an unbounded last-store map, and nothing is
// recycled or packed: no rings, no shared decode, no bitmasks. It is the
// oracle the engine's tests and the gang fuzzer compare against.
//
// The unbounded map matches the engine's 64K-entry last-store table only
// while a stream stores to fewer than 64K distinct words, which every
// test stream does.

// refModel is one reference run.
type refModel struct {
	cfg Config
	// in is the stream, cut at MaxInstructions, with PerfectIFetch and
	// PerfectBP applied.
	in []annotate.Inst

	// Dependence links, -1 for none: the register producers, the last
	// earlier store to the same word (loads only), and the previous
	// memory instruction, store and branch in program order.
	prod1, prod2, memProd, prevMem, prevStore, prevBranch []int64

	// Per-instruction state. avail is the epoch from which a result can
	// be consumed, complete the epoch from which the instruction can
	// retire; they differ only for a correctly value-predicted missing
	// load. imissLeft marks an instruction fetch still to go off chip.
	executed, imissLeft                  []bool
	avail, complete                      []int64
	vpCut, vpWrong                       []bool
	vpHandled, depHandled, depSerCounted []bool

	fetchEnd, retire int64
	unexec           int
	eof              bool
	epoch            int64
	// steps counts every epoch stepped, with or without accesses.
	steps int

	res    Result
	epochs []Epoch
}

// refEpoch accumulates one epoch; the embedded Epoch collects the
// trigger and the executed and access index lists as they happen.
type refEpoch struct {
	Epoch
	accesses, dAccesses, pAccesses, iAccesses, sAccesses int
	termIdx                                              int64
	limiter                                              Limiter
	// blockIdx and blockLim record the earliest Figure-5 blocking event.
	blockIdx int64
	blockLim Limiter
	// firstUnresolvedStore is the first store in scan order whose address
	// is unresolved; firstUnexecStore the first still unexecuted
	// (conservative disambiguation only).
	firstUnresolvedStore, firstUnexecStore int64
}

func (ep *refEpoch) record(j int64, kind byte) {
	if ep.accesses == 0 {
		ep.Trigger = j
	}
	ep.accesses++
	switch kind {
	case 'D':
		ep.dAccesses++
	case 'P':
		ep.pAccesses++
	case 'I':
		ep.iAccesses++
	}
	ep.AccessIdx = append(ep.AccessIdx, j)
}

func (ep *refEpoch) terminate(j int64, lim Limiter) { ep.termIdx, ep.limiter = j, lim }

func (ep *refEpoch) block(j int64, lim Limiter) {
	if ep.blockIdx < 0 {
		ep.blockIdx, ep.blockLim = j, lim
	}
}

// refOutcome is one execution attempt's outcome.
type refOutcome int

const (
	refExecuted refOutcome = iota
	refBlocked
	refVPFlush
	refDepFlush
)

// refRun runs cfg over insts and returns the result (its Config without
// the observer), every access-bearing epoch in order, and the number of
// epochs stepped.
func refRun(insts []annotate.Inst, cfg Config) (Result, []Epoch, int) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := len(insts)
	if cfg.MaxInstructions > 0 && int64(n) > cfg.MaxInstructions {
		n = int(cfg.MaxInstructions)
	}
	m := &refModel{cfg: cfg, in: append([]annotate.Inst(nil), insts[:n]...)}
	for _, s := range []*[]int64{&m.prod1, &m.prod2, &m.memProd, &m.prevMem, &m.prevStore, &m.prevBranch, &m.avail, &m.complete} {
		*s = make([]int64, n)
	}
	for _, s := range []*[]bool{&m.executed, &m.imissLeft, &m.vpCut, &m.vpWrong, &m.vpHandled, &m.depHandled, &m.depSerCounted} {
		*s = make([]bool, n)
	}
	for j := range m.in {
		in := &m.in[j]
		if cfg.PerfectIFetch {
			in.IMiss = false
		}
		if cfg.PerfectBP {
			in.Mispred = false
		}
		m.imissLeft[j] = in.IMiss
		if in.DMiss {
			switch {
			case cfg.PerfectVP:
				m.vpCut[j] = true
			case cfg.ValuePredict && in.VPOutcome == vpred.Correct:
				m.vpCut[j] = true
			case cfg.ValuePredict && in.VPOutcome == vpred.Wrong:
				m.vpWrong[j] = true
			}
		}
	}
	m.bind()
	for m.step() {
	}
	m.res.Config = cfg
	m.res.Config.OnEpoch = nil
	m.res.Instructions = m.fetchEnd
	return m.res, m.epochs, m.steps
}

// bind fills in every instruction's links in one program-order scan.
func (m *refModel) bind() {
	var producers [isa.NumRegs]int64
	for r := range producers {
		producers[r] = -1
	}
	lastStore := make(map[uint64]int64)
	prevMem, prevStore, prevBranch := int64(-1), int64(-1), int64(-1)
	for i := range m.in {
		j, in := int64(i), &m.in[i]
		m.prod1[j], m.prod2[j], m.memProd[j] = -1, -1, -1
		m.prevMem[j], m.prevStore[j], m.prevBranch[j] = -1, -1, -1
		if in.Src1 != isa.NoReg && in.Src1 != isa.RegZero {
			m.prod1[j] = producers[in.Src1]
		}
		if in.Src2 != isa.NoReg && in.Src2 != isa.RegZero {
			m.prod2[j] = producers[in.Src2]
		}
		cls := in.Class
		if cls.IsMemRead() && cls != isa.Prefetch {
			if p, ok := lastStore[in.EA>>3]; ok {
				m.memProd[j] = p
			}
		}
		if cls == isa.Load || cls == isa.Store || cls == isa.CASA || cls == isa.LDSTUB {
			m.prevMem[j], prevMem = prevMem, j
			m.prevStore[j] = prevStore
		}
		if cls.IsMemWrite() {
			prevStore = j
			lastStore[in.EA>>3] = j
		}
		if cls == isa.Branch {
			m.prevBranch[j], prevBranch = prevBranch, j
		}
		if in.HasDst() {
			producers[in.Dst] = j
		}
	}
}

// step runs one epoch; false once the stream has ended and drained.
func (m *refModel) step() bool {
	if m.eof && m.retire >= m.fetchEnd {
		return false
	}
	m.steps++
	m.epoch++
	before, unexecBefore := m.fetchEnd, m.unexec
	ep := &refEpoch{blockIdx: -1, firstUnresolvedStore: -1, firstUnexecStore: -1}
	if m.cfg.Mode == OutOfOrder {
		m.runOutOfOrder(ep)
	} else {
		m.runInOrder(ep)
	}
	if ep.sAccesses > 0 {
		m.res.StoreEpochs++
		m.res.SAccesses += uint64(ep.sAccesses)
	}
	if ep.accesses > 0 {
		lim := ep.limiter
		if ep.blockIdx >= 0 && ep.blockIdx <= ep.termIdx {
			lim = ep.blockLim
		}
		m.res.Epochs++
		m.res.Accesses += uint64(ep.accesses)
		m.res.DAccesses += uint64(ep.dAccesses)
		m.res.PAccesses += uint64(ep.pAccesses)
		m.res.IAccesses += uint64(ep.iAccesses)
		m.res.Limiters[lim]++
		e := ep.Epoch
		e.Seq, e.Limiter = m.res.Epochs-1, lim
		e.Accesses, e.DAccesses, e.PAccesses, e.IAccesses = ep.accesses, ep.dAccesses, ep.pAccesses, ep.iAccesses
		m.epochs = append(m.epochs, e)
	}
	if m.fetchEnd == before && m.unexec == unexecBefore && ep.accesses == 0 && !m.eof {
		panic(fmt.Sprintf("reference: epoch %d made no progress at instruction %d", m.epoch, m.fetchEnd))
	}
	return true
}

// fetch brings the next instruction into the window.
func (m *refModel) fetch() bool {
	if m.eof || m.fetchEnd >= int64(len(m.in)) {
		m.eof = true
		return false
	}
	m.fetchEnd++
	m.unexec++
	return true
}

func (m *refModel) advanceRetire() {
	for m.retire < m.fetchEnd && m.executed[m.retire] && m.complete[m.retire] <= m.epoch {
		m.retire++
	}
}

// ready reports whether producer p's result can be consumed now; every
// retired instruction's can (p < 0 means no producer).
func (m *refModel) ready(p int64) bool {
	return p < m.retire || (m.executed[p] && m.avail[p] <= m.epoch)
}

// issued reports whether instruction p has executed.
func (m *refModel) issued(p int64) bool {
	return p < m.retire || m.executed[p]
}

// execute issues instruction j in this epoch with its off-chip access,
// if any. A missing load's data returns at the end of the epoch; a
// correct value prediction frees its consumers at once but not its own
// retirement.
func (m *refModel) execute(j int64, ep *refEpoch) {
	in := &m.in[j]
	m.executed[j] = true
	m.unexec--
	m.avail[j], m.complete[j] = m.epoch, m.epoch
	if in.DMiss || in.PMiss {
		kind := byte('D')
		if in.PMiss {
			kind = 'P'
		}
		ep.record(j, kind)
	}
	if in.SMiss {
		ep.sAccesses++
	}
	if in.DMiss {
		m.complete[j] = m.epoch + 1
		if !m.vpCut[j] {
			m.avail[j] = m.epoch + 1
		}
	}
	ep.Executed = append(ep.Executed, j)
}

// tryExecute applies the out-of-order issue rules to instruction j, in
// order: a deferred instruction fetch, a draining serializing
// instruction, full MSHRs or store buffer, operands (with the recovery
// flush a wrong value prediction costs), store forwarding (with the
// flush an uncovered store-set violation costs), non-oracle
// serialization, branch order and the load-ordering policies. Runahead
// (rae) lifts all but the fetch, MSHR and operand rules.
func (m *refModel) tryExecute(j int64, ep *refEpoch, rae bool) refOutcome {
	in, cfg := &m.in[j], &m.cfg
	cls := in.Class
	if m.imissLeft[j] {
		if cfg.MSHRs > 0 && ep.accesses >= cfg.MSHRs {
			ep.block(j, LimMSHR)
			return refBlocked
		}
		m.imissLeft[j] = false
		ep.record(j, 'I')
		return refBlocked
	}
	if !rae && cfg.Issue.Serializing() && cls.IsSerializing() {
		m.advanceRetire()
		if m.retire != j {
			return refBlocked
		}
		m.execute(j, ep)
		return refExecuted
	}
	if cfg.MSHRs > 0 && (in.DMiss || in.PMiss) && ep.accesses >= cfg.MSHRs {
		ep.block(j, LimMSHR)
		return refBlocked
	}
	if !rae && cfg.StoreBuffer > 0 && in.SMiss && ep.sAccesses >= cfg.StoreBuffer {
		ep.block(j, LimStoreBuf)
		return refBlocked
	}
	if !m.ready(m.prod1[j]) || !m.ready(m.prod2[j]) {
		if !rae && cfg.ValuePredict && !cfg.PerfectVP {
			for _, p := range []int64{m.prod1[j], m.prod2[j]} {
				if p >= m.retire && m.executed[p] && m.avail[p] > m.epoch && m.vpWrong[p] && !m.vpHandled[p] {
					m.vpHandled[p] = true
					return refVPFlush
				}
			}
		}
		return refBlocked
	}
	loadLike := cls.IsMemRead() && cls != isa.Prefetch
	if rae || !loadLike {
		if !rae && cls == isa.Branch && cfg.Issue.BranchesInOrder() && !m.issued(m.prevBranch[j]) {
			return refBlocked
		}
		m.execute(j, ep)
		return refExecuted
	}
	if p := m.memProd[j]; p >= 0 && !m.issued(p) {
		if cfg.Disamb == DisambStoreSets && in.Dep == storeset.DepViolation && !m.depHandled[j] {
			m.depHandled[j] = true
			return refDepFlush
		}
		return refBlocked
	}
	serialize := false
	switch cfg.Disamb {
	case DisambStoreSets:
		serialize = in.Dep == storeset.DepFalse && !m.issued(m.prevStore[j])
	case DisambConservative:
		serialize = ep.firstUnexecStore >= 0 && ep.firstUnexecStore < j
	}
	if serialize {
		if !m.depSerCounted[j] {
			m.depSerCounted[j] = true
			m.res.DepSerializes++
		}
		if in.DMiss {
			ep.block(j, LimDepStore)
		}
		return refBlocked
	}
	storeBefore := ep.firstUnresolvedStore >= 0 && ep.firstUnresolvedStore < j
	if cfg.Issue.LoadsInOrder() && !m.issued(m.prevMem[j]) {
		if in.DMiss && storeBefore {
			ep.block(j, LimDepStore)
		} else if in.DMiss {
			ep.block(j, LimMissingLoad)
		}
		return refBlocked
	}
	if cfg.Issue.LoadsWaitStoreAddr() && storeBefore {
		if in.DMiss {
			ep.block(j, LimDepStore)
		}
		return refBlocked
	}
	m.execute(j, ep)
	return refExecuted
}

// noteStore records an unexecuted store j as the epoch's first
// unresolved-address store and, under conservative disambiguation, its
// first unexecuted store.
func (m *refModel) noteStore(j int64, ep *refEpoch) {
	if !m.in[j].Class.IsMemWrite() || m.executed[j] {
		return
	}
	if m.cfg.Disamb == DisambConservative && ep.firstUnexecStore < 0 {
		ep.firstUnexecStore = j
	}
	if ep.firstUnresolvedStore < 0 && !m.ready(m.prod1[j]) {
		ep.firstUnresolvedStore = j
	}
}

// runOutOfOrder is one out-of-order (or runahead) epoch: retry every
// unexecuted instruction in program order, then fetch and execute until
// a window termination condition.
func (m *refModel) runOutOfOrder(ep *refEpoch) {
	cfg := &m.cfg
	rae := cfg.Runahead
	m.advanceRetire()
	for j := m.retire; j < m.fetchEnd; j++ {
		if !m.executed[j] {
			m.tryExecute(j, ep, rae)
			m.noteStore(j, ep)
		}
	}
	m.advanceRetire()

	// An unexecuted mispredicted branch or draining serializing
	// instruction at the tail stalls fetch for the whole epoch.
	if t := m.fetchEnd - 1; t >= m.retire && !m.executed[t] {
		if m.in[t].Class == isa.Branch && m.in[t].Mispred {
			ep.terminate(t, LimMispredBr)
			return
		}
		if !rae && cfg.Issue.Serializing() && m.in[t].Class.IsSerializing() {
			ep.terminate(t, LimSerialize)
			return
		}
	}

	for {
		j := m.fetchEnd
		m.advanceRetire()
		if rae {
			// The runahead distance counts from the oldest incomplete
			// instruction; there is no issue-window bound.
			if j-m.retire >= int64(cfg.MaxRunahead) {
				ep.terminate(j, LimRunahead)
				return
			}
		} else if j-m.retire >= int64(cfg.ROB) || m.unexec >= cfg.IssueWindow {
			ep.terminate(j, LimMaxwin)
			m.scanFetchBuffer(ep)
			return
		}
		if !m.fetch() {
			ep.terminate(j, LimEnd)
			return
		}
		in := &m.in[j]
		if m.imissLeft[j] {
			// A missing fetch blocks the front end but overlaps with the
			// epoch, unless the MSHRs are full.
			if cfg.MSHRs > 0 && ep.accesses >= cfg.MSHRs {
				ep.terminate(j, LimMSHR)
				return
			}
			m.imissLeft[j] = false
			lim := LimImissEnd
			if ep.accesses == 0 {
				lim = LimImissStart
			}
			ep.record(j, 'I')
			ep.terminate(j, lim)
			return
		}
		switch m.tryExecute(j, ep, rae) {
		case refVPFlush:
			ep.terminate(j, LimVPMisp)
			return
		case refDepFlush:
			m.res.DepMispredicts++
			ep.terminate(j, LimDepMispred)
			return
		case refBlocked:
			if in.Class == isa.Branch && in.Mispred {
				ep.terminate(j, LimMispredBr)
				return
			}
			if !rae && cfg.Issue.Serializing() && in.Class.IsSerializing() {
				ep.terminate(j, LimSerialize)
				return
			}
			m.noteStore(j, ep)
		}
	}
}

// scanFetchBuffer looks up to FetchBuffer instructions past a full
// window: the first instruction-fetch miss there issues in this epoch
// (and is then satisfied), unless a mispredicted branch comes first. The
// access is named by the instruction's stream Index, as the engine
// names it.
func (m *refModel) scanFetchBuffer(ep *refEpoch) {
	for k := 0; k < m.cfg.FetchBuffer; k++ {
		j := m.fetchEnd + int64(k)
		if j >= int64(len(m.in)) {
			return
		}
		in := &m.in[j]
		if in.Class == isa.Branch && in.Mispred {
			return
		}
		if m.imissLeft[j] {
			if m.cfg.MSHRs > 0 && ep.accesses >= m.cfg.MSHRs {
				return
			}
			ep.record(in.Index, 'I')
			m.imissLeft[j] = false
			return
		}
	}
}

// runInOrder is one in-order epoch (§3.3): at most the window tail waits
// unexecuted. Stall-on-use ends the window at the first instruction whose
// operands wait on an outstanding miss; stall-on-miss ends it at the
// missing load itself, after issuing its access.
func (m *refModel) runInOrder(ep *refEpoch) {
	cfg := &m.cfg
	m.advanceRetire()
	for {
		j := m.fetchEnd
		if t := j - 1; t >= m.retire && !m.executed[t] {
			j = t
		} else if !m.fetch() {
			ep.terminate(j, LimEnd)
			return
		}
		in := &m.in[j]
		if m.imissLeft[j] {
			if cfg.MSHRs > 0 && ep.accesses >= cfg.MSHRs {
				ep.terminate(j, LimMSHR)
				return
			}
			m.imissLeft[j] = false
			lim := LimImissEnd
			if ep.accesses == 0 {
				lim = LimImissStart
			}
			ep.record(j, 'I')
			ep.terminate(j, lim)
			return
		}
		if !m.ready(m.prod1[j]) || !m.ready(m.prod2[j]) || (m.memProd[j] >= 0 && !m.issued(m.memProd[j])) {
			lim := LimMissingLoad
			if in.Class == isa.Branch && in.Mispred {
				lim = LimMispredBr
			}
			ep.terminate(j, lim)
			return
		}
		if cfg.MSHRs > 0 && (in.DMiss || in.PMiss) && ep.accesses >= cfg.MSHRs {
			ep.terminate(j, LimMSHR)
			return
		}
		if cfg.StoreBuffer > 0 && in.SMiss && ep.sAccesses >= cfg.StoreBuffer {
			ep.terminate(j, LimStoreBuf)
			return
		}
		if in.Class.IsSerializing() {
			m.advanceRetire()
			if ep.accesses > 0 || m.retire < j {
				ep.terminate(j, LimSerialize)
				return
			}
		}
		m.execute(j, ep)
		m.advanceRetire()
		if in.DMiss && cfg.Mode == InOrderStallOnMiss {
			ep.terminate(j, LimMissingLoad)
			return
		}
	}
}

// checkReference fails unless the engine, observed epoch by epoch, and
// the reference agree on cfg over insts: the same Result and the same
// epoch sequence, executed and access lists included. It returns the
// engine's epochs and result (observer cleared).
func checkReference(t *testing.T, what string, insts []annotate.Inst, cfg Config) ([]Epoch, Result) {
	t.Helper()
	want, wantEpochs, _ := refRun(insts, cfg)
	var got []Epoch
	cfg.OnEpoch = func(ep Epoch) { got = append(got, ep) }
	res := NewEngine(&aiSource{insts: insts}, cfg).Run()
	res.Config.OnEpoch = nil
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("%s (%s): engine result differs from the reference\nengine:    %+v\nreference: %+v", what, cfg.Name(), res, want)
	}
	if len(got) != len(wantEpochs) {
		t.Fatalf("%s (%s): engine reported %d epochs, the reference %d", what, cfg.Name(), len(got), len(wantEpochs))
	}
	for i := range wantEpochs {
		if !reflect.DeepEqual(got[i], wantEpochs[i]) {
			t.Fatalf("%s (%s): epoch %d differs from the reference\nengine:    %+v\nreference: %+v", what, cfg.Name(), i, got[i], wantEpochs[i])
		}
	}
	return got, res
}

// TestReferenceMatchesEngineDivergentGangs runs every config of every
// divergentGangs vector, observed, over random streams carrying every
// miss kind, mispredictions, value-prediction outcomes and store-set
// outcomes, and checks each against the reference.
func TestReferenceMatchesEngineDivergentGangs(t *testing.T) {
	rng := rand.New(rand.NewSource(3301))
	for gi, cfgs := range divergentGangs(nil) {
		for trial := 0; trial < 3; trial++ {
			insts := randomStream(rng, 2000+rng.Intn(3000), 0.06, 0.02, 0.03, 0.02)
			sprinkleVP(rng, insts)
			sprinkleDeps(rng, insts)
			for i, cfg := range cfgs {
				checkReference(t, fmt.Sprintf("gang %d trial %d config %d", gi, trial, i), insts, cfg)
			}
		}
	}
}

// TestReferenceMatchesEngineRandom draws random configs over every
// Config field and checks each against the reference on random streams,
// including the dependence-dense store-set streams of the disambiguation
// tests.
func TestReferenceMatchesEngineRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8117))
	for trial := 0; trial < 60; trial++ {
		n := 500 + rng.Intn(3000)
		var insts []annotate.Inst
		if trial%3 == 0 {
			insts = depStream(rng, n, storeset.Config{SSITSize: 64, LFSTSize: 16, ConfThreshold: uint8(rng.Intn(3))})
		} else {
			insts = randomStream(rng, n, 0.03+0.1*rng.Float64(), 0.03*rng.Float64(), 0.05*rng.Float64(), 0.03*rng.Float64())
			sprinkleDeps(rng, insts)
		}
		sprinkleVP(rng, insts)
		checkReference(t, fmt.Sprintf("trial %d", trial), insts, randomGangConfig(rng, n))
	}
}

// TestStepperMatchesReference steps random configs epoch by epoch and
// checks the step count against the reference: the SMT scheduler
// records one entry per step, epochs without accesses included.
func TestStepperMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6007))
	for trial := 0; trial < 30; trial++ {
		n := 500 + rng.Intn(2500)
		insts := randomStream(rng, n, 0.02+0.08*rng.Float64(), 0.02, 0.03, 0.02)
		sprinkleVP(rng, insts)
		sprinkleDeps(rng, insts)
		cfg := randomGangConfig(rng, n)
		want, _, wantSteps := refRun(insts, cfg)
		st := NewStepper(&aiSource{insts: insts}, cfg)
		steps := 0
		for st.Step() {
			steps++
		}
		if got := st.Finish(); steps != wantSteps || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%s): stepper took %d steps to %+v\nreference took %d to %+v", trial, cfg.Name(), steps, got, wantSteps, want)
		}
	}
}
