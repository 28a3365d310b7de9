package workload

import (
	"fmt"
	"math/rand"

	"mlpsim/internal/isa"
)

// Memory map of the synthetic process. Regions are disjoint by
// construction; addresses never wrap between them for any configured size.
const (
	hotCodeBase  = 0x0010_0000 // hot code (transaction fabric)
	coldCodeBase = 0x0100_0000 // cold function pool (I-miss source)
	lockBase     = 0x0F00_0000 // lock words (hot, shared)
	hotDataBase  = 0x1000_0000 // hot data region
	warmDataBase = 0x3000_0000 // warm (L2-marginal) data region
	coldDataBase = 0x4000_0000 // cold data region
	numLocks     = 64
)

// role describes what a static instruction site does when instantiated.
type role uint8

const (
	roleFiller   role = iota // plain ALU over hot registers
	roleCounter              // loop-counter increment ALU
	roleHotLoad              // load from the hot data region
	roleHotStore             // store to the hot data region
	roleColdLoad             // independent load from the cold data region
	roleChase                // pointer-chase step (EA = previous value)
	rolePrefetch             // software prefetch of a future cold load
	roleUseLoad              // load of a previously prefetched address
	roleDepStore             // store whose address depends on a cold load
	roleCASA                 // lock acquire
	roleMemBar               // memory barrier
	roleUnlock               // lock release store
	roleBranch               // conditional branch
)

// branchKind describes a branch site's outcome behaviour.
type branchKind uint8

const (
	brNone    branchKind = iota
	brBiased             // taken with fixed probability (predictable)
	brRandom             // 50/50, data independent (resolves on-chip)
	brLoop               // loop back-edge: taken until the trip count runs out
	brDataDep            // outcome = bit of the last cold-loaded value
)

// valueKind describes the value stream a load site produces (drives the
// last-value predictor's Table 6 accuracy).
type valueKind uint8

const (
	valConst  valueKind = iota // same value every execution
	valStride                  // arithmetic progression
	valRandom                  // fresh pseudo-random value each execution
	valPtr                     // pointer-chase: value is the next node address
)

// site is one static instruction with fixed PC, registers and behaviour.
// Mutable fields (stride counter) are per-generator because each Generator
// builds its own program.
type site struct {
	pc         uint64
	class      isa.Class
	src1, src2 isa.Reg
	dst        isa.Reg
	role       role
	branch     branchKind
	biasP      float64
	vclass     valueKind
	vseed      uint64 // per-site value seed
	strideN    uint64 // mutable: executions so far (for valStride)
	loopTarget uint64 // static back-edge target (routine-relative PC)
}

// routine is a static straight-line code fragment, optionally with a loop
// body [bodyStart, bodyEnd) whose final site is the back-edge branch.
type routine struct {
	sites     []site
	bodyStart int
	bodyEnd   int
}

// program is the static code of one workload. Burst routines come in
// several variants per family so that per-site value-class draws average
// out to the configured fractions.
type program struct {
	compute    []*routine // filler variants
	chase      []*routine // pointer-chase burst loops
	chaseDepBr []*routine // chase loops with a data-dependent branch
	indep      []*routine // independent cold-load burst loops
	indepDepSt []*routine // independent loops with a dependent store
	indepDepBr []*routine // independent loops with a dependent branch
	prefetch   []*routine // software-prefetch burst loops
	useLoads   []*routine // demand loads of prefetched lines
	lock       *routine   // CASA ... MEMBAR ... unlock
	coldBody   *routine   // shared body template for cold functions
	coldFuncs  int        // number of cold function instances
}

func pick(rng interface{ Intn(int) int }, rs []*routine) *routine {
	return rs[rng.Intn(len(rs))]
}

// Register conventions. Miss-carrying registers are disjoint from filler
// registers so that filler never accidentally depends on an outstanding
// miss.
const (
	regGlobal   = isa.Reg(1) // global data base; never written
	regChase    = isa.Reg(3) // pointer-chase cursor
	regColdA    = isa.Reg(5) // independent cold-load destinations
	regColdB    = isa.Reg(6)
	regColdC    = isa.Reg(7)
	regUse      = isa.Reg(8)  // prefetched-line demand loads
	regHotLoadA = isa.Reg(24) // hot data loads
	regHotLoadB = isa.Reg(25)
	regCounter  = isa.Reg(27) // loop counters
	regLockBase = isa.Reg(28) // lock-word base; never written
	regLockVal  = isa.Reg(30) // CASA data register
)

var fillerRegs = []isa.Reg{16, 17, 18, 19, 20, 21, 22, 23}

// Generator synthesizes an endless dynamic instruction stream for one
// workload configuration. It implements trace.Source.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	prog *program

	queue []isa.Inst
	qpos  int

	chaseCur     uint64
	lastColdVal  uint64
	lockEA       uint64
	prefAddrs    []uint64
	warmRing     []uint64 // fresh warm lines awaiting replay; warmPos is the head
	warmPos      int
	coldCursor   uint64
	burstWarm    bool
	sinceLock    int
	pendingCalls int
	instrCount   int64
}

// New validates cfg and builds a generator.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	g.prog = buildProgram(&cfg, g.rng)
	g.chaseCur = g.chaseNext(0xdeadbeef)
	return g, nil
}

// MustNew is New but panics on configuration errors; presets are validated
// by tests, so callers use MustNew with them.
func MustNew(cfg Config) *Generator {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Next implements trace.Source. The stream is infinite; wrap with
// trace.Limit to bound it.
func (g *Generator) Next() (isa.Inst, bool) {
	for g.qpos >= len(g.queue) {
		g.queue = g.queue[:0]
		g.qpos = 0
		g.genTransaction()
	}
	in := g.queue[g.qpos]
	g.qpos++
	g.instrCount++
	return in, true
}

// chaseNext draws the pointer-chase successor: a fresh random line-aligned
// node of the cold region. A pure function of the current address would
// collapse into a ~sqrt(N)-node rho cycle whose footprint fits in the L2
// (killing the misses the chase exists to produce), so the walk is driven
// by the generator's seeded stream instead; the traversal never revisits
// enough to warm the cache, like a fresh B-tree descent per lookup.
func (g *Generator) chaseNext(cur uint64) uint64 {
	_ = cur
	lines := uint64(g.cfg.ColdBytes) / 64
	return coldDataBase + uint64(g.rng.Int63n(int64(lines)))*64 + 8
}

func (g *Generator) coldAddr() uint64 {
	if g.cfg.ColdStride > 0 {
		g.coldCursor = (g.coldCursor + uint64(g.cfg.ColdStride)) % uint64(g.cfg.ColdBytes)
		return coldDataBase + g.coldCursor&^7
	}
	lines := uint64(g.cfg.ColdBytes) / 64
	return coldDataBase + uint64(g.rng.Int63n(int64(lines)))*64
}

func (g *Generator) hotAddr() uint64 {
	return hotDataBase + uint64(g.rng.Int63n(g.cfg.HotBytes))&^7
}

// warmAddr draws from the L2-marginal region. Fresh random lines are
// recorded in a replay queue; once the queue holds more than
// WarmReuseDist unreplayed lines, accesses replay the queue head with
// probability WarmReuseFrac — revisiting each fresh line exactly once, in
// order, a delay ≥ WarmReuseDist fresh lines later (like rescanning
// B-tree inner nodes a few transactions later). Whether the replay hits
// depends on whether the L2 still holds the line: the Figure 7 capacity
// lever.
func (g *Generator) warmAddr() uint64 {
	k := g.cfg.WarmReuseDist
	if k > 0 && len(g.warmRing)-g.warmPos > k && g.rng.Float64() < g.cfg.WarmReuseFrac {
		// Replay the oldest unreplayed fresh line (written ≥ k fresh
		// accesses ago). Pops are FIFO, so a replayed burst revisits an
		// old burst's lines contiguously and in order.
		a := g.warmRing[g.warmPos]
		g.warmPos++
		if g.warmPos > 4096 && g.warmPos >= len(g.warmRing)/2 {
			g.warmRing = append(g.warmRing[:0], g.warmRing[g.warmPos:]...)
			g.warmPos = 0
		}
		return a
	}
	lines := uint64(g.cfg.WarmBytes) / 64
	a := warmDataBase + uint64(g.rng.Int63n(int64(lines)))*64
	if k > 0 {
		g.warmRing = append(g.warmRing, a)
	}
	return a
}

// genTransaction appends one transaction's instructions to the queue.
func (g *Generator) genTransaction() {
	cfg := &g.cfg

	nBursts := sampleCount(g.rng, cfg.BurstsPerTx)
	nColdCalls := sampleCount(g.rng, cfg.ColdCallsPerTx)

	// Estimate the burst instruction cost so compute chunks absorb the
	// remaining budget.
	avgBurst := (cfg.BurstMin + cfg.BurstMax) / 2
	burstCost := nBursts * avgBurst * (3 + cfg.BurstGapMax/2)
	coldCost := nColdCalls * cfg.ColdFuncInstr
	computeBudget := cfg.TxInstr - burstCost - coldCost
	if computeBudget < 32 {
		computeBudget = 32
	}
	segments := nBursts + 1
	chunk := computeBudget / segments
	g.pendingCalls += nColdCalls

	for s := 0; s < segments; s++ {
		g.emitCompute(chunk + g.rng.Intn(chunk/2+1) - chunk/4)
		if s < nBursts {
			g.emitBurst()
		}
	}
}

// emitCompute emits ~n instructions of hot-path filler, interleaving lock
// sections at the configured cadence and placing at most one pending cold
// call at a random position inside the chunk (cold code excursions are
// decorrelated from data bursts).
func (g *Generator) emitCompute(n int) {
	callAt := -1
	if g.pendingCalls > 0 && g.prog.coldFuncs > 0 {
		callAt = g.rng.Intn(n + 1)
	}
	emitted := 0
	for n > 0 {
		if callAt >= 0 && emitted >= callAt {
			callAt = -1
			g.pendingCalls--
			g.emitColdCall()
		}
		if g.cfg.LockEvery > 0 && g.sinceLock >= g.cfg.LockEvery {
			g.sinceLock = 0
			k := g.runRoutine(g.prog.lock, 1)
			n -= k
			emitted += k
			continue
		}
		r := g.prog.compute[g.rng.Intn(len(g.prog.compute))]
		k := g.runRoutine(r, 1)
		n -= k
		emitted += k
	}
}

// emitBurst emits one cold-access burst: a chase burst, a prefetch burst
// or an independent burst, per the configured mix.
func (g *Generator) emitBurst() {
	k := g.cfg.BurstMin
	if g.cfg.BurstMax > g.cfg.BurstMin {
		k += g.rng.Intn(g.cfg.BurstMax - g.cfg.BurstMin + 1)
	}
	switch {
	case g.rng.Float64() < g.cfg.ChaseFrac:
		r := pick(g.rng, g.prog.chase)
		if g.rng.Float64() < g.cfg.DepBranchFrac {
			r = pick(g.rng, g.prog.chaseDepBr)
		}
		g.runRoutineAt(r, k, g.burstBase(false))
	case g.rng.Float64() < g.cfg.PrefetchFrac:
		base := g.burstBase(true)
		g.prefAddrs = g.prefAddrs[:0]
		g.runRoutineAt(pick(g.rng, g.prog.prefetch), k, base)
		// A short gap before the demand loads, then consume the
		// prefetched addresses in order.
		g.runRoutine(g.prog.compute[0], 1)
		g.runRoutineAt(pick(g.rng, g.prog.useLoads), k, base)
	default:
		r := pick(g.rng, g.prog.indep)
		switch x := g.rng.Float64(); {
		case x < g.cfg.DepStoreFrac:
			r = pick(g.rng, g.prog.indepDepSt)
		case x < g.cfg.DepStoreFrac+g.cfg.DepBranchFrac:
			r = pick(g.rng, g.prog.indepDepBr)
		}
		// A warm burst scans L2-marginal data (e.g. B-tree inner nodes):
		// every access of the burst goes to the warm region, and the
		// burst is tight (small-gap variant), so a larger L2 eliminates
		// whole high-MLP epochs — the Figure 7 database/SPECjbb2000
		// behaviour.
		if g.cfg.WarmBytes > 0 && g.rng.Float64() < g.cfg.WarmBurstFrac {
			g.burstWarm = true
			r = g.prog.indep[g.rng.Intn(3)]
		}
		base := g.burstBase(true)
		if g.rng.Float64() < g.cfg.LockedBurstFrac {
			// Locked mini-sections: 1-2 accesses per critical section.
			for k > 0 {
				m := 1 + g.rng.Intn(2)
				if m > k {
					m = k
				}
				g.runRoutine(g.prog.lock, 1)
				g.runRoutineAt(r, m, base)
				k -= m
			}
			g.burstWarm = false
			return
		}
		g.runRoutineAt(r, k, base)
		g.burstWarm = false
	}
}

// burstHotSites is the number of predictor-resident burst-code instances
// (the "hot" subset of the site pool).
const burstHotSites = 16

// burstBase picks the PC base for a burst-routine instance. Bases are
// spaced 4 bytes apart: distinct predictor indexes, shared I-cache lines.
func (g *Generator) burstBase(hotEligible bool) uint64 {
	if g.cfg.BurstSites <= 0 {
		return 0
	}
	if hotEligible && g.rng.Float64() < g.cfg.BurstSiteHotProb {
		return uint64(g.rng.Intn(burstHotSites)) * 4
	}
	return uint64(burstHotSites+g.rng.Intn(g.cfg.BurstSites)) * 4
}

// emitColdCall emits one excursion into the cold code pool.
func (g *Generator) emitColdCall() {
	f := g.rng.Intn(g.prog.coldFuncs)
	base := uint64(coldCodeBase) + uint64(f)*uint64(len(g.prog.coldBody.sites))*4
	g.runRoutineAt(g.prog.coldBody, 1, base)
}

// runRoutine instantiates the routine with trips loop iterations and
// returns the number of instructions emitted.
func (g *Generator) runRoutine(r *routine, trips int) int {
	return g.runRoutineAt(r, trips, 0)
}

func (g *Generator) runRoutineAt(r *routine, trips int, pcBase uint64) int {
	emitted := 0
	emitRange := func(lo, hi int, lastTrip bool) {
		for i := lo; i < hi; i++ {
			g.emitSite(&r.sites[i], pcBase, lastTrip)
			emitted++
		}
	}
	if r.bodyEnd > r.bodyStart && trips > 1 {
		emitRange(0, r.bodyStart, false)
		for t := 0; t < trips; t++ {
			emitRange(r.bodyStart, r.bodyEnd, t == trips-1)
		}
		emitRange(r.bodyEnd, len(r.sites), false)
	} else {
		emitRange(0, len(r.sites), true)
	}
	return emitted
}

// emitSite instantiates one static site into a dynamic instruction.
// lastTrip tells loop back-edges to fall through.
func (g *Generator) emitSite(s *site, pcBase uint64, lastTrip bool) {
	in := isa.Inst{
		PC:    pcBase + s.pc,
		Class: s.class,
		Src1:  s.src1,
		Src2:  s.src2,
		Dst:   s.dst,
	}
	switch s.role {
	case roleFiller, roleCounter:
		// Nothing dynamic.
	case roleHotLoad:
		in.EA = g.hotAddr()
		if g.cfg.WarmBytes > 0 && g.rng.Float64() < g.cfg.WarmComputeFrac {
			in.EA = g.warmAddr()
		}
		in.Value = g.siteValue(s)
	case roleHotStore:
		in.EA = g.hotAddr()
		if g.cfg.ColdStoreFrac > 0 && g.rng.Float64() < g.cfg.ColdStoreFrac {
			in.EA = g.coldAddr()
		}
	case roleColdLoad:
		in.EA = g.coldAddr()
		if g.burstWarm {
			in.EA = g.warmAddr()
		}
		in.Value = g.siteValue(s)
		g.lastColdVal = in.Value
	case roleChase:
		in.EA = g.chaseCur
		next := g.chaseNext(g.chaseCur)
		in.Value = next
		g.chaseCur = next
		g.lastColdVal = next
	case rolePrefetch:
		addr := g.coldAddr()
		in.EA = addr
		g.prefAddrs = append(g.prefAddrs, addr)
	case roleUseLoad:
		if len(g.prefAddrs) > 0 {
			in.EA = g.prefAddrs[0]
			g.prefAddrs = g.prefAddrs[1:]
		} else {
			in.EA = g.coldAddr()
		}
		in.Value = g.siteValue(s)
	case roleDepStore:
		// The store's address register holds the last cold value; keep the
		// modelled EA inside the cold region.
		in.EA = coldDataBase + g.lastColdVal%uint64(g.cfg.ColdBytes)&^7
	case roleCASA:
		in.EA = lockBase + uint64(g.rng.Intn(numLocks))*64
		in.Value = uint64(g.rng.Intn(2))
		g.lockEA = in.EA
	case roleMemBar:
		// Nothing dynamic.
	case roleUnlock:
		in.EA = g.lockEA
	case roleBranch:
		in.Taken, in.Target = g.branchOutcome(s, pcBase, lastTrip)
	default:
		panic(fmt.Sprintf("workload: unhandled role %d", s.role))
	}
	g.queue = append(g.queue, in)
	g.sinceLock++
}

// branchOutcome resolves a branch site's direction and target.
func (g *Generator) branchOutcome(s *site, pcBase uint64, lastTrip bool) (bool, uint64) {
	var taken bool
	switch s.branch {
	case brBiased:
		taken = g.rng.Float64() < s.biasP
	case brRandom:
		taken = g.rng.Intn(2) == 0
	case brLoop:
		taken = !lastTrip
	case brDataDep:
		taken = g.lastColdVal&1 == 1
	default:
		taken = false
	}
	// The target must agree with the PC of the next emitted instruction so
	// the fetch stream stays consistent: loop back-edges jump to the body
	// start; every other branch falls through (its direction still
	// exercises the predictor).
	target := s.pc + pcBase + 4
	if s.branch == brLoop && taken {
		target = pcBase + s.loopTarget
	}
	return taken, target
}

// siteValue produces the next value of a load site per its value class.
func (g *Generator) siteValue(s *site) uint64 {
	switch s.vclass {
	case valConst:
		if g.cfg.ValueChurn > 0 && g.rng.Float64() < g.cfg.ValueChurn {
			s.vseed = g.rng.Uint64()
		}
		return s.vseed
	case valStride:
		s.strideN++
		return s.vseed + s.strideN*8
	default:
		return g.rng.Uint64()
	}
}

// sampleCount draws a non-negative integer with the given expectation:
// floor(mean) plus a Bernoulli trial on the fraction.
func sampleCount(rng *rand.Rand, mean float64) int {
	n := int(mean)
	if rng.Float64() < mean-float64(n) {
		n++
	}
	return n
}
