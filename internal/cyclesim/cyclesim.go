// Package cyclesim is the cycle-level out-of-order processor simulator
// used to validate MLPsim, standing in for the paper's proprietary
// cycle-accurate SPARC simulator (§5.2, Tables 1, 3 and 4).
//
// It models a conventional pipeline — fetch through a fetch buffer,
// rename/dispatch into an issue window and reorder buffer, oldest-first
// issue with the Table 2 constraint configurations A–C, latency-accurate
// execution, and in-order retirement — while measuring MLP(t) every cycle
// exactly as §2.1 prescribes: the number of useful off-chip accesses
// outstanding, averaged over the cycles where at least one is outstanding.
//
// Unlike MLPsim it is fully timing-aware: off-chip accesses issue and
// complete at their real cycles, so overlap is emergent rather than
// assumed. Agreement between the two (within a few percent at long
// off-chip latencies) is the paper's central validation result.
package cyclesim

import (
	"fmt"
	"math"

	"mlpsim/internal/core"
)

// Config parameterizes one cycle-simulator run.
type Config struct {
	// IssueWindow, ROB and FetchBuffer mirror the MLPsim structures.
	IssueWindow int
	ROB         int
	FetchBuffer int
	// Issue must be one of configurations A, B or C — like the paper's
	// cycle-accurate simulator, out-of-order branch issue is not
	// supported (§5.2).
	Issue core.IssueConfig
	// Widths of the pipeline stages (instructions per cycle).
	FetchWidth, DispatchWidth, IssueWidth, RetireWidth int
	// MissPenalty is the off-chip access latency in cycles (200-1000).
	MissPenalty int
	// L1Latency and L2Latency are the on-chip load-use latencies.
	L1Latency, L2Latency int
	// MispredictPenalty is the front-end refill delay after a mispredicted
	// branch resolves.
	MispredictPenalty int
	// MSHRs bounds the number of off-chip accesses outstanding at once;
	// 0 models the paper's unlimited baseline.
	MSHRs int
	// PerfectL2 treats every off-chip access as an L2 hit: the run
	// measures CPI_perf for the CPI decomposition of §2.2.
	PerfectL2 bool
	// MaxInstructions bounds the run (0 = entire stream).
	MaxInstructions int64
}

// Default returns the default pipeline matching MLPsim's default
// configuration (§5.1) at the given off-chip latency.
func Default(missPenalty int) Config {
	return Config{
		IssueWindow:       64,
		ROB:               64,
		FetchBuffer:       32,
		Issue:             core.ConfigC,
		FetchWidth:        4,
		DispatchWidth:     4,
		IssueWidth:        4,
		RetireWidth:       4,
		MissPenalty:       missPenalty,
		L1Latency:         2,
		L2Latency:         12,
		MispredictPenalty: 8,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.IssueWindow <= 0 || c.ROB < c.IssueWindow:
		return fmt.Errorf("cyclesim: bad window sizes IW=%d ROB=%d", c.IssueWindow, c.ROB)
	case c.Issue > core.ConfigC:
		return fmt.Errorf("cyclesim: issue configuration %v not supported (A-C only)", c.Issue)
	case c.FetchWidth <= 0 || c.DispatchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0:
		return fmt.Errorf("cyclesim: stage widths must be positive")
	case c.MissPenalty <= 0:
		return fmt.Errorf("cyclesim: miss penalty %d must be positive", c.MissPenalty)
	case c.L1Latency <= 0 || c.L2Latency < c.L1Latency:
		return fmt.Errorf("cyclesim: bad cache latencies L1=%d L2=%d", c.L1Latency, c.L2Latency)
	case c.FetchBuffer <= 0:
		return fmt.Errorf("cyclesim: fetch buffer must be positive")
	case c.MSHRs < 0:
		return fmt.Errorf("cyclesim: negative MSHR count %d", c.MSHRs)
	case c.MispredictPenalty < 0:
		return fmt.Errorf("cyclesim: negative mispredict penalty %d", c.MispredictPenalty)
	case c.MaxInstructions < 0:
		return fmt.Errorf("cyclesim: negative instruction limit %d (0 runs the whole stream)", c.MaxInstructions)
	}
	return nil
}

// Result summarizes one run.
type Result struct {
	Config       Config
	Instructions int64
	Cycles       int64
	// MLP is the measured average memory-level parallelism: useful
	// off-chip accesses outstanding averaged over non-zero cycles.
	MLP float64
	// MLPCycles is the number of cycles with at least one useful off-chip
	// access outstanding.
	MLPCycles int64
	// Accesses counts useful off-chip accesses issued.
	Accesses uint64
}

// CPI is cycles per instruction.
func (r *Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// MissRatePer100 is off-chip accesses per 100 instructions.
func (r *Result) MissRatePer100() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 100 * float64(r.Accesses) / float64(r.Instructions)
}

// Sim is one cycle-level simulation: a gang of one (see RunGang).
type Sim struct{ g *gang }

// New builds a simulation over the annotated source. It panics on invalid
// configurations.
func New(src core.AnnotatedSource, cfg Config) *Sim {
	return &Sim{g: newGang(src, []Config{cfg}, false)}
}

// Run simulates to completion and returns the result.
func (s *Sim) Run() Result { return s.g.run()[0] }

// uop flag bits. The class bits are the class predicates the pipeline
// tests, precomputed once at decode.
const (
	uStore    uint16 = 1 << iota // writes memory: Store, CASA, LDSTUB
	uMem                         // Load or memory write: ordered by configuration A
	uLoad                        // reads memory and waits for the data: Load, CASA, LDSTUB
	uPrefetch                    // software prefetch: fire and forget
	uBranch
	uSerial  // CASA, LDSTUB, MemBar: issues only from the ROB head
	uMiss    // a load-like DMiss or a prefetch PMiss: the data access goes off-chip
	uIMiss   // the fetch goes off-chip (a pending fetch clears it once it requests the line)
	uMispred // a mispredicted branch
)

// notIssued is the doneAt of an entry that has not issued, so "issued
// and done by cycle c" is the single test doneAt <= c.
const notIssued = math.MaxInt64

// uop is the compact form of one instruction: all the pipeline reads of
// it. The gang's decoder fills the class and event flags and binds the
// producers once per instruction; each pipeline copies the uop into its
// own ring when it fetches it and updates doneAt when it issues.
type uop struct {
	// prod1 and prod2 are the absolute indices of the register
	// producers, memProd that of the last earlier store to the same
	// 8-byte word (load-like instructions only); -1 when none.
	prod1, prod2, memProd int64
	doneAt                int64 // cycle the result becomes available
	flags                 uint16
}

// eventHeap is a hand-rolled min-heap of completion cycles. Unlike a
// container/heap adapter it pushes and pops typed int64s — no
// interface{} boxing allocation per event — and its backing slice is
// reused across pops, so the steady state allocates nothing.
type eventHeap struct{ a []int64 }

func (h *eventHeap) len() int   { return len(h.a) }
func (h *eventHeap) min() int64 { return h.a[0] }

func (h *eventHeap) push(v int64) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *eventHeap) pop() int64 {
	a := h.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	h.a = a[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && a[r] < a[l] {
			l = r
		}
		if a[i] <= a[l] {
			break
		}
		a[i], a[l] = a[l], a[i]
		i = l
	}
	return top
}

// pipeline is one configuration's machine state. Its instructions live
// in one ring, indexed by absolute stream position, that spans
//
//	[retired, dispatched)  the reorder buffer
//	[dispatched, queued)   the fetch queue
//	queued                 an instruction waiting for its off-chip
//	                       I-line, when pending
//
// so fetch copies each instruction once and dispatch moves none.
type pipeline struct {
	cfg   Config
	limit int64 // MaxInstructions, or MaxInt64 for the whole stream
	slot  int   // the gang's result index

	cycle int64
	ops   []uop // power-of-two ring ≥ ROB + FetchBuffer + 1
	mask  int64

	retired    int64
	dispatched int64
	queued     int64
	fetched    int64
	// waiting lists the unissued ROB entries, oldest first; its length
	// is the issue-window occupancy.
	waiting []int64

	fetchStall int64
	// awaitBranch, when >= 0, is the absolute index of a fetched
	// mispredicted branch; fetch resumes after it resolves.
	awaitBranch int64
	pending     bool
	pendingAt   int64 // arrival cycle of the pending instruction's I-line
	srcDone     bool
	done        bool

	outstanding int
	completions eventHeap
	mlpSum      int64
	mlpCycles   int64
	accesses    uint64
}

// newPipeline builds the machine state of a validated config.
func newPipeline(cfg Config, slot int) pipeline {
	// The ROB holds at most ROB entries and the fetch queue at most
	// FetchBuffer (the normal fetch gate, which an arriving I-line also
	// respects: its instruction was taken while the queue had room and
	// nothing else entered since), plus the one pending instruction.
	n := ringCap(cfg.ROB + cfg.FetchBuffer + 1)
	return pipeline{
		cfg:         cfg,
		limit:       instLimit(cfg),
		slot:        slot,
		ops:         make([]uop, n),
		mask:        int64(n) - 1,
		waiting:     make([]int64, 0, cfg.IssueWindow),
		awaitBranch: -1,
	}
}

// instLimit returns cfg.MaxInstructions, or MaxInt64 when the run takes
// the whole stream.
func instLimit(cfg Config) int64 {
	if cfg.MaxInstructions > 0 {
		return cfg.MaxInstructions
	}
	return math.MaxInt64
}

// ringCap returns the smallest power of two ≥ n.
func ringCap(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// advance simulates cycles until the pipeline finishes (it returns
// true) or its next cycle could fetch past the decoded window (false).
// A cycle fetches at most FetchWidth instructions, so the pause leaves
// every position the pipeline reads decoded: the pipeline sees exactly
// the stream it would see alone, whatever the window's block size.
func (p *pipeline) advance(w *window) bool {
	for !p.finished() {
		if !w.eof {
			need := p.fetched + int64(p.cfg.FetchWidth)
			if need > p.limit {
				need = p.limit
			}
			if need > w.end {
				return false
			}
		}
		p.cycle++
		p.doCompletions()
		progress := p.retire()
		progress += p.issue()
		progress += p.dispatch()
		progress += p.fetch(w)
		if p.outstanding > 0 {
			p.mlpSum += int64(p.outstanding)
			p.mlpCycles++
		}
		if progress == 0 {
			p.leap()
		}
	}
	return true
}

func (p *pipeline) result() Result {
	return newResult(p.cfg, p.retired, p.cycle, p.mlpSum, p.mlpCycles, p.accesses)
}

// newResult assembles a run's Result from its counts. mlpSum is the sum
// over cycles of the useful off-chip accesses outstanding, mlpCycles the
// number of cycles with at least one.
func newResult(cfg Config, insts, cycles, mlpSum, mlpCycles int64, accesses uint64) Result {
	res := Result{
		Config:       cfg,
		Instructions: insts,
		Cycles:       cycles,
		MLPCycles:    mlpCycles,
		Accesses:     accesses,
	}
	if mlpCycles > 0 {
		res.MLP = float64(mlpSum) / float64(mlpCycles)
	}
	return res
}

func (p *pipeline) finished() bool {
	return p.srcDone && p.retired == p.queued && !p.pending
}

// ready reports whether the producer at absolute index i has produced
// its value; -1 (no producer) and retired producers always have.
func (p *pipeline) ready(i int64) bool {
	return i < p.retired || p.ops[i&p.mask].doneAt <= p.cycle
}

// latency returns the result latency for a data access.
func (p *pipeline) latency(offChip bool) int64 {
	if offChip && !p.cfg.PerfectL2 {
		return int64(p.cfg.MissPenalty)
	}
	if offChip {
		return int64(p.cfg.L2Latency)
	}
	return int64(p.cfg.L1Latency)
}

// noteAccess registers one useful off-chip access outstanding for lat
// cycles.
func (p *pipeline) noteAccess(lat int64) {
	p.outstanding++
	p.accesses++
	p.completions.push(p.cycle + lat)
}

// mshrFull reports whether a new off-chip access must wait for a free
// miss register.
func (p *pipeline) mshrFull() bool {
	return p.cfg.MSHRs > 0 && p.outstanding >= p.cfg.MSHRs
}

func (p *pipeline) doCompletions() {
	for p.completions.len() > 0 && p.completions.min() <= p.cycle {
		p.completions.pop()
		p.outstanding--
	}
}

func (p *pipeline) retire() int {
	n := 0
	for n < p.cfg.RetireWidth && p.retired < p.dispatched && p.ops[p.retired&p.mask].doneAt <= p.cycle {
		p.retired++
		n++
	}
	return n
}

// issue picks ready, constraint-satisfying instructions oldest first,
// walking only the unissued entries. It returns the number issued.
func (p *pipeline) issue() int {
	n := 0
	// Whether an older entry still waits this cycle: a memory write
	// whose address is unresolved, a load or memory write, a branch.
	var storeUnresolved, memWaiting, branchWaiting bool
	list := p.waiting
	kept, i := 0, 0
	for ; i < len(list) && n < p.cfg.IssueWidth; i++ {
		abs := list[i]
		e := &p.ops[abs&p.mask]
		if p.tryIssue(abs, e, storeUnresolved, memWaiting, branchWaiting) {
			n++
			continue
		}
		list[kept] = abs
		kept++
		f := e.flags
		if f&uSerial != 0 {
			// A waiting serializing instruction drains the pipeline:
			// nothing younger issues past it.
			i++
			break
		}
		if f&uStore != 0 && !storeUnresolved && !p.ready(e.prod1) {
			storeUnresolved = true
		}
		if f&uMem != 0 {
			memWaiting = true
		}
		if f&uBranch != 0 {
			branchWaiting = true
		}
	}
	if kept < i {
		kept += copy(list[kept:], list[i:])
		p.waiting = list[:kept]
	}
	return n
}

// tryIssue attempts to issue one entry under the configuration's
// constraints; it returns true if the entry issued this cycle. An entry
// issued this cycle is done no earlier than the next, so the readiness
// tests see the same machine state wherever they fall in the walk.
func (p *pipeline) tryIssue(abs int64, e *uop, storeUnresolved, memWaiting, branchWaiting bool) bool {
	f := e.flags
	if f&uSerial != 0 && abs != p.retired {
		return false
	}
	if !p.ready(e.prod1) || !p.ready(e.prod2) {
		return false
	}
	if f&uLoad != 0 {
		if !p.ready(e.memProd) {
			return false
		}
		if p.cfg.Issue.LoadsInOrder() && memWaiting {
			return false
		}
		if p.cfg.Issue.LoadsWaitStoreAddr() && storeUnresolved {
			return false
		}
	}
	if f&uBranch != 0 && p.cfg.Issue.BranchesInOrder() && branchWaiting {
		return false
	}
	// Finite MSHRs: a new off-chip access waits for a free register.
	offChip := f&uMiss != 0
	if offChip && !p.cfg.PerfectL2 && p.mshrFull() {
		return false
	}

	switch {
	case f&uPrefetch != 0:
		if offChip && !p.cfg.PerfectL2 {
			p.noteAccess(int64(p.cfg.MissPenalty))
		}
		e.doneAt = p.cycle + 1 // fire and forget
	case f&uLoad != 0:
		lat := p.latency(offChip)
		if offChip && !p.cfg.PerfectL2 {
			p.noteAccess(lat)
		}
		e.doneAt = p.cycle + lat
	case f&uBranch != 0:
		e.doneAt = p.cycle + 1
		if p.awaitBranch == abs {
			// Resolution redirects the front end.
			p.fetchStall = max(p.fetchStall, e.doneAt+int64(p.cfg.MispredictPenalty))
			p.awaitBranch = -1
		}
	default:
		// ALU ops, and stores, which commit from the store buffer.
		e.doneAt = p.cycle + 1
	}
	return true
}

func (p *pipeline) dispatch() int {
	n := 0
	for n < p.cfg.DispatchWidth && p.dispatched < p.queued {
		if p.dispatched-p.retired >= int64(p.cfg.ROB) || len(p.waiting) >= p.cfg.IssueWindow {
			break
		}
		p.waiting = append(p.waiting, p.dispatched)
		p.dispatched++
		n++
	}
	return n
}

func (p *pipeline) fetch(w *window) int {
	// An off-chip instruction fetch in flight delivers its instruction
	// when the line arrives. A fetch still waiting for a free MSHR issues
	// its access as soon as one drains.
	if p.pending {
		e := &p.ops[p.queued&p.mask]
		if e.flags&uIMiss != 0 {
			if p.mshrFull() {
				return 0
			}
			p.noteAccess(int64(p.cfg.MissPenalty))
			e.flags &^= uIMiss
			p.pendingAt = p.cycle + int64(p.cfg.MissPenalty)
			return 1
		}
		if p.cycle < p.pendingAt {
			return 0
		}
		p.enqueue()
		p.pending = false
		return 1
	}
	if p.cycle < p.fetchStall || p.awaitBranch >= 0 {
		return 0
	}
	n := 0
	for n < p.cfg.FetchWidth && p.queued-p.dispatched < int64(p.cfg.FetchBuffer) {
		if p.srcDone {
			break
		}
		// advance's pause leaves fetched < w.end here unless the
		// stream has ended.
		if p.fetched >= p.limit || p.fetched >= w.end {
			p.srcDone = true
			break
		}
		e := &p.ops[p.fetched&p.mask]
		*e = w.ops[p.fetched&w.mask]
		p.fetched++
		if e.flags&uIMiss != 0 && !p.cfg.PerfectL2 {
			p.pending = true
			if p.mshrFull() {
				// No MSHR free: the fetch waits (uIMiss stays set; the
				// pending branch above issues the access when a
				// register drains).
				return n
			}
			// Fetch blocks until the line returns; the access overlaps
			// with whatever else is outstanding.
			p.noteAccess(int64(p.cfg.MissPenalty))
			p.pendingAt = p.cycle + int64(p.cfg.MissPenalty)
			e.flags &^= uIMiss
			return n + 1
		}
		p.enqueue()
		n++
		if e.flags&uIMiss != 0 {
			// Perfect L2: the line comes from the L2 after a short
			// front-end bubble.
			p.fetchStall = p.cycle + int64(p.cfg.L2Latency)
			break
		}
		if p.awaitBranch >= 0 {
			break
		}
	}
	return n
}

// enqueue moves the fetched instruction at index queued into the fetch
// queue. A mispredicted branch holds fetch from then on, whichever path
// it arrived by (directly, or after its off-chip I-line): fetch proceeds
// down the wrong path until resolution, and the trace holds only
// correct-path instructions, so fetch waits for the branch to resolve
// and redirect.
func (p *pipeline) enqueue() {
	if p.ops[p.queued&p.mask].flags&uMispred != 0 {
		p.awaitBranch = p.queued
	}
	p.queued++
}

// leap advances time to the next event when a cycle made no progress:
// everything in flight waits on a completion, an arriving I-line, or a
// front-end redirect.
func (p *pipeline) leap() {
	next := int64(1 << 62)
	for i := p.retired; i < p.dispatched; i++ {
		if d := p.ops[i&p.mask].doneAt; d > p.cycle && d < next {
			next = d
		}
	}
	if p.pending && p.ops[p.queued&p.mask].flags&uIMiss == 0 && p.pendingAt < next {
		next = p.pendingAt
	}
	if p.completions.len() > 0 && p.completions.min() > p.cycle && p.completions.min() < next {
		next = p.completions.min()
	}
	if p.fetchStall > p.cycle && p.fetchStall < next {
		next = p.fetchStall
	}
	if next >= 1<<62 {
		// No timed event: either we are finished, or the machine is
		// deadlocked (a bug).
		if !p.finished() {
			panic(fmt.Sprintf("cyclesim: deadlock at cycle %d (rob=%d fetchQ=%d)",
				p.cycle, p.dispatched-p.retired, p.queued-p.dispatched))
		}
		return
	}
	if next <= p.cycle+1 {
		return
	}
	gap := next - p.cycle - 1
	if p.outstanding > 0 {
		p.mlpSum += int64(p.outstanding) * gap
		p.mlpCycles += gap
	}
	p.cycle += gap
}
