package smt

// Scheduled interleaving: from timing-free bounds to fetch policies.
//
// Run reports how much MLP multithreading *could* add as a
// [CombinedLower, CombinedUpper] bracket. The scheduled engine here
// picks a point inside that bracket by actually arbitrating the shared
// fetch unit: K per-thread engines step epoch-at-a-time (core.Stepper,
// a gang of one over each thread's stream, recording every epoch it
// steps, accesses or none), and a fetch Policy decides which thread's
// epoch advances whenever the fetch unit frees up.
//
// The timing model stays deliberately simple so the bracket holds by
// construction. Time is counted in fetch units (one instruction slot
// each, the fetch unit is serial). A thread's epoch costs its fetched
// instruction count in fetch units; an epoch with off-chip accesses
// issues its whole miss burst at the epoch's first fetch grant, the
// burst stays in flight for EpochLatency fetch units, and the thread's
// next epoch cannot start before the burst resolves. Machine busy time
// is the union of all in-flight miss windows, and
//
//	AggMLP = total accesses / (busy time / EpochLatency).
//
// Each burst contributes a window of exactly EpochLatency, so the union
// is at most (sum of per-thread epoch counts) windows long — AggMLP >=
// CombinedLower — and one thread's windows never overlap each other, so
// the union is at least the largest per-thread epoch count long —
// AggMLP <= CombinedUpper. Any policy, any granule: the bracket holds.

import (
	"fmt"
	"slices"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/trace"
	"mlpsim/internal/workload"
)

// Policy names accepted by SchedConfig.Policy.
const (
	// PolicyRoundRobin grants fetch granules cyclically in thread order —
	// the scheduled twin of the fixed-granule interleaver.
	PolicyRoundRobin = "round-robin"
	// PolicyICount grants the thread with the fewest unretired
	// instructions (ICOUNT-style fetch).
	PolicyICount = "icount"
	// PolicyMLPAware deprioritizes a thread once its epoch's miss burst
	// has issued, fetching threads that can still start new bursts so
	// outstanding misses overlap; the deprioritized thread resumes at its
	// epoch boundary, backed by an anti-starvation share floor.
	PolicyMLPAware = "mlp-aware"
)

// PolicyNames lists every fetch policy in presentation order.
func PolicyNames() []string {
	return []string{PolicyRoundRobin, PolicyICount, PolicyMLPAware}
}

// SchedConfig parameterizes one scheduled SMT simulation.
type SchedConfig struct {
	Config
	// Policy selects the fetch policy (default PolicyRoundRobin).
	Policy string
	// EpochLatency is the modeled off-chip miss latency in fetch units
	// (default 512: the paper's memory latency in processor cycles, one
	// fetch slot per cycle).
	EpochLatency int64
	// FairFloor is PolicyMLPAware's anti-starvation fetch-share floor in
	// [0, 1); 0 means the default 0.5/K.
	FairFloor float64
}

// Validate reports configuration errors.
func (c *SchedConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	switch c.Policy {
	case "", PolicyRoundRobin, PolicyICount, PolicyMLPAware:
	default:
		return fmt.Errorf("smt: unknown policy %q", c.Policy)
	}
	if c.EpochLatency < 0 {
		return fmt.Errorf("smt: negative epoch latency %d", c.EpochLatency)
	}
	if c.FairFloor < 0 || c.FairFloor >= 1 {
		return fmt.Errorf("smt: fair floor %v outside [0, 1)", c.FairFloor)
	}
	return nil
}

// EpochRec is one epoch of a thread's schedule trace: the fetch units
// the epoch consumed, the off-chip miss burst it issued, and the
// thread's window occupancy at the epoch boundary. The records are a
// pure function of the thread's annotated stream — the policy decides
// when epochs run, never what happens inside them — so one trace
// pre-pass serves every policy.
type EpochRec struct {
	Insts     int64
	Accesses  uint64
	Unretired int64
}

// ThreadState is the per-thread scheduler state a Policy ranks when the
// shared fetch unit frees up.
type ThreadState struct {
	// Thread is the thread index.
	Thread int
	// EpochLeft is the fetch units remaining in the thread's current
	// epoch (its outstanding epoch position).
	EpochLeft int64
	// Issued reports whether the current epoch's miss burst is already
	// out; InFlight is its size while the burst is still unresolved.
	Issued   bool
	InFlight int
	// Unretired approximates the thread's window occupancy: the last
	// epoch boundary's count plus the units fetched since.
	Unretired int64
	// Fetched is the thread's cumulative fetch units and Share its
	// fraction of all fetch units granted so far.
	Fetched int64
	Share   float64
	// MissDensity is the thread's historical off-chip accesses per fetch
	// unit — how likely granting it is to start new misses.
	MissDensity float64
}

// Policy arbitrates the shared fetch unit. Pick receives the non-empty
// ready set (threads able to fetch now) and returns an index into it.
// Implementations may keep state across picks but must be deterministic.
type Policy interface {
	Name() string
	Pick(ready []ThreadState) int
}

// NewPolicy builds the named policy for a K-thread machine; floor is
// PolicyMLPAware's share floor (0 = default 0.5/K). The empty name means
// PolicyRoundRobin.
func NewPolicy(name string, k int, floor float64) (Policy, error) {
	switch name {
	case "", PolicyRoundRobin:
		return &roundRobin{k: k, prev: -1}, nil
	case PolicyICount:
		return iCount{}, nil
	case PolicyMLPAware:
		if floor == 0 {
			floor = 0.5 / float64(k)
		}
		return &mlpAware{floor: floor}, nil
	}
	return nil, fmt.Errorf("smt: unknown policy %q", name)
}

// roundRobin cycles threads in index order from the last grant, exactly
// like the fixed-granule interleaver's rotation; stalled and finished
// threads are skipped.
type roundRobin struct {
	k    int
	prev int
}

func (p *roundRobin) Name() string { return PolicyRoundRobin }

func (p *roundRobin) Pick(ready []ThreadState) int {
	best, bestKey := 0, p.k
	for i, ts := range ready {
		key := ts.Thread - p.prev - 1
		if key < 0 {
			key += p.k
		}
		if key < bestKey {
			best, bestKey = i, key
		}
	}
	p.prev = ready[best].Thread
	return best
}

// iCount grants the thread with the fewest unretired instructions,
// tie-broken by least fetched, then lowest index.
type iCount struct{}

func (iCount) Name() string { return PolicyICount }

func (iCount) Pick(ready []ThreadState) int {
	best := 0
	for i := 1; i < len(ready); i++ {
		a, b := &ready[i], &ready[best]
		switch {
		case a.Unretired != b.Unretired:
			if a.Unretired < b.Unretired {
				best = i
			}
		case a.Fetched != b.Fetched:
			if a.Fetched < b.Fetched {
				best = i
			}
		case a.Thread < b.Thread:
			best = i
		}
	}
	return best
}

// mlpAware deprioritizes threads whose current epoch already issued its
// burst (fetching them cannot start new misses before their epoch
// boundary) and grants the un-issued thread with the highest miss
// density, so bursts from different threads overlap. Two overrides keep
// it from degenerating: a thread whose fetch share fell below the floor
// is granted unconditionally (anti-starvation), and when every ready
// epoch is mid-flight the one closest to its boundary runs, so the
// deprioritized thread resumes at the epoch boundary rather than
// parking.
type mlpAware struct {
	floor      float64
	floorPicks uint64
}

func (p *mlpAware) Name() string { return PolicyMLPAware }

func (p *mlpAware) Pick(ready []ThreadState) int {
	starved := -1
	for i := range ready {
		ts := &ready[i]
		if ts.Share >= p.floor {
			continue
		}
		if starved < 0 || ts.Share < ready[starved].Share ||
			(ts.Share == ready[starved].Share && ts.Thread < ready[starved].Thread) {
			starved = i
		}
	}
	if starved >= 0 {
		p.floorPicks++
		return starved
	}
	best := -1
	for i := range ready {
		ts := &ready[i]
		if ts.Issued {
			continue
		}
		if best < 0 || ts.MissDensity > ready[best].MissDensity ||
			(ts.MissDensity == ready[best].MissDensity && ts.Thread < ready[best].Thread) {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	best = 0
	for i := 1; i < len(ready); i++ {
		a, b := &ready[i], &ready[best]
		if a.EpochLeft < b.EpochLeft || (a.EpochLeft == b.EpochLeft && a.Thread < b.Thread) {
			best = i
		}
	}
	return best
}

// SchedResult summarizes one scheduled SMT run.
type SchedResult struct {
	// Policy is the fetch policy that produced the result.
	Policy string
	// PerThread holds each thread's engine result under the shared
	// hierarchy; identical across policies by construction.
	PerThread []core.Result
	// CombinedLower and CombinedUpper are the timing-free bounds (same
	// definition as Result); AggMLP always lands between them.
	CombinedLower, CombinedUpper float64
	// MachineEpochs is the machine's busy time in units of EpochLatency:
	// the measure of the union of all in-flight miss windows.
	MachineEpochs float64
	// AggMLP is total off-chip accesses / MachineEpochs — the scheduled
	// machine's aggregate MLP.
	AggMLP float64
	// Shares are per-thread fetch shares sampled when the first thread
	// finishes its budget (afterwards the machine drains and shares
	// trivially converge); MinShare/MaxShare summarize them.
	Shares             []float64
	MinShare, MaxShare float64
	// Switches counts fetch grants that moved to a different thread,
	// Bursts the issued miss bursts, Overlapped the bursts issued while
	// another burst was still in flight, and FloorPicks the mlp-aware
	// anti-starvation overrides.
	Switches, Bursts, Overlapped, FloorPicks uint64
}

// schedThread is one thread's replay cursor over its epoch trace.
type schedThread struct {
	epochs []EpochRec
	cur    int   // current epoch index
	rem    int64 // fetch units left in the current epoch
	issued bool
	// issueAt is the current epoch's burst issue time (valid when issued).
	issueAt int64
	readyAt int64
	fetched int64
	// accIssued accumulates issued accesses (miss-density numerator);
	// lastU is the occupancy recorded at the last closed epoch boundary.
	accIssued uint64
	lastU     int64
	done      bool
}

// open closes the current epoch at time now and positions the thread at
// its next fetch-consuming epoch. Zero-fetch epochs (window-drain tails)
// issue their bursts in passing without consuming a fetch slot.
func (s *schedThread) open(now int64, m *schedMachine) {
	for {
		if s.issued {
			if end := s.issueAt + m.latency; end > now {
				now = end
			}
		}
		if s.cur >= 0 && s.cur < len(s.epochs) {
			s.lastU = s.epochs[s.cur].Unretired
		}
		s.cur++
		s.issued = false
		if s.cur >= len(s.epochs) {
			s.done = true
			return
		}
		e := &s.epochs[s.cur]
		if e.Insts > 0 {
			s.rem = e.Insts
			s.readyAt = now
			return
		}
		if e.Accesses > 0 {
			m.issue(s, now, e.Accesses)
		}
	}
}

// schedMachine is the shared-machine half of a schedule replay: the
// global clock, the recorded miss windows and the run counters.
type schedMachine struct {
	latency int64
	// starts records every burst's issue time; the busy-time union is
	// computed in one sweep at the end (bursts from different threads can
	// be recorded out of order when drain tails run ahead of the clock).
	starts []int64
	bursts uint64
}

// issue records thread s's current-epoch burst at time now.
func (m *schedMachine) issue(s *schedThread, now int64, acc uint64) {
	m.bursts++
	m.starts = append(m.starts, now)
	s.issued = true
	s.issueAt = now
	s.accIssued += acc
}

// Scheduler replays pre-computed per-thread epoch traces with reusable
// scratch — thread replay cursors, the ready set, the burst-start log
// and the fetch-share buffer. Construction (and the first replay at a
// given thread count) allocates; steady-state Schedule calls do not.
// The returned result's Shares slice aliases the Scheduler's buffer and
// is only valid until the next Schedule call; the package-level
// Schedule wrapper clones it for callers that keep results around.
type Scheduler struct {
	m       schedMachine
	threads []schedThread
	ready   []ThreadState
	shares  []float64
	rr      roundRobin
	ma      mlpAware
}

// NewScheduler returns an empty Scheduler; buffers grow on first use.
func NewScheduler() *Scheduler { return &Scheduler{} }

// policy returns the named policy backed by the Scheduler's cached
// instances, reset for a fresh k-thread replay. It panics on an unknown
// name, like Schedule always has.
func (sc *Scheduler) policy(name string, k int, floor float64) Policy {
	switch name {
	case "", PolicyRoundRobin:
		sc.rr = roundRobin{k: k, prev: -1}
		return &sc.rr
	case PolicyICount:
		return iCount{}
	case PolicyMLPAware:
		if floor == 0 {
			floor = 0.5 / float64(k)
		}
		sc.ma = mlpAware{floor: floor}
		return &sc.ma
	}
	panic(fmt.Errorf("smt: unknown policy %q", name))
}

// Schedule replays pre-computed per-thread epoch traces under the named
// policy — the pure scheduling core of RunScheduled, exported so
// benchmarks and property tests can drive it over synthetic traces.
// granule <= 0 and latency <= 0 select the defaults (64, 512); floor is
// the mlp-aware share floor (0 = default). It panics on an unknown
// policy name or an empty trace set. The result's Shares slice owns its
// memory (unlike Scheduler.Schedule's, which is reused).
func Schedule(traces [][]EpochRec, policy string, granule, latency int64, floor float64) SchedResult {
	res := NewScheduler().Schedule(traces, policy, granule, latency, floor)
	res.Shares = append([]float64(nil), res.Shares...)
	return res
}

// Schedule is the reusing form of the package-level Schedule: identical
// semantics and output, but all scratch comes from the Scheduler and
// the result's Shares alias its buffer (valid until the next call).
func (sc *Scheduler) Schedule(traces [][]EpochRec, policy string, granule, latency int64, floor float64) SchedResult {
	k := len(traces)
	if k == 0 {
		panic("smt: Schedule needs at least one thread trace")
	}
	if granule <= 0 {
		granule = 64
	}
	if latency <= 0 {
		latency = 512
	}
	pol := sc.policy(policy, k, floor)

	m := &sc.m
	m.latency = latency
	m.starts = m.starts[:0]
	m.bursts = 0
	if cap(sc.threads) < k {
		sc.threads = make([]schedThread, k)
	}
	threads := sc.threads[:k]
	running := 0
	for i := range threads {
		threads[i] = schedThread{epochs: traces[i], cur: -1}
		threads[i].open(0, m)
		if !threads[i].done {
			running++
		}
	}

	if cap(sc.shares) < k {
		sc.shares = make([]float64, k)
	}
	res := SchedResult{
		Policy: pol.Name(),
		Shares: sc.shares[:k],
	}
	for i := range res.Shares {
		res.Shares[i] = 0
	}
	var t int64
	var totalFetch int64
	last := -1
	sharesSampled := running < k // an empty trace finishes "first" at t=0
	ready := sc.ready[:0]

	for running > 0 {
		ready = ready[:0]
		nextReady := int64(-1)
		for i := range threads {
			s := &threads[i]
			if s.done {
				continue
			}
			if s.readyAt > t {
				if nextReady < 0 || s.readyAt < nextReady {
					nextReady = s.readyAt
				}
				continue
			}
			e := &s.epochs[s.cur]
			ts := ThreadState{
				Thread:    i,
				EpochLeft: s.rem,
				Issued:    s.issued,
				Unretired: s.lastU + (e.Insts - s.rem),
				Fetched:   s.fetched,
			}
			if s.issued && t < s.issueAt+latency {
				ts.InFlight = int(e.Accesses)
			}
			if totalFetch > 0 {
				ts.Share = float64(s.fetched) / float64(totalFetch)
			}
			if s.fetched > 0 {
				ts.MissDensity = float64(s.accIssued) / float64(s.fetched)
			}
			ready = append(ready, ts)
		}
		if len(ready) == 0 {
			t = nextReady
			continue
		}

		th := ready[pol.Pick(ready)].Thread
		if last >= 0 && th != last {
			res.Switches++
		}
		last = th
		s := &threads[th]
		if e := &s.epochs[s.cur]; !s.issued && e.Accesses > 0 {
			m.issue(s, t, e.Accesses)
		}
		q := granule
		if q > s.rem {
			q = s.rem
		}
		t += q
		s.rem -= q
		s.fetched += q
		totalFetch += q
		if s.rem == 0 {
			s.open(t, m)
			if s.done {
				running--
				if !sharesSampled {
					sharesSampled = true
					sampleShares(threads, totalFetch, &res)
				}
			}
		}
	}
	if !sharesSampled {
		sampleShares(threads, totalFetch, &res)
	}
	sc.ready = ready[:0] // keep any capacity append grew

	res.Bursts = m.bursts
	res.Overlapped, res.MachineEpochs = m.union()
	res.CombinedLower, res.CombinedUpper = traceBounds(traces)
	if res.MachineEpochs > 0 {
		var acc uint64
		for i := range threads {
			acc += threads[i].accIssued
		}
		res.AggMLP = float64(acc) / res.MachineEpochs
	}
	if ma, ok := pol.(*mlpAware); ok {
		res.FloorPicks = ma.floorPicks
	}
	return res
}

// sampleShares snapshots per-thread fetch shares into res.
func sampleShares(threads []schedThread, total int64, res *SchedResult) {
	for i := range threads {
		if total > 0 {
			res.Shares[i] = float64(threads[i].fetched) / float64(total)
		}
	}
	res.MinShare, res.MaxShare = 1, 0
	for _, sh := range res.Shares {
		if sh < res.MinShare {
			res.MinShare = sh
		}
		if sh > res.MaxShare {
			res.MaxShare = sh
		}
	}
	if len(res.Shares) == 0 || res.MinShare > res.MaxShare {
		res.MinShare, res.MaxShare = 0, 0
	}
}

// union computes the overlapped-burst count and the measure of the
// union of all miss windows in units of the latency. One sort keeps the
// result independent of issue-recording order.
func (m *schedMachine) union() (overlapped uint64, machineEpochs float64) {
	if len(m.starts) == 0 {
		return 0, 0
	}
	slices.Sort(m.starts)
	var busy, end int64
	end = m.starts[0] - 1 // before the first window
	for i, st := range m.starts {
		if i > 0 && st < end {
			overlapped++
		}
		lo := st
		if end > lo {
			lo = end
		}
		hi := st + m.latency
		if hi > lo {
			busy += hi - lo
		}
		if hi > end {
			end = hi
		}
	}
	return overlapped, float64(busy) / float64(m.latency)
}

// traceBounds computes the timing-free combined-MLP bounds directly
// from epoch traces: total accesses over the max (full overlap) and the
// sum (no overlap) of per-thread access-bearing epoch counts.
func traceBounds(traces [][]EpochRec) (lower, upper float64) {
	var totalAcc, sumEp, maxEp uint64
	for _, tr := range traces {
		var ep uint64
		for _, e := range tr {
			if e.Accesses > 0 {
				ep++
				totalAcc += e.Accesses
			}
		}
		sumEp += ep
		if ep > maxEp {
			maxEp = ep
		}
	}
	if sumEp > 0 {
		lower = float64(totalAcc) / float64(sumEp)
	}
	if maxEp > 0 {
		upper = float64(totalAcc) / float64(maxEp)
	}
	return lower, upper
}

// threadTrace is one thread's pre-pass product: its engine result under
// the shared hierarchy plus the epoch records the scheduler replays.
type threadTrace struct {
	res    core.Result
	epochs []EpochRec
}

// buildThreadTraces runs the per-thread shared-hierarchy passes exactly
// like Run (one deterministic interleaved annotation pass per thread,
// filtered to that thread) but steps each engine epoch-at-a-time to
// record the schedule trace. cfg must be validated with the granule
// already defaulted.
func buildThreadTraces(cfg Config) []threadTrace {
	k := len(cfg.Threads)
	out := make([]threadTrace, k)
	for t := 0; t < k; t++ {
		srcs := make([]trace.Source, k)
		for i := range srcs {
			srcs[i] = workload.MustNew(cfg.Threads[i])
		}
		iv := &interleaver{srcs: srcs, granule: cfg.Granule, cur: -1}
		ann := annotate.New(iv, annotate.Config{Hierarchy: cfg.Hierarchy})
		ann.Warm(cfg.Warmup * int64(k))
		filt := &threadFilter{iv: iv, ann: ann, thread: t, budget: cfg.Measure}
		p := cfg.Processor
		p.MaxInstructions = cfg.Measure
		st := core.NewStepper(filt, p)
		var prevFetch int64
		var prevAcc uint64
		tr := threadTrace{}
		for st.Step() {
			tr.epochs = append(tr.epochs, EpochRec{
				Insts:     st.Fetched() - prevFetch,
				Accesses:  st.Accesses() - prevAcc,
				Unretired: st.Unretired(),
			})
			prevFetch, prevAcc = st.Fetched(), st.Accesses()
		}
		tr.res = st.Finish()
		out[t] = tr
	}
	return out
}

// RunScheduled executes one scheduled SMT simulation. It panics on
// invalid configurations.
func RunScheduled(cfg SchedConfig) SchedResult {
	return RunScheduledPolicies(cfg, []string{cfg.Policy})[0]
}

// RunScheduledPolicies runs the same configuration under several
// policies, sharing one trace pre-pass: the per-thread epoch traces are
// schedule-independent, so the K expensive interleaved annotation
// passes run once and each policy is a cheap arithmetic replay. It
// panics on invalid configurations or policy names.
func RunScheduledPolicies(cfg SchedConfig, policies []string) []SchedResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Granule == 0 {
		cfg.Granule = 64
	}
	if cfg.EpochLatency == 0 {
		cfg.EpochLatency = 512
	}
	k := len(cfg.Threads)
	out := make([]SchedResult, len(policies))
	if cfg.Measure == 0 {
		for i, name := range policies {
			pol, err := NewPolicy(name, k, cfg.FairFloor)
			if err != nil {
				panic(err)
			}
			out[i] = SchedResult{
				Policy:    pol.Name(),
				PerThread: make([]core.Result, k),
				Shares:    make([]float64, k),
			}
		}
		return out
	}
	traces := buildThreadTraces(cfg.Config)
	raw := make([][]EpochRec, k)
	for t := range traces {
		raw[t] = traces[t].epochs
	}
	for i, name := range policies {
		r := Schedule(raw, name, int64(cfg.Granule), cfg.EpochLatency, cfg.FairFloor)
		r.PerThread = make([]core.Result, k)
		for t := range traces {
			r.PerThread[t] = traces[t].res
		}
		out[i] = r
	}
	return out
}
