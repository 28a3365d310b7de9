package cyclesim

// timer runs one configuration with unlimited MSHRs without stepping
// cycles. Every cycle an instruction waits for in the pipeline is set by
// older instructions: register and store producers, the oldest-first
// issue walk (its IssueWidth cut, the A-C ordering flags, the stop at a
// waiting serializing instruction), ROB, issue-window and fetch-buffer
// occupancy, front-end stalls and in-order retire. So one pass in program
// order computes each instruction's fetch, enqueue, dispatch, issue, done
// and retire cycles from older instructions' cycles, exactly as the
// pipeline would reach them (DESIGN §12). A finite MSHR file breaks this —
// a younger access that issued first can hold the register an older load
// needs — so those configs keep the pipeline.
type timer struct {
	cfg   Config
	limit int64 // MaxInstructions, or MaxInt64 for the whole stream
	slot  int   // the gang's result index
	n     int64 // instructions timed
	done  bool

	// at holds the cycles of the latest instructions, indexed by absolute
	// position. It spans every distance the recurrences look back (ROB,
	// FetchBuffer, the stage widths), so a position before the stream
	// reads its never-written zero slot.
	at   []times
	mask int64

	// front is the first cycle the front end can fetch instruction n.
	front int64
	// The issue walk's ordering, as floors on a younger instruction's
	// issue cycle: the issue cycle of the last serializing instruction,
	// the latest issue of a load or memory write (configuration A), the
	// latest address-ready cycle of a memory write (A and B) and the
	// latest branch issue.
	serialIssue, memIssue, storeAddr, branchIssue int64

	// cal counts issues per cycle: slot c&calMask holds the count of cycle
	// c for every c in [calLo, calLo+len(cal)). Every younger instruction
	// issues after its own dispatch, so cycles up to the latest dispatch
	// are dead: place clears their slots calChunk cycles at a time (calLo
	// stays a multiple of calChunk) and grows the calendar when the live
	// cycles outgrow it.
	cal      []uint32
	calMask  int64
	calLo    int64
	width    uint32 // IssueWidth, clamped to IssueWindow
	maxIssue int64

	// unissued holds the issue cycles of older instructions that were
	// unissued at the latest dispatch (only when IssueWindow < ROB).
	unissued eventHeap

	// starts holds the start cycles of the off-chip accesses not yet swept
	// into the MLP sums; every access lasts MissPenalty cycles.
	starts    eventHeap
	covered   int64 // end of the union of the swept accesses
	mlpSum    int64
	mlpCycles int64
	accesses  uint64
}

// calChunk is how many dead calendar cycles place clears at once.
const calChunk = 64

// never is a cycle no run reaches.
const never = 1 << 62

// times are one instruction's cycles. An instruction fetched in cycle f
// is enqueued in f (or when its off-chip I-line arrives), dispatched at
// least a cycle later, issued at least a cycle after that, done at issue
// plus its latency and retired at or after done.
type times struct{ fetch, dispatch, done, retire int64 }

// newTimer builds the timing state of a validated config.
func newTimer(cfg Config, slot int) timer {
	n := ringCap(max(cfg.ROB, cfg.FetchBuffer, cfg.FetchWidth, cfg.DispatchWidth, cfg.RetireWidth) + 1)
	// Live cycles reach a few dependent latencies past the latest
	// dispatch: up to about 8 off-chip latencies on the paper workloads.
	// place grows the calendar when they outgrow it.
	lat := max(cfg.MissPenalty, cfg.L2Latency)
	if cfg.PerfectL2 {
		lat = cfg.L2Latency
	}
	calN := ringCap(max(8*lat, 2*calChunk))
	t := timer{
		cfg:     cfg,
		limit:   instLimit(cfg),
		slot:    slot,
		at:      make([]times, n),
		mask:    int64(n) - 1,
		front:   1,
		cal:     make([]uint32, calN),
		calMask: int64(calN) - 1,
		// More than IssueWindow instructions never issue in one cycle:
		// only waiting entries issue. The clamp fits the width in a count.
		width:  uint32(min(cfg.IssueWidth, cfg.IssueWindow)),
		starts: eventHeap{a: make([]int64, 0, 64)},
	}
	if cfg.IssueWindow < cfg.ROB {
		t.unissued.a = make([]int64, 0, cfg.IssueWindow)
	}
	return t
}

// advance times the decoded instructions up to the limit. It returns true
// when the run is complete, false when it needs the next block.
func (t *timer) advance(w *window) bool {
	if stop := min(w.end, t.limit); t.n < stop {
		t.time(w, stop)
	}
	return t.n >= t.limit || w.eof
}

// time runs the recurrences over instructions [t.n, stop), keeping the
// state it updates per instruction in locals.
func (t *timer) time(w *window, stop int64) {
	c := &t.cfg
	fw, fb, dw := int64(c.FetchWidth), int64(c.FetchBuffer), int64(c.DispatchWidth)
	rob, rw := int64(c.ROB), int64(c.RetireWidth)
	mp, l1, l2, mpp := int64(c.MissPenalty), int64(c.L1Latency), int64(c.L2Latency), int64(c.MispredictPenalty)
	perfectL2 := c.PerfectL2
	loadsInOrder, loadsWait, branchesInOrder := c.Issue.LoadsInOrder(), c.Issue.LoadsWaitStoreAddr(), c.Issue.BranchesInOrder()
	iw, windowBound := c.IssueWindow, c.IssueWindow < c.ROB

	at, mask := t.at, t.mask
	front := t.front
	serialIssue, memIssue, storeAddr, branchIssue := t.serialIssue, t.memIssue, t.storeAddr, t.branchIssue
	prev := at[(t.n-1)&mask]
	for i := t.n; i < stop; i++ {
		u := &w.ops[i&w.mask]
		f := u.flags

		fetch := max(front, at[(i-fw)&mask].fetch+1, at[(i-fb)&mask].dispatch)
		enq, next := fetch, fetch
		if f&uIMiss != 0 {
			if perfectL2 {
				next = fetch + l2
			} else {
				t.starts.push(fetch)
				t.accesses++
				enq = fetch + mp
				next = enq + 1
			}
		}

		disp := max(enq+1, prev.dispatch, at[(i-dw)&mask].dispatch+1, at[(i-rob)&mask].retire)
		if windowBound {
			// Dispatch waits until fewer than IssueWindow older
			// instructions are unissued.
			h := &t.unissued
			for h.len() > 0 && h.min() <= disp {
				h.pop()
			}
			for h.len() >= iw {
				disp = h.pop()
				for h.len() > 0 && h.min() <= disp {
					h.pop()
				}
			}
		}

		// A producer at or before i-ROB retired by i's dispatch: one
		// compare drops it (and the -1 of no producer, once i ≥ ROB-1;
		// before that -1 reads a zero slot).
		lo := i - rob
		ready := max(disp+1, serialIssue)
		var addr int64
		if p := u.prod1; p > lo {
			addr = at[p&mask].done
			ready = max(ready, addr)
		}
		if p := u.prod2; p > lo {
			ready = max(ready, at[p&mask].done)
		}
		if f&uSerial != 0 {
			ready = max(ready, prev.retire)
		}
		if f&uLoad != 0 {
			if p := u.memProd; p > lo {
				ready = max(ready, at[p&mask].done)
			}
			if loadsInOrder {
				ready = max(ready, memIssue)
			}
			if loadsWait {
				ready = max(ready, storeAddr)
			}
		}
		if f&uBranch != 0 && branchesInOrder {
			ready = max(ready, branchIssue)
		}
		issue := t.place(ready, disp)
		if windowBound {
			t.unissued.push(issue)
		}

		lat := int64(1)
		switch {
		case f&uPrefetch != 0:
			if f&uMiss != 0 && !perfectL2 {
				t.starts.push(issue)
				t.accesses++
			}
		case f&uLoad != 0:
			lat = l1
			if f&uMiss != 0 {
				if perfectL2 {
					lat = l2
				} else {
					lat = mp
					t.starts.push(issue)
					t.accesses++
				}
			}
		}
		done := issue + lat
		if f&uMispred != 0 {
			// Fetch waits for the branch to resolve and redirect.
			next = max(next, done+mpp)
		}
		if f&uSerial != 0 {
			serialIssue = issue
		}
		if f&uMem != 0 {
			memIssue = max(memIssue, issue)
		}
		if f&uStore != 0 {
			storeAddr = max(storeAddr, addr)
		}
		if f&uBranch != 0 {
			branchIssue = max(branchIssue, issue)
		}

		prev = times{fetch, disp, done, max(done, prev.retire, at[(i-rw)&mask].retire+1)}
		at[i&mask] = prev
		front = next
	}
	t.n = stop
	t.front = front
	t.serialIssue, t.memIssue, t.storeAddr, t.branchIssue = serialIssue, memIssue, storeAddr, branchIssue
	// No later access starts before the front end's next fetch.
	t.sweep(front, never)
}

// place returns the first cycle at or after ready in which fewer than
// IssueWidth older instructions issue, and counts the issue there.
func (t *timer) place(ready, disp int64) int64 {
	cal, m := t.cal, t.calMask
	if lo := (disp + 1) &^ (calChunk - 1); lo > t.calLo {
		if a, b := t.calLo&m, lo&m; lo-t.calLo > m {
			clear(cal)
		} else if a < b {
			clear(cal[a:b])
		} else {
			clear(cal[a:])
			clear(cal[:b])
		}
		t.calLo = lo
	}
	if top := max(ready, t.maxIssue+1); top-t.calLo > m {
		t.growCal(ringCap(int(top - t.calLo + 1)))
		cal, m = t.cal, t.calMask
	}
	c := ready
	for cal[c&m] >= t.width {
		c++
	}
	cal[c&m]++
	t.maxIssue = max(t.maxIssue, c)
	return c
}

// growCal moves the live counts to a calendar of n cycles.
func (t *timer) growCal(n int) {
	cal, m := make([]uint32, n), int64(n)-1
	for c := t.calLo; c <= t.maxIssue; c++ {
		cal[c&m] = t.cal[c&t.calMask]
	}
	t.cal, t.calMask = cal, m
}

// sweep moves every access that ends by cycle by into the MLP sums, in
// start order, counting only its cycles before end. The caller
// guarantees no access still to come starts before the swept ones, so
// the union of the intervals grows only at its end.
func (t *timer) sweep(by, end int64) {
	mp := int64(t.cfg.MissPenalty)
	for t.starts.len() > 0 && t.starts.min()+mp <= by {
		s := t.starts.pop()
		e := min(s+mp, end)
		t.mlpSum += e - s
		if lo := max(s, t.covered); e > lo {
			t.mlpCycles += e - lo
		}
		t.covered = s + mp
	}
}

// result closes the run. The pipeline ends at the top of the first cycle
// after both the last retire and the cycle in which fetch finds the
// stream's end. When everything retired earlier, that fetch cycle makes
// no progress and the pipeline's leap jumps to the next outstanding
// completion (a prefetch's) first, counting the idle cycles; the timer
// reproduces that rule (DESIGN §12).
func (t *timer) result() Result {
	c, at, n := &t.cfg, t.at, t.n
	eos := max(t.front, at[(n-int64(c.FetchWidth))&t.mask].fetch+1, at[(n-int64(c.FetchBuffer))&t.mask].dispatch)
	cycles := at[(n-1)&t.mask].retire
	if cycles < eos {
		t.sweep(eos, never)
		cycles = eos
		if t.starts.len() > 0 {
			cycles = t.starts.min() + int64(c.MissPenalty) - 1
		}
	}
	t.sweep(never, cycles+1)
	return newResult(t.cfg, n, cycles, t.mlpSum, t.mlpCycles, t.accesses)
}
