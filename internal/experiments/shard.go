package experiments

import (
	"fmt"
	"sync"

	"mlpsim/internal/core"
)

// Sharded sweeps.
//
// Every exhibit is deterministic for a fixed Setup: the sweep points of
// the batch-th RunMLPsimBatch call are a pure function of (exhibit,
// seed, warmup, measure). Peer replicas exploit that: a coordinator
// never serializes points over the wire — it sends only (exhibit,
// batch ordinal, point indices), and the peer re-derives the identical
// points by running the same exhibit code up to that batch. Results are
// bit-identical by the engine's determinism, so shard placement is
// purely a scheduling decision.
//
// Two modes share one hook on Setup:
//
//   - Coordinator: ShardedBy(router) makes RunMLPsimBatch ask the
//     router which replica owns each point, fetch remote shards while
//     the local shard runs, and fall back to local execution for any
//     shard a peer cannot answer. The merged slice is indistinguishable
//     from a solo run.
//   - Executor: RunExhibitShard runs an exhibit with a capture hook
//     that executes only the requested indices of the requested batch,
//     then aborts the exhibit — a peer answering for batch 0 of a
//     multi-batch exhibit never pays for the later batches.
//
// A peer executing a shard never re-shards (the executor hook carries
// no router), so requests cannot recurse through the fleet.

// ShardRouter decides point placement for a sharded sweep and fetches
// remotely-owned results. Implementations (the daemon's peer registry)
// must be safe for concurrent use.
type ShardRouter interface {
	// Owner returns the id of the replica owning point `index` of the
	// batch-th RunMLPsimBatch call of the current exhibit run, or ""
	// when this replica owns the point itself.
	Owner(batch, index int) string
	// Fetch retrieves the results for the given point indices of the
	// batch-th call from the owning replica, in request order. An error
	// (or a short reply) makes the coordinator run those points
	// locally instead.
	Fetch(owner string, batch int, indices []int) ([]core.Result, error)
}

// shardRun is the per-exhibit-run sharding state: the batch ordinal
// counter plus exactly one of router (coordinator) or cap (executor).
// Setup is passed by value, so the mutable counter lives behind this
// pointer.
type shardRun struct {
	router ShardRouter
	batch  int
	cap    *shardCapture
}

// shardCapture is the executor hook: execute only `indices` of batch
// `want`, record the results, abort the exhibit.
type shardCapture struct {
	want     int
	indices  []int
	results  []core.Result // len == batchLen; only requested indices filled
	batchLen int
	captured bool
}

// shardAbort unwinds the exhibit once the wanted batch is captured.
type shardAbort struct{}

// ShardedBy returns a copy of s whose RunMLPsimBatch calls are sharded
// through r. Each returned Setup carries a fresh batch-ordinal counter,
// so use one per exhibit run.
func (s Setup) ShardedBy(r ShardRouter) Setup {
	if r != nil {
		s.shard = &shardRun{router: r}
	}
	return s
}

// RunMLPsimBatch runs every point and returns results in point order,
// bit-identical to calling RunMLPsim per point. Points s.Memo already
// holds are answered first, before any planning, routing or capture;
// the rest that share an annotated stream are grouped and dispatched as
// gangs, with Parallelism bounding concurrent gangs, not points. Under
// ShardedBy, remotely-owned points are fetched from peers instead of
// run (bit-identical either way); under RunExhibitShard only the
// requested shard executes.
func (s Setup) RunMLPsimBatch(points []MLPPoint) []core.Result {
	results := make([]core.Result, len(points))
	sh := s.shard
	batch := 0
	if sh != nil {
		batch = sh.batch
		sh.batch++
	}
	switch {
	case sh != nil && sh.cap != nil && batch >= sh.cap.want:
		s.shardCaptureBatch(sh.cap, batch, points, results)
	case sh != nil && sh.router != nil:
		s.runBatchSharded(sh.router, batch, points, s.recall(points, seq(len(points)), results), results)
	default:
		// Solo, or an executor replaying a batch before the wanted one
		// in full (later points may depend on it).
		s.runLocal(points, s.recall(points, seq(len(points)), results), results)
	}
	return results
}

// runBatchSharded splits a batch by ownership: the local shard (plus
// anything the router declines) runs through the normal gang path while
// remote shards are fetched concurrently. Ownership is consulted for
// the whole batch, so placement and the batch length the router
// records do not depend on what the memo answered; only the points in
// miss are run or fetched. Points carrying an OnEpoch callback never
// offload — funcs do not travel, and the caller's collector must
// observe the epochs.
func (s Setup) runBatchSharded(r ShardRouter, batch int, points []MLPPoint, miss []int, results []core.Result) {
	ownerOf := make([]string, len(points))
	for i, p := range points {
		if p.Config.OnEpoch == nil {
			ownerOf[i] = r.Owner(batch, i)
		}
	}
	local := make([]int, 0, len(miss))
	remote := make(map[string][]int)
	var owners []string
	for _, i := range miss {
		owner := ownerOf[i]
		if owner == "" {
			local = append(local, i)
			continue
		}
		if _, seen := remote[owner]; !seen {
			owners = append(owners, owner)
		}
		remote[owner] = append(remote[owner], i)
	}

	// Fetch remote shards while the local shard computes. A peer that
	// errors or answers short hands its indices back for local
	// execution after the barrier — the sweep always completes.
	fallback := make([][]int, len(owners))
	var wg sync.WaitGroup
	for oi, owner := range owners {
		wg.Add(1)
		go func(oi int, owner string, idxs []int) {
			defer wg.Done()
			rs, err := r.Fetch(owner, batch, idxs)
			if err != nil || len(rs) != len(idxs) {
				fallback[oi] = idxs
				return
			}
			for k, i := range idxs {
				results[i] = rs[k]
				s.noteDepStats(rs[k])
				s.remember(points[i], rs[k])
			}
		}(oi, owner, remote[owner])
	}
	s.runLocal(points, local, results)
	wg.Wait()
	for _, idxs := range fallback {
		s.runLocal(points, idxs, results)
	}
}

// shardCaptureBatch is the executor side of the wanted batch: it runs
// only the requested indices the memo cannot answer, then aborts the
// exhibit.
func (s Setup) shardCaptureBatch(c *shardCapture, batch int, points []MLPPoint, results []core.Result) {
	if batch > c.want {
		// Unreachable in practice — capturing the wanted batch aborts —
		// but stay total: later batches yield zero results.
		return
	}
	c.batchLen = len(points)
	c.captured = true
	seen := make([]bool, len(points))
	idxs := make([]int, 0, len(c.indices))
	for _, i := range c.indices {
		if i >= 0 && i < len(points) && !seen[i] {
			seen[i] = true
			idxs = append(idxs, i)
		}
	}
	s.runLocal(points, s.recall(points, idxs, results), results)
	c.results = results
	panic(shardAbort{})
}

// RunExhibitShard executes only the requested point indices of the
// batch-th RunMLPsimBatch call of the named exhibit, returning their
// results in request order plus the batch's total point count (the
// coordinator cross-validates it against its own batch). The exhibit is
// aborted as soon as the shard is captured. Errors are returned for
// unknown exhibits, an out-of-range batch or index, and cancelled
// contexts — the coordinator falls back to local execution on any of
// them.
func RunExhibitShard(s Setup, name string, batch int, indices []int) ([]core.Result, int, error) {
	if batch < 0 {
		return nil, 0, fmt.Errorf("experiments: negative batch %d", batch)
	}
	runner := Find(name)
	if runner == nil {
		return nil, 0, fmt.Errorf("experiments: unknown exhibit %q", name)
	}
	c := &shardCapture{want: batch, indices: append([]int(nil), indices...)}
	s.shard = &shardRun{cap: c}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(shardAbort); !ok {
					panic(r)
				}
			}
		}()
		runner.Run(s)
	}()
	if err := s.Context().Err(); err != nil {
		return nil, c.batchLen, err
	}
	if !c.captured {
		return nil, 0, fmt.Errorf("experiments: exhibit %q ran only %d batch(es); batch %d never happened",
			name, s.shard.batch, batch)
	}
	out := make([]core.Result, len(indices))
	for k, i := range indices {
		if i < 0 || i >= c.batchLen {
			return nil, c.batchLen, fmt.Errorf("experiments: point index %d out of range (batch %d has %d points)",
				i, batch, c.batchLen)
		}
		out[k] = c.results[i]
	}
	return out, c.batchLen, nil
}
