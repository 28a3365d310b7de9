package experiments

import (
	"fmt"
	"sync"

	"mlpsim/internal/core"
)

// Sharded sweeps.
//
// An exhibit with an MLPsim sweep declares it: Runner.Points derives the
// sweep's points from the Setup alone, and the exhibit's Run hands that
// same list to its one RunMLPsimBatch call. A point's result is a pure
// function of its memo key (trace key, engine, config), so peer
// replicas exchange only point indices into the declared list, and
// placement is purely a scheduling decision:
//
//   - Coordinator: Prefetch(s, runner.Points(s), router) fills s.Memo
//     with the declared points, fetching remotely-owned ones while the
//     local shard runs; runner.Run(s) then answers them from the memo.
//   - Executor: RunPoints runs only the requested indices of an
//     exhibit's declared list.
//
// A declaration can only cost extra work, never correctness: Run
// answers from the memo only points whose key matches, and runs every
// other point itself. The executor never re-shards (RunPoints takes no
// router), so requests cannot recurse through the fleet.

// ShardRouter decides point placement for a sharded sweep and fetches
// remotely-owned results. Implementations (the daemon's peer registry)
// must be safe for concurrent use.
type ShardRouter interface {
	// Owner returns the id of the replica owning point `index` of the
	// exhibit's declared list, or "" when this replica owns it.
	Owner(index int) string
	// Fetch retrieves the results for the given indices into the
	// coordinator's n declared points from the owning replica, in
	// request order. An owner that declares a different point count
	// must be reported as an error; an error or a short reply makes the
	// coordinator run those points locally.
	Fetch(owner string, n int, indices []int) ([]core.Result, error)
}

// RunMLPsimBatch runs every point and returns results in point order,
// bit-identical to calling RunMLPsim per point. Points s.Memo already
// holds are answered first; the rest that share an annotated stream are
// grouped and dispatched as gangs, with Parallelism bounding concurrent
// gangs, not points.
func (s Setup) RunMLPsimBatch(points []MLPPoint) []core.Result {
	results := make([]core.Result, len(points))
	s.runLocal(points, s.recall(points, seq(len(points)), results), results)
	return results
}

// Prefetch stores the declared points in s.Memo ahead of the exhibit's
// Run. Points the memo holds are skipped; r places the rest. Remote
// shards are fetched while the local shard runs, and any shard whose
// reply fails or has the wrong size runs locally after the barrier.
// Points that bypass the memo (OnEpoch observers, unkeyable annotation
// configs, a Setup without memo or cache) are never offered to r: Run
// runs them itself.
func Prefetch(s Setup, points []MLPPoint, r ShardRouter) {
	var local []int
	remote := make(map[string][]int)
	var owners []string
	for i, p := range points {
		k, ok := s.mlpKey(p)
		if !ok {
			continue
		}
		if _, hit := s.Memo.get(k); hit {
			continue
		}
		owner := r.Owner(i)
		if owner == "" {
			local = append(local, i)
			continue
		}
		if _, seen := remote[owner]; !seen {
			owners = append(owners, owner)
		}
		remote[owner] = append(remote[owner], i)
	}

	results := make([]core.Result, len(points))
	fallback := make([][]int, len(owners))
	var wg sync.WaitGroup
	for oi, owner := range owners {
		wg.Add(1)
		go func(oi int, owner string, idxs []int) {
			defer wg.Done()
			rs, err := r.Fetch(owner, len(points), idxs)
			if err != nil || len(rs) != len(idxs) {
				fallback[oi] = idxs
				return
			}
			for k, i := range idxs {
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

// RunPoints runs only the requested indices of the named exhibit's
// declared points and returns their results in request order, plus the
// declared point count. A repeated index runs once. Errors are returned
// for an unknown exhibit, an exhibit that declares no points, an index
// out of range and a cancelled context; the coordinator falls back to
// local execution on any of them.
func RunPoints(s Setup, name string, indices []int) ([]core.Result, int, error) {
	runner := Find(name)
	if runner == nil {
		return nil, 0, fmt.Errorf("experiments: unknown exhibit %q", name)
	}
	if runner.Points == nil {
		return nil, 0, fmt.Errorf("experiments: exhibit %q declares no sweep points", name)
	}
	points := runner.Points(s)
	seen := make([]bool, len(points))
	todo := make([]int, 0, len(indices))
	for _, i := range indices {
		if i < 0 || i >= len(points) {
			return nil, len(points), fmt.Errorf("experiments: point index %d out of range (%s declares %d points)",
				i, name, len(points))
		}
		if !seen[i] {
			seen[i] = true
			todo = append(todo, i)
		}
	}
	results := make([]core.Result, len(points))
	s.runLocal(points, s.recall(points, todo, results), results)
	if err := s.Context().Err(); err != nil {
		return nil, len(points), err
	}
	out := make([]core.Result, len(indices))
	for k, i := range indices {
		out[k] = results[i]
	}
	return out, len(points), nil
}
