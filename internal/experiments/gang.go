package experiments

import (
	"sync/atomic"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/workload"
)

// MLPPoint is one MLPsim sweep point: a workload, an engine
// configuration and an annotation configuration. Exhibits declare their
// sweep as a slice of these (Runner.Points) and hand it to one
// RunMLPsimBatch call, which lets points sharing an annotated stream run
// as a gang (one decode, one dependence-binding pass, K engines — see
// core.RunGang).
type MLPPoint struct {
	Workload workload.Config
	Config   core.Config
	Annot    annotate.Config
}

// GangStats accumulates gang occupancy counters across sweeps. Safe for
// concurrent use; the zero value is ready.
type GangStats struct {
	// Gangs counts multi-config gang dispatches.
	Gangs atomic.Uint64
	// Configs counts engine configs run inside those gangs.
	Configs atomic.Uint64
	// Solo counts one-point gangs (singleton groups, unkeyable
	// annotation configs, or GangSize == 1).
	Solo atomic.Uint64
	// SoAInsts and ScalarInsts split the instructions processed inside
	// multi-config gangs between the structure-of-arrays fast path and
	// the scalar fallback engines (see core.SoAEligible: in-order,
	// realistic value prediction, non-oracle disambiguation) — the
	// divergence rate of the sweep's config mix.
	SoAInsts    atomic.Uint64
	ScalarInsts atomic.Uint64
}

// runLocal executes points[i] for every i in todo on this replica,
// writing results[i] and memoizing each point as it completes — a
// cancelled sweep's undispatched points are never stored. Every dispatch
// group runs as a gang; a one-point group is a gang of one, which
// core.NewGang runs on the scalar engine unless the config is on the
// SoA fast path, and counts as Solo.
func (s Setup) runLocal(points []MLPPoint, todo []int, results []core.Result) {
	plan := s.gangPlan(points, todo)
	s.forEach(len(plan), func(gi int) {
		idxs := plan[gi]
		p0 := points[idxs[0]]
		cfgs := make([]core.Config, len(idxs))
		for k, pi := range idxs {
			cfgs[k] = points[pi].Config
			cfgs[k].MaxInstructions = s.Measure
		}
		g := core.NewGang(s.annotatedSource(p0.Workload, p0.Annot), cfgs)
		rs := g.Run()
		for k, pi := range idxs {
			results[pi] = rs[k]
			s.noteDepStats(rs[k])
			s.remember(points[pi], rs[k])
		}
		st := s.GangStats
		if st == nil {
			return
		}
		if len(idxs) == 1 {
			st.Solo.Add(1)
			return
		}
		st.Gangs.Add(1)
		st.Configs.Add(uint64(len(idxs)))
		gs := g.Stats()
		st.SoAInsts.Add(gs.SoAInsts)
		st.ScalarInsts.Add(gs.ScalarInsts)
	})
}

// gangPlan partitions the MLPsim point indices todo into dispatch
// groups by streamPlan, with each stream-sharing group reordered SoA
// fast path first (partitionSoAFirst) before it is chunked.
func (s Setup) gangPlan(points []MLPPoint, todo []int) [][]int {
	return s.streamPlan(todo,
		func(i int) (workload.Config, annotate.Config) { return points[i].Workload, points[i].Annot },
		func(g []int) []int { return partitionSoAFirst(g, points) })
}

// streamPlan partitions the point indices todo into dispatch groups,
// stream(i) naming point i's annotated stream. Points group when they
// will see the same annotated stream: same workload and same canonical
// annotation key (atrace.ConfigKey), under this Setup's warmup and
// measure. Grouping does not require the cache — a gang over a direct
// annotator still shares its single annotation pass — but unkeyable
// configs (e.g. trained prefetcher instances) have private stream state
// and always run alone. Groups are then reordered by arrange, when
// non-nil, and chunked: a fixed GangSize when set, otherwise just enough
// chunks to keep every worker busy (on one worker, a whole group is one
// gang). MLPsim and cycle-simulator sweeps share this planner.
func (s Setup) streamPlan(todo []int, stream func(i int) (workload.Config, annotate.Config), arrange func([]int) []int) [][]int {
	type gkey struct {
		w     workload.Config
		annot string
	}
	var plan [][]int
	var order []gkey
	groups := make(map[gkey][]int)
	for _, i := range todo {
		w, acfg := stream(i)
		akey, _, ok := atrace.ConfigKey(acfg)
		if !ok {
			plan = append(plan, []int{i})
			continue
		}
		k := gkey{w, akey}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		g := groups[k]
		if arrange != nil {
			g = arrange(g)
		}
		size := s.GangSize
		if size <= 0 {
			per := (s.parallelism() + len(order) - 1) / len(order)
			size = (len(g) + per - 1) / per
		}
		for len(g) > 0 {
			n := size
			if n > len(g) {
				n = len(g)
			}
			plan = append(plan, g[:n:n])
			g = g[n:]
		}
	}
	return plan
}

// seq returns the indices 0..n-1.
func seq(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// partitionSoAFirst stably reorders a stream-sharing group so points on
// the SoA fast path come first. Chunking the reordered group yields
// gangs that are mostly flag-uniform: the fast-path engines ride the
// ring without the wide decoded-instruction column, and the divergent
// configs concentrate in the trailing scalar gangs instead of forcing
// every gang onto the mixed path. Result order is unaffected — the plan
// carries original point indices. A group that is already uniform (the
// common sweep shape) is returned unchanged.
func partitionSoAFirst(g []int, points []MLPPoint) []int {
	split := 0
	for _, pi := range g {
		if core.SoAEligible(points[pi].Config) {
			split++
		}
	}
	if split == 0 || split == len(g) {
		return g
	}
	out := make([]int, 0, len(g))
	for _, pi := range g {
		if core.SoAEligible(points[pi].Config) {
			out = append(out, pi)
		}
	}
	for _, pi := range g {
		if !core.SoAEligible(points[pi].Config) {
			out = append(out, pi)
		}
	}
	return out
}
