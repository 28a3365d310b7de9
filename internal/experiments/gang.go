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
	// SoAInsts counts the instructions processed inside multi-config
	// gangs, every one on the structure-of-arrays stepper.
	SoAInsts atomic.Uint64
	// ScalarInsts always reads 0: no config runs outside the stepper. It
	// stays because perfbench's core.scalar_insts metric reads it.
	ScalarInsts atomic.Uint64
}

// runLocal executes points[i] for every i in todo on this replica,
// writing results[i] and memoizing each point as it completes — a
// cancelled sweep's undispatched points are never stored. Every dispatch
// group runs as a gang; a one-point group is a gang of one and counts as
// Solo.
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
		rs := core.RunGang(s.annotatedSource(p0.Workload, p0.Annot), cfgs)
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
		for _, r := range rs {
			st.SoAInsts.Add(uint64(r.Instructions))
		}
	})
}

// gangPlan partitions the MLPsim point indices todo into dispatch
// groups by streamPlan.
func (s Setup) gangPlan(points []MLPPoint, todo []int) [][]int {
	return s.streamPlan(todo,
		func(i int) (workload.Config, annotate.Config) { return points[i].Workload, points[i].Annot })
}

// streamPlan partitions the point indices todo into dispatch groups,
// stream(i) naming point i's annotated stream. Points group when they
// will see the same annotated stream (streamGroups). Grouping does not
// require the cache — a gang over a direct annotator still shares its
// single annotation pass — but unkeyable configs (e.g. trained
// prefetcher instances) have private stream state and always run alone.
// Groups are then chunked: a fixed GangSize when set, otherwise just
// enough chunks to keep every worker busy (on one worker, a whole group
// is one gang). MLPsim and cycle-simulator sweeps share this planner.
func (s Setup) streamPlan(todo []int, stream func(i int) (workload.Config, annotate.Config)) [][]int {
	groups, alone := streamGroups(todo, func(i int) (atrace.Key, bool) { return s.traceKey(stream(i)) })
	var plan [][]int
	for _, i := range alone {
		plan = append(plan, []int{i})
	}
	for _, g := range groups {
		size := s.GangSize
		if size <= 0 {
			per := (s.parallelism() + len(groups) - 1) / len(groups)
			size = (len(g.Points) + per - 1) / per
		}
		for rest := g.Points; len(rest) > 0; {
			n := min(size, len(rest))
			plan = append(plan, rest[:n:n])
			rest = rest[n:]
		}
	}
	return plan
}

// traceKey is the cache key of the annotated stream of workload w under
// annotation config acfg and s's windows; ok is false for an unkeyable
// config.
func (s Setup) traceKey(w workload.Config, acfg annotate.Config) (atrace.Key, bool) {
	akey, _, ok := atrace.ConfigKey(acfg)
	return atrace.Key{Workload: w, Annot: akey, Warmup: s.Warmup, Measure: s.Measure}, ok
}

// StreamGroup is the points of a sweep that replay one annotated trace.
type StreamGroup struct {
	Trace  atrace.Key
	Points []int
}

// streamGroups partitions todo by key(i), the trace point i replays,
// into groups in order of first appearance; the points key rejects are
// returned apart, in order.
func streamGroups(todo []int, key func(i int) (atrace.Key, bool)) (groups []StreamGroup, alone []int) {
	at := make(map[atrace.Key]int)
	for _, i := range todo {
		k, ok := key(i)
		if !ok {
			alone = append(alone, i)
			continue
		}
		g, seen := at[k]
		if !seen {
			g = len(groups)
			at[k] = g
			groups = append(groups, StreamGroup{Trace: k})
		}
		groups[g].Points = append(groups[g].Points, i)
	}
	return groups, alone
}

// StreamGroups partitions the points Prefetch offers a ShardRouter (the
// ones the memo keys) by the annotated trace they replay, as the batch
// planner groups them, in order of first appearance. A router that
// places whole groups has each trace built or mapped by one replica.
func (s Setup) StreamGroups(points []MLPPoint) []StreamGroup {
	groups, _ := streamGroups(seq(len(points)), func(i int) (atrace.Key, bool) {
		k, ok := s.mlpKey(points[i])
		return k.trace, ok
	})
	return groups
}

// seq returns the indices 0..n-1.
func seq(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}
