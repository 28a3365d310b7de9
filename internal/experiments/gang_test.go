package experiments

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/isa"
	"mlpsim/internal/vpred"
	"mlpsim/internal/workload"
)

// TestGangMatchesSequential is the satellite property test of this
// repo's gang contract: a random vector of engine configurations (mixed
// window sizes, issue policies, runahead and value prediction on or
// off) over the three paper workloads at Quick scale must produce
// Results bit-identical to one solo engine per point, at every
// GangSize (1 runs gangs of one). (MaxInstructions
// variation across gang members is pinned separately at the core layer
// by TestRunGangMatchesSequentialRandom — the experiments layer always
// runs points to Setup.Measure.) It runs under -race in `make test`,
// which also exercises concurrent gang dispatch through forEach.
func TestGangMatchesSequential(t *testing.T) {
	s := Quick(1)
	s.Measure = 400_000 // enough stream for every limiter to fire; keeps -race affordable
	s.Parallelism = 4
	s.GangStats = &GangStats{}

	rng := rand.New(rand.NewSource(17))
	sizes := []int{16, 64, 256}
	issues := []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC, core.ConfigD, core.ConfigE}
	var points []MLPPoint
	for _, w := range s.Workloads {
		for i := 0; i < 5; i++ {
			cfg := core.Default().WithWindow(sizes[rng.Intn(len(sizes))]).WithIssue(issues[rng.Intn(len(issues))])
			acfg := annotate.Config{}
			if rng.Intn(3) == 0 {
				cfg.Runahead, cfg.MaxRunahead = true, 512
			}
			if rng.Intn(3) == 0 {
				cfg.ValuePredict = true
				acfg.Value = vpred.NewLastValue(vpred.DefaultEntries)
			}
			points = append(points, MLPPoint{Workload: w, Config: cfg, Annot: acfg})
		}
	}

	want := make([]core.Result, len(points))
	for i, p := range points {
		cfg := p.Config
		cfg.MaxInstructions = s.Measure
		want[i] = core.NewEngine(s.annotatedSource(p.Workload, p.Annot), cfg).Run()
	}

	for _, gangSize := range []int{0, 1, 3} {
		s.GangSize = gangSize
		got := s.RunMLPsimBatch(points)
		for i := range points {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("GangSize=%d point %d (%s, %s): gang result differs from sequential\ngang: %+v\nsolo: %+v",
					gangSize, i, points[i].Workload.Name, points[i].Config.Name(), got[i], want[i])
			}
		}
	}

	if gangs := s.GangStats.Gangs.Load(); gangs == 0 {
		t.Error("GangStats recorded no gang dispatches; expected the shared-stream groups to gang")
	}
	if cfgs := s.GangStats.Configs.Load(); cfgs < 2 {
		t.Errorf("GangStats.Configs = %d, want >= 2", cfgs)
	}
}

// TestCycleSimGangsMatchPointAtATime: the cycle-simulator exhibits
// render byte-identical text whether each point runs alone (GangSize 1)
// or in the planner's auto-sized gangs (GangSize 0). It runs under -race
// in `make test`, which also exercises concurrent cyclesim gangs.
func TestCycleSimGangsMatchPointAtATime(t *testing.T) {
	s := Quick(1)
	s.Warmup, s.Measure = 20_000, 40_000
	s.Parallelism = 4
	render := func(gangSize int) []string {
		s := s
		s.GangSize = gangSize
		return []string{RunTable1(s).String(), RunTable3(s).String(), RunTable4(s).String()}
	}
	solo, ganged := render(1), render(0)
	for i, name := range []string{"table1", "table3", "table4"} {
		if solo[i] != ganged[i] {
			t.Errorf("%s differs between GangSize 1 and 0\nGangSize 1:\n%s\nGangSize 0:\n%s", name, solo[i], ganged[i])
		}
	}
}

// TestGangPlanShapes pins the dispatch planner: GangSize 1 makes gangs
// of one, a fixed size chunks exactly, and unkeyable annotation configs
// always run alone.
func TestGangPlanShapes(t *testing.T) {
	s := Quick(1)
	w := s.Workloads[0]
	mk := func(n int) []MLPPoint {
		pts := make([]MLPPoint, n)
		for i := range pts {
			pts[i] = MLPPoint{Workload: w, Config: core.Default(), Annot: annotate.Config{}}
		}
		return pts
	}

	s.GangSize = 1
	if plan := s.gangPlan(mk(5), seq(5)); len(plan) != 5 {
		t.Errorf("GangSize=1 plan has %d groups, want 5 singletons", len(plan))
	}

	s.GangSize = 4
	plan := s.gangPlan(mk(10), seq(10))
	if len(plan) != 3 || len(plan[0]) != 4 || len(plan[1]) != 4 || len(plan[2]) != 2 {
		t.Errorf("GangSize=4 over 10 points: plan shape %v, want [4 4 2]", planShape(plan))
	}

	// A trained value predictor is unkeyable: its points must never gang.
	vp := vpred.NewLastValue(vpred.DefaultEntries)
	var in isa.Inst
	in.Value = 42
	vpred.Observe(vp, &in) // train it
	s.GangSize = 0
	pts := mk(3)
	for i := range pts {
		pts[i].Annot.Value = vp
	}
	for i, g := range s.gangPlan(pts, seq(len(pts))) {
		if len(g) != 1 {
			t.Errorf("unkeyable group %d has %d members, want a gang of one", i, len(g))
		}
	}
}

// TestBatchFetchesTracesFirst pins a batch's task order and its trace
// lookups. On two workers figure4's three trace fetches all come ahead
// of its gangs, in order of first use, and each gang replays its own
// stream's fetch; on one worker the tasks are today's, the gangs in plan
// order, each fetching its own stream. On more than one worker a batch
// looks each distinct trace up once, however it is chunked: one stream
// in four gangs is one miss and no hits, where fetching inside every
// gang made three hits. It runs under -race in `make test`, because a
// fetch hands its trace to gangs on other goroutines.
func TestBatchFetchesTracesFirst(t *testing.T) {
	s := Quick(1)
	s.Warmup, s.Measure = 20_000, 40_000
	points := figure4Points(s)
	stream := func(i int) (workload.Config, annotate.Config) { return points[i].Workload, points[i].Annot }
	keyOf := func(w workload.Config, acfg annotate.Config) atrace.Key {
		k, ok := s.traceKey(w, acfg)
		if !ok {
			t.Fatalf("%s: figure4 stream has no trace key", w.Name)
		}
		return k
	}

	s.Parallelism = 2
	plan := s.gangPlan(points, seq(len(points)))
	tasks := s.batchTasks(plan, stream)
	var fetched []atrace.Key
	for ti, task := range tasks {
		if task.gang >= 0 {
			continue
		}
		if ti != len(fetched) {
			t.Fatalf("two workers: fetch task %d follows a gang (tasks %v)", ti, taskShape(tasks))
		}
		fetched = append(fetched, keyOf(task.trace.w, task.trace.acfg))
	}
	want := []atrace.Key{keyOf(stream(0)), keyOf(stream(25)), keyOf(stream(50))}
	if !reflect.DeepEqual(fetched, want) {
		t.Fatalf("two workers: fetches %v, want one per stream in order of first use %v", fetched, want)
	}
	if len(tasks) != len(fetched)+len(plan) {
		t.Fatalf("two workers: %d tasks, want %d fetches and %d gangs", len(tasks), len(fetched), len(plan))
	}
	for k, task := range tasks[len(fetched):] {
		if task.gang != k {
			t.Errorf("two workers: gang task %d runs gang %d, want plan order", k, task.gang)
		}
		if task.trace == nil || keyOf(task.trace.w, task.trace.acfg) != keyOf(stream(plan[k][0])) {
			t.Errorf("two workers: gang %d does not replay its own stream's fetch", k)
		}
	}

	s.Parallelism = 1
	plan = s.gangPlan(points, seq(len(points)))
	tasks = s.batchTasks(plan, stream)
	if len(tasks) != len(plan) {
		t.Fatalf("one worker: tasks %v, want the %d gangs alone", taskShape(tasks), len(plan))
	}
	for k, task := range tasks {
		if task.gang != k || task.trace != nil {
			t.Errorf("one worker: task %d is gang %d (fetch %v), want gang %d fetching its own stream", k, task.gang, task.trace != nil, k)
		}
	}

	for _, gangSize := range []int{0, 1} {
		s := s
		s.Parallelism, s.GangSize = 4, gangSize
		s.Cache = atrace.NewCache()
		s.RunMLPsimBatch(points[:8])
		if st := s.Cache.Stats(); st.Misses != 1 || st.Hits != 0 {
			t.Errorf("GangSize %d: an MLPsim batch of one stream made %d misses and %d hits, want 1 and 0", gangSize, st.Misses, st.Hits)
		}
		var cpoints []CyclePoint
		for _, mshrs := range []int{0, 4, 8, 16} {
			cfg := cyclesim.Default(400)
			cfg.MSHRs = mshrs
			cpoints = append(cpoints, CyclePoint{Workload: points[0].Workload, Config: cfg})
		}
		s.RunCycleSimBatch(cpoints)
		if st := s.Cache.Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Errorf("GangSize %d: a cycle-sim batch over the same stream left %d misses and %d hits, want 1 and 1", gangSize, st.Misses, st.Hits)
		}
	}
}

// TestTraceFetchReleasesWaitersOnPanic: a fetch whose build panics still
// releases the gangs waiting for it, with no stream, so they fall back to
// fetching their own instead of blocking.
func TestTraceFetchReleasesWaitersOnPanic(t *testing.T) {
	s := Quick(1)
	f := &traceFetch{w: workload.Config{Name: "invalid"}, ready: make(chan struct{})}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a build of an invalid workload did not panic")
			}
		}()
		f.fetch(s)
	}()
	select {
	case <-f.ready:
	default:
		t.Fatal("a panicked fetch left its waiters blocked")
	}
	if f.st != nil {
		t.Error("a panicked fetch published a stream")
	}
}

// taskShape renders a batch's tasks as gang indices, -1 for a fetch.
func taskShape(tasks []batchTask) []int {
	shape := make([]int, len(tasks))
	for i, task := range tasks {
		shape[i] = task.gang
	}
	return shape
}

// gangPlan is the plan runLocal dispatches for the MLPsim points todo.
func (s Setup) gangPlan(points []MLPPoint, todo []int) [][]int {
	return s.streamPlan(todo, func(i int) (workload.Config, annotate.Config) { return points[i].Workload, points[i].Annot })
}

func planShape(plan [][]int) []int {
	shape := make([]int, len(plan))
	for i, g := range plan {
		shape[i] = len(g)
	}
	return shape
}
