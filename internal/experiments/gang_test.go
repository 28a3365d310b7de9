package experiments

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
	"mlpsim/internal/vpred"
)

// TestGangMatchesSequential is the satellite property test of this
// repo's gang contract: a random vector of engine configurations (mixed
// window sizes, issue policies, runahead and value prediction on or
// off) over the three paper workloads at Quick scale must produce
// Results bit-identical to one scalar engine per point, at every
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

func planShape(plan [][]int) []int {
	shape := make([]int, len(plan))
	for i, g := range plan {
		shape[i] = len(g)
	}
	return shape
}
