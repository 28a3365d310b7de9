package cyclesim

import (
	"runtime"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/workload"
)

// TestCycleSimZeroAllocSteadyState pins the simulator's steady state at
// zero allocations per instruction, alone and in a 9-config gang: the
// decode window, the pipeline rings and the issue lists are preallocated
// at construction and the completion heap is typed (no container/heap
// boxing), so a full run over 200K instructions may allocate only
// construction-scale amounts — the construction itself and heap-slice
// doublings of the completion heaps, nothing proportional to the
// instruction count.
func TestCycleSimZeroAllocSteadyState(t *testing.T) {
	const n = 200_000
	a := annotate.New(workload.MustNew(workload.Presets(1)[0]), annotate.Config{})
	a.Warm(10_000)
	insts := a.Collect(n)

	measure := func(run func() []Result) (allocs uint64, res []Result) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res = run()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, res
	}

	sim := New(&aiSource{insts: insts}, Default(400))
	allocs, res := measure(func() []Result { return []Result{sim.Run()} })
	if res[0].Instructions != n {
		t.Fatalf("retired %d instructions, want %d", res[0].Instructions, n)
	}
	if allocs > 100 {
		t.Errorf("Run allocated %d objects over %d instructions, want construction-only (≤ 100)", allocs, n)
	}

	// Table 3's shape: three windows by configurations A-C.
	var cfgs []Config
	for _, win := range []int{32, 64, 128} {
		for _, ic := range []core.IssueConfig{core.ConfigA, core.ConfigB, core.ConfigC} {
			cfg := Default(400)
			cfg.IssueWindow, cfg.ROB, cfg.Issue = win, win, ic
			cfgs = append(cfgs, cfg)
		}
	}
	allocs, res = measure(func() []Result { return RunGang(&aiSource{insts: insts}, cfgs) })
	for i := range res {
		if res[i].Instructions != n {
			t.Fatalf("config %d retired %d instructions, want %d", i, res[i].Instructions, n)
		}
	}
	// Construction is about six objects per config plus the gang's
	// window and store table; completion heaps double a few times each.
	if allocs > 200 {
		t.Errorf("RunGang of %d configs allocated %d objects over %d instructions, want construction-only (≤ 200)",
			len(cfgs), allocs, n)
	}
}
