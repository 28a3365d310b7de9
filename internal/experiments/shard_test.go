package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/workload"
)

// peerRouter shards points across a fake two-replica fleet: indices
// mine rejects belong to "peer", which answers by re-deriving the
// points through RunPoints on its own Setup — the real peer protocol
// minus HTTP.
type peerRouter struct {
	exhibit string
	peer    Setup
	mine    func(index int) bool

	mu      sync.Mutex
	fetches int
	points  int
	fail    bool
	short   bool
}

func (r *peerRouter) Owner(index int) string {
	if r.mine(index) {
		return ""
	}
	return "peer"
}

func (r *peerRouter) Fetch(owner string, n int, indices []int) ([]core.Result, error) {
	r.mu.Lock()
	r.fetches++
	r.points += len(indices)
	fail, short := r.fail, r.short
	r.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("peer down")
	}
	rs, pn, err := RunPoints(r.peer, r.exhibit, indices)
	if err != nil {
		return nil, err
	}
	if pn != n {
		return nil, fmt.Errorf("peer declares %d points, coordinator %d", pn, n)
	}
	if short && len(rs) > 0 {
		rs = rs[:len(rs)-1]
	}
	return rs, nil
}

// coordinator returns a Setup with the point memo Prefetch fills.
func coordinator(s Setup) Setup {
	s.Memo = NewPointMemo()
	return s
}

// TestShardedExhibitMatchesSolo is the heart of the peer protocol: an
// exhibit whose odd-indexed points are computed by a separate replica —
// which re-derives them from (exhibit, indices) alone — renders
// byte-identical to the solo run.
func TestShardedExhibitMatchesSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit runs")
	}
	solo := tiny(11, workload.Database(11))
	want := RunFigure4(solo).String()

	r := &peerRouter{
		exhibit: "figure4",
		peer:    tiny(11, workload.Database(11)),
		mine:    func(index int) bool { return index%2 == 0 },
	}
	s := coordinator(tiny(11, workload.Database(11)))
	Prefetch(s, figure4Points(s), r)
	got := RunFigure4(s).String()
	if got != want {
		t.Errorf("sharded figure4 differs from solo:\n--- solo ---\n%s\n--- sharded ---\n%s", want, got)
	}
	if r.fetches == 0 || r.points == 0 {
		t.Fatalf("router fetched %d shards / %d points; the sweep never offloaded", r.fetches, r.points)
	}
}

// TestShardedFleetOwnsEverything drives the other bound: the
// coordinator owns zero points, every result arrives over Fetch.
func TestShardedFleetOwnsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit runs")
	}
	solo := tiny(12, workload.Web(12))
	want := RunTable5(solo).String()
	r := &peerRouter{
		exhibit: "table5",
		peer:    tiny(12, workload.Web(12)),
		mine:    func(index int) bool { return false },
	}
	s := coordinator(tiny(12, workload.Web(12)))
	Prefetch(s, table5Points(s), r)
	got := RunTable5(s).String()
	if got != want {
		t.Errorf("fully-offloaded table5 differs from solo:\n%s\nvs\n%s", want, got)
	}
}

// TestShardFallbackOnPeerFailure: a dead peer (error) and a lying peer
// (short reply) both degrade to local execution with identical output.
func TestShardFallbackOnPeerFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit runs")
	}
	solo := tiny(13, workload.Database(13))
	want := RunTable5(solo).String()
	for _, mode := range []string{"fail", "short"} {
		r := &peerRouter{
			exhibit: "table5",
			peer:    tiny(13, workload.Database(13)),
			mine:    func(index int) bool { return index%2 == 0 },
			fail:    mode == "fail",
			short:   mode == "short",
		}
		s := coordinator(tiny(13, workload.Database(13)))
		Prefetch(s, table5Points(s), r)
		got := RunTable5(s).String()
		if got != want {
			t.Errorf("%s-mode fallback differs from solo:\n%s\nvs\n%s", mode, want, got)
		}
		if r.fetches == 0 {
			t.Errorf("%s mode: fetch never attempted", mode)
		}
	}
}

// recordingRouter owns everything and remembers which points it was
// asked about; Fetch answers from a closed-over oracle.
type recordingRouter struct {
	mu     sync.Mutex
	asked  map[int]bool
	oracle map[int]core.Result
}

func (r *recordingRouter) Owner(index int) string {
	r.mu.Lock()
	r.asked[index] = true
	r.mu.Unlock()
	return "peer"
}

func (r *recordingRouter) Fetch(owner string, n int, indices []int) ([]core.Result, error) {
	out := make([]core.Result, len(indices))
	for k, i := range indices {
		out[k] = r.oracle[i]
	}
	return out, nil
}

// TestShardOnEpochNeverOffloads: Prefetch never even offers a point
// carrying an epoch callback to the router — funcs do not travel, and
// the caller's collector must see the epochs locally when the batch
// runs.
func TestShardOnEpochNeverOffloads(t *testing.T) {
	s := coordinator(tiny(14, workload.Database(14)))
	s.Measure = 200_000
	epochs := 0
	points := []MLPPoint{
		{Workload: s.Workloads[0], Config: core.Default()},
		{Workload: s.Workloads[0], Config: core.Default()},
	}
	points[1].Config.OnEpoch = func(core.Epoch) { epochs++ }
	s.Parallelism = 1 // the callback increments without a lock

	r := &recordingRouter{asked: make(map[int]bool), oracle: map[int]core.Result{
		0: {Instructions: 123},
	}}
	Prefetch(s, points, r)
	rs := s.RunMLPsimBatch(points)
	if r.asked[1] {
		t.Error("router was offered a point with an OnEpoch callback")
	}
	if !r.asked[0] {
		t.Error("router never saw the plain point")
	}
	if rs[0].Instructions != 123 {
		t.Errorf("offloaded point got %+v, want the fetched oracle result", rs[0])
	}
	if epochs == 0 {
		t.Error("local OnEpoch callback never fired")
	}
	if rs[1].Instructions != 200_000 {
		t.Errorf("local point ran %d instructions, want 200000", rs[1].Instructions)
	}
}

// TestRunPointsErrors pins the executor's failure envelope — each of
// these makes the coordinator fall back to local execution. None of
// them runs anything: an exhibit without declared points is refused
// before its cycle-simulator runs, a bad index before any point.
func TestRunPointsErrors(t *testing.T) {
	s := memoSetup()
	if _, _, err := RunPoints(s, "no-such-exhibit", []int{0}); err == nil ||
		!strings.Contains(err.Error(), "unknown exhibit") {
		t.Errorf("unknown exhibit: err = %v", err)
	}
	if _, _, err := RunPoints(s, "table1", []int{0}); err == nil ||
		!strings.Contains(err.Error(), "declares no sweep points") {
		t.Errorf("exhibit without points: err = %v", err)
	}
	if _, n, err := RunPoints(s, "table5", []int{0, 10_000}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("index out of range: err = %v", err)
	} else if n != len(table5Points(s)) {
		t.Errorf("point count %d alongside the range error, want the declared %d", n, len(table5Points(s)))
	}
	if st := s.Memo.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("rejected requests touched the memo: %+v", st)
	}
}

// TestRunPointsMatchesBatch: the executor's answers for every declared
// point equal a plain local batch over the same declaration, and the
// reported count is the declaration's length.
func TestRunPointsMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit runs")
	}
	s := tiny(16, workload.Database(16))
	want := s.RunMLPsimBatch(table5Points(s))
	rs, n, err := RunPoints(tiny(16, workload.Database(16)), "table5", seq(len(want)))
	if err != nil || n != len(want) {
		t.Fatalf("full shard: err=%v count=%d want %d", err, n, len(want))
	}
	if !reflect.DeepEqual(rs, want) {
		t.Error("executor results differ from the local batch")
	}
}

// TestRunPointsRunsOnlyRequested: an executor asked for figure9's
// point 0 runs that one point — not the characterization cycle-
// simulator runs that precede the batch in the exhibit, nor any other
// point.
func TestRunPointsRunsOnlyRequested(t *testing.T) {
	s := memoSetup()
	s.Workloads = s.Workloads[:1]
	rs, _, err := RunPoints(s, "figure9", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Instructions != s.Measure {
		t.Errorf("point ran %d instructions, want %d", rs[0].Instructions, s.Measure)
	}
	if st := s.Memo.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("executor memo %+v, want exactly the requested point run", st)
	}
}

// TestPrefetchCoversEveryDeclaredPoint runs every exhibit that declares
// points as a coordinator that owns nothing: Prefetch fetches the whole
// declaration from a peer on a second Setup, after which Run must find
// every MLPsim point in the memo — no engine dispatch — and render what
// a plain run renders. An exhibit whose Run used a point its
// declaration lacks would dispatch it here.
func TestPrefetchCoversEveryDeclaredPoint(t *testing.T) {
	cache := atrace.NewCache()
	small := func() Setup {
		s := Quick(1)
		s.Warmup, s.Measure = 20_000, 60_000
		s.Cache = cache
		return s
	}
	for _, runner := range All() {
		if runner.Points == nil {
			continue
		}
		t.Run(runner.ID, func(t *testing.T) {
			want := runner.Run(small()).String()
			s := coordinator(small())
			s.GangStats = &GangStats{}
			r := &peerRouter{exhibit: runner.ID, peer: small(), mine: func(int) bool { return false }}
			Prefetch(s, runner.Points(s), r)
			if r.points == 0 {
				t.Fatal("Prefetch fetched nothing")
			}
			ran := func() uint64 { return s.GangStats.Configs.Load() + s.GangStats.Solo.Load() }
			before := ran()
			got := runner.Run(s).String()
			if n := ran() - before; n != 0 {
				t.Errorf("Run dispatched %d MLPsim points after Prefetch; the declaration misses them", n)
			}
			if got != want {
				t.Errorf("prefetched %s differs from a plain run:\n--- plain ---\n%s\n--- prefetched ---\n%s", runner.ID, want, got)
			}
		})
	}
}
