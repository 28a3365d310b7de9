package experiments

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/bpred"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/prefetch"
)

// memoSetup is a small Setup with a point memo.
func memoSetup() Setup {
	s := Quick(1)
	s.Warmup = 20_000
	s.Measure = 60_000
	s.Memo = NewPointMemo()
	return s
}

// perturb changes a scalar field to another value of its kind.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s has kind %s; teach perturb to change it", name, v.Kind())
	}
}

// TestPointKeyCoversEveryConfigField changes every engine-config field
// one at a time, by reflection, so a field added later cannot silently
// alias two configs in the memo. An MLPsim point's MaxInstructions is
// the exception that proves the rule: every run is bounded by the
// Setup's Measure whatever the caller set, so it must not split the
// memo (RunCycleSim sets it before keying); Measure itself is covered
// below.
func TestPointKeyCoversEveryConfigField(t *testing.T) {
	s := memoSetup()
	w := s.Workloads[0]
	mlpKey := func(cfg any) (pointKey, bool) { return s.mlpKey(MLPPoint{Workload: w, Config: cfg.(core.Config)}) }
	engines := []struct {
		cfg    any
		key    func(cfg any) (pointKey, bool)
		pinned string // a field the keying overwrites
	}{
		{core.Default(), mlpKey, "MaxInstructions"},
		{cyclesim.Default(500), func(cfg any) (pointKey, bool) { return s.memoKey("cyclesim", w, annotate.Config{}, cfg) }, ""},
	}
	for _, e := range engines {
		typ := reflect.TypeOf(e.cfg)
		k0, ok := e.key(e.cfg)
		if !ok {
			t.Fatalf("%s: default config bypasses the memo", typ)
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Name == "OnEpoch" {
				continue
			}
			c := reflect.New(typ).Elem()
			c.Set(reflect.ValueOf(e.cfg))
			perturb(t, typ.String()+"."+f.Name, c.Field(i))
			k, ok := e.key(c.Interface())
			switch {
			case !ok:
				t.Errorf("%s.%s: changed config bypasses the memo", typ, f.Name)
			case f.Name == e.pinned && k != k0:
				t.Errorf("%s.%s split the memo; runs are bounded by Measure", typ, f.Name)
			case f.Name != e.pinned && k == k0:
				t.Errorf("%s.%s: changing it left the memo key unchanged", typ, f.Name)
			}
		}
	}

	k0, _ := mlpKey(core.Default())
	warmup, measure := s, s
	warmup.Warmup++
	measure.Measure++
	other := w
	other.Seed++
	cases := map[string]func() (pointKey, bool){
		"workload":      func() (pointKey, bool) { return s.mlpKey(MLPPoint{Workload: s.Workloads[1], Config: core.Default()}) },
		"workload seed": func() (pointKey, bool) { return s.mlpKey(MLPPoint{Workload: other, Config: core.Default()}) },
		"annotation prefetcher": func() (pointKey, bool) {
			return s.mlpKey(MLPPoint{Workload: w, Config: core.Default(), Annot: annotate.Config{DPrefetch: prefetch.NewStride(1024, 4)}})
		},
		"annotation branch predictor": func() (pointKey, bool) {
			return s.mlpKey(MLPPoint{Workload: w, Config: core.Default(), Annot: annotate.Config{Branch: bpred.Perfect{}}})
		},
		"warmup":  func() (pointKey, bool) { return warmup.mlpKey(MLPPoint{Workload: w, Config: core.Default()}) },
		"measure": func() (pointKey, bool) { return measure.mlpKey(MLPPoint{Workload: w, Config: core.Default()}) },
		"engine": func() (pointKey, bool) {
			cfg := core.Default()
			cfg.MaxInstructions = s.Measure
			return s.memoKey("cyclesim", w, annotate.Config{}, cfg)
		},
	}
	for name, key := range cases {
		if k, ok := key(); !ok || k == k0 {
			t.Errorf("changing the %s left the memo key unchanged (keyable %v)", name, ok)
		}
	}
}

// TestMemoBypassesObserversAndUnkeyableConfigs: a point with an OnEpoch
// observer must run, and deliver every epoch, every time it is asked
// for; a point whose annotation config is unkeyable (a trained
// prefetcher instance) must still run. Neither may touch the memo, on
// the single-point path or the batch path.
func TestMemoBypassesObserversAndUnkeyableConfigs(t *testing.T) {
	s := memoSetup()
	w := s.Workloads[0]

	var epochs uint64
	observed := core.Default()
	observed.OnEpoch = func(core.Epoch) { epochs++ }
	for i := 0; i < 2; i++ {
		epochs = 0
		res := s.RunMLPsim(w, observed, annotate.Config{})
		if res.Epochs == 0 || epochs != res.Epochs {
			t.Errorf("RunMLPsim call %d: callback saw %d epochs, result has %d", i, epochs, res.Epochs)
		}
		epochs = 0
		res = s.RunMLPsimBatch([]MLPPoint{{Workload: w, Config: observed}})[0]
		if res.Epochs == 0 || epochs != res.Epochs {
			t.Errorf("RunMLPsimBatch call %d: callback saw %d epochs, result has %d", i, epochs, res.Epochs)
		}
	}

	trained := prefetch.NewStride(1024, 4)
	direct := s
	direct.Cache, direct.Memo = nil, nil
	direct.RunMLPsim(w, core.Default(), annotate.Config{DPrefetch: trained})
	if trained.Untrained() {
		t.Fatal("direct run left the prefetcher untrained")
	}
	acfg := annotate.Config{DPrefetch: trained}
	for i := 0; i < 2; i++ {
		if res := s.RunMLPsim(w, core.Default(), acfg); res.Instructions != s.Measure {
			t.Errorf("RunMLPsim call %d with a trained prefetcher ran %d instructions, want %d", i, res.Instructions, s.Measure)
		}
		if res := s.RunMLPsimBatch([]MLPPoint{{Workload: w, Config: core.Default(), Annot: acfg}})[0]; res.Instructions != s.Measure {
			t.Errorf("RunMLPsimBatch call %d with a trained prefetcher ran %d instructions, want %d", i, res.Instructions, s.Measure)
		}
		if res := s.RunCycleSim(w, cyclesim.Default(500), acfg); res.Instructions != s.Measure {
			t.Errorf("RunCycleSim call %d with a trained prefetcher ran %d instructions, want %d", i, res.Instructions, s.Measure)
		}
	}

	if st := s.Memo.Stats(); st != (PointMemoStats{}) {
		t.Errorf("bypassing points touched the memo: %+v", st)
	}
}

// TestMemoAnswersRepeatedPoints: a repeated point is answered from the
// memo, bit-identical to a run without one, on both engines.
func TestMemoAnswersRepeatedPoints(t *testing.T) {
	s := memoSetup()
	plain := s
	plain.Memo = nil
	w := s.Workloads[0]
	points := []MLPPoint{
		{Workload: w, Config: core.Default()},
		{Workload: w, Config: core.Default().WithWindow(128)},
	}
	want := plain.RunMLPsimBatch(points)
	wantCyc := plain.RunCycleSim(w, cyclesim.Default(500), annotate.Config{})
	for i := 0; i < 2; i++ {
		if got := s.RunMLPsimBatch(points); !reflect.DeepEqual(got, want) {
			t.Errorf("batch call %d differs from an unmemoized run", i)
		}
		if got := s.RunMLPsim(w, core.Default(), annotate.Config{}); !reflect.DeepEqual(got, want[0]) {
			t.Errorf("RunMLPsim call %d differs from an unmemoized run", i)
		}
		if got := s.RunCycleSim(w, cyclesim.Default(500), annotate.Config{}); got != wantCyc {
			t.Errorf("RunCycleSim call %d differs from an unmemoized run", i)
		}
	}
	// Stored: two batch points and one cycle-sim point; the rest hit.
	if st := s.Memo.Stats(); st.Entries != 3 || st.Misses != 3 || st.Hits != 5 {
		t.Errorf("memo stats %+v, want 3 entries, 3 misses, 5 hits", st)
	}
}

// TestPointMemoEvictsLeastRecentlyUsed pins the bound: past
// memoCap entries the least recently used one goes.
func TestPointMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := NewPointMemo()
	key := func(i int) pointKey { return pointKey{engine: "mlpsim", config: fmt.Sprint(i)} }
	for i := 0; i < memoCap; i++ {
		m.put(key(i), core.Result{Instructions: int64(i)})
	}
	m.get(key(0)) // now most recently used; key(1) is the oldest
	m.put(key(memoCap), core.Result{})
	if st := m.Stats(); st.Entries != memoCap || st.Evictions != 1 {
		t.Fatalf("stats %+v, want %d entries and 1 eviction", st, memoCap)
	}
	if _, ok := m.get(key(1)); ok {
		t.Error("the least recently used entry survived")
	}
	if res, ok := m.get(key(0)); !ok || res.(core.Result).Instructions != 0 {
		t.Error("a recently used entry was evicted")
	}
}

// TestCancelledSweepStoresOnlyCompletedPoints cancels a batch mid-sweep
// and inspects what the memo kept: only points that ran to completion,
// each bit-identical to an unmemoized run — never the zero Result an
// undispatched point leaves in the batch's slice.
func TestCancelledSweepStoresOnlyCompletedPoints(t *testing.T) {
	s := memoSetup()
	s.GangSize = 1 // one point per dispatch, so the cancel lands between points
	s.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Ctx = ctx
	var points []MLPPoint
	for _, w := range s.Workloads {
		for _, size := range Figure4Sizes {
			for _, ic := range Figure4Configs {
				points = append(points, MLPPoint{Workload: w, Config: core.Default().WithWindow(size).WithIssue(ic)})
			}
		}
	}
	go func() {
		for s.Memo.Stats().Entries == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	s.RunMLPsimBatch(points)

	n := s.Memo.Stats().Entries
	if n == 0 || n >= len(points) {
		t.Fatalf("memo holds %d of %d points; the cancel did not land mid-sweep", n, len(points))
	}
	plain := s
	plain.Memo, plain.Ctx = nil, nil
	want := plain.RunMLPsimBatch(points)
	found := 0
	for i, p := range points {
		k, _ := s.mlpKey(p)
		el, ok := s.Memo.entries[k]
		if !ok {
			continue
		}
		found++
		got := el.Value.(*memoEntry).res.(core.Result)
		if got.Instructions == 0 || !reflect.DeepEqual(got, want[i]) {
			t.Errorf("point %d (%s): memo holds %+v, want %+v", i, p.Config.Name(), got, want[i])
		}
	}
	if found != n {
		t.Errorf("%d memo entries match none of the batch's points", n-found)
	}
}

// TestPointMemoConcurrentUse drives one memo from several goroutines at
// once — lookups, stores of shared and distinct keys, and Stats — so the
// race detector sees every access pattern a parallel sweep produces.
func TestPointMemoConcurrentUse(t *testing.T) {
	const workers, rounds, keys = 8, 2000, 600
	m := NewPointMemo()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := pointKey{engine: "mlpsim", config: fmt.Sprint(i % keys)}
				if res, ok := m.get(k); ok && res.(core.Result).Instructions != int64(i%keys) {
					t.Errorf("key %d answered %d", i%keys, res.(core.Result).Instructions)
				}
				m.put(k, core.Result{Instructions: int64(i % keys)})
				m.Stats()
			}
		}()
	}
	wg.Wait()
	if st := m.Stats(); st.Entries != keys || st.Hits+st.Misses != workers*rounds {
		t.Errorf("stats %+v, want %d entries and %d lookups", st, keys, workers*rounds)
	}
}

// TestRunExhibitShardDuplicateIndices: a peer request may repeat an
// index. The executor runs each requested point once — with one point
// per dispatch, running a repeat twice would race on its result slot —
// answers every repeat in request order, and answers a later request
// for the same points from the memo.
func TestRunExhibitShardDuplicateIndices(t *testing.T) {
	s := memoSetup()
	s.GangSize, s.Parallelism = 1, 2
	rs, _, err := RunExhibitShard(s, "table5", 0, []int{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Instructions == 0 || !reflect.DeepEqual(rs[0], rs[2]) || reflect.DeepEqual(rs[0], rs[1]) {
		t.Errorf("answers out of request order: %v", rs)
	}
	if st := s.Memo.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Errorf("executor memo %+v, want the 2 distinct points run and stored", st)
	}
	again, _, err := RunExhibitShard(s, "table5", 0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, rs[1:]) {
		t.Error("a repeated shard request answered differently")
	}
	if st := s.Memo.Stats(); st.Hits != 2 {
		t.Errorf("executor memo %+v, want the repeated request's 2 points as hits", st)
	}
}
