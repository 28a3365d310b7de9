package experiments

import (
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/prefetch"
	"mlpsim/internal/vpred"
	"mlpsim/internal/workload"
)

// goldenSetups returns the same experiment setup twice: once routed
// through the annotated-trace cache and once on the direct
// annotate-per-run path.
func goldenSetups(seed int64) (cached, direct Setup) {
	cached = Quick(seed)
	cached.Warmup = 200_000
	cached.Measure = 500_000
	cached.Parallelism = 4 // exercise the worker pool + singleflight under -race
	direct = cached
	direct.Cache = nil
	return cached, direct
}

// TestCachedPathMatchesDirect is the golden determinism check of the
// annotated-trace cache: for every workload preset, the cached-replay and
// direct-annotation paths must produce bit-identical core.Result and
// cyclesim.Result values.
func TestCachedPathMatchesDirect(t *testing.T) {
	cached, direct := goldenSetups(1)

	coreConfigs := []struct {
		name string
		cfg  core.Config
	}{
		{"64C", core.Default()},
		{"64D-runahead", core.Default().WithIssue(core.ConfigD).WithRunahead()},
		{"inorder-stall-on-use", core.Config{Mode: core.InOrderStallOnUse}},
	}
	cycleConfigs := []struct {
		name string
		cfg  cyclesim.Config
	}{
		{"default", cyclesim.Default(400)},
	}

	for _, w := range cached.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, cc := range coreConfigs {
				got := cached.RunMLPsim(w, cc.cfg, annotate.Config{})
				want := direct.RunMLPsim(w, cc.cfg, annotate.Config{})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("core %s: cached result differs from direct\ncached: %+v\ndirect: %+v", cc.name, got, want)
				}
			}
			for _, cc := range cycleConfigs {
				got := cached.RunCycleSim(w, cc.cfg, annotate.Config{})
				want := direct.RunCycleSim(w, cc.cfg, annotate.Config{})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cyclesim %s: cached result differs from direct\ncached: %+v\ndirect: %+v", cc.name, got, want)
				}
			}
		})
	}
}

// TestSegmentedCacheMatchesDirect re-runs the golden determinism check
// through the disk cache: one cache publishes every trace as a spill (a
// manifest plus its segment file), and a second cache over the same
// directory replays each trace memory-mapped from those files. Its
// results must stay bit-identical to the direct annotate-per-run path.
func TestSegmentedCacheMatchesDirect(t *testing.T) {
	cached, direct := goldenSetups(1)
	dir := t.TempDir()
	cached.Cache.SetDir(dir)
	for _, w := range cached.Workloads {
		cached.AnnotateStats(w, annotate.Config{})
	}
	cached.Cache = atrace.NewCache()
	cached.Cache.SetDir(dir)

	cfgs := []core.Config{
		core.Default(),
		core.Default().WithIssue(core.ConfigD).WithRunahead(),
	}
	for _, w := range cached.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, cfg := range cfgs {
				got := cached.RunMLPsim(w, cfg, annotate.Config{})
				want := direct.RunMLPsim(w, cfg, annotate.Config{})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("mapped cached result differs from direct\ncached: %+v\ndirect: %+v", got, want)
				}
			}
			got := cached.RunCycleSim(w, cyclesim.Default(400), annotate.Config{})
			want := direct.RunCycleSim(w, cyclesim.Default(400), annotate.Config{})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("mapped cached cyclesim result differs from direct\ncached: %+v\ndirect: %+v", got, want)
			}
		})
	}
	if st := cached.Cache.Stats(); st.Builds != 0 || st.DiskHits != uint64(len(cached.Workloads)) {
		t.Errorf("second cache stats %+v, want every trace loaded from disk and none built", st)
	}
}

// TestCachedStatsMatchDirect checks the AnnotateStats path (Table 6 /
// Compare) the same way.
func TestCachedStatsMatchDirect(t *testing.T) {
	cached, direct := goldenSetups(2)
	w := cached.Workloads[0]
	acfg := func() annotate.Config {
		return annotate.Config{Value: vpred.NewLastValue(vpred.DefaultEntries)}
	}
	got := cached.AnnotateStats(w, acfg())
	want := direct.AnnotateStats(w, acfg())
	if got != want {
		t.Errorf("cached stats %+v, want %+v", got, want)
	}
}

// TestCacheDeduplicatesAcrossRunners asserts the tentpole property: a
// sweep that runs many engine configurations over one workload performs
// exactly one annotation pass per annotation config.
func TestCacheDeduplicatesAcrossRunners(t *testing.T) {
	s := Quick(3)
	s.Warmup = 100_000
	s.Measure = 250_000
	s.Workloads = s.Workloads[:1]
	s.Parallelism = 4

	for _, cfg := range []core.Config{
		core.Default(),
		core.Default().WithROB(256),
		core.Default().WithIssue(core.ConfigD),
		core.Default().WithIssue(core.ConfigD).WithRunahead(),
	} {
		s.RunMLPsim(s.Workloads[0], cfg, annotate.Config{})
	}
	s.RunCycleSim(s.Workloads[0], cyclesim.Default(400), annotate.Config{})

	st := s.Cache.Stats()
	if st.Builds != 1 {
		t.Errorf("5 runs performed %d annotation passes, want 1", st.Builds)
	}
	if st.Hits != 4 {
		t.Errorf("cache hits %d, want 4", st.Hits)
	}
}

// TestPrefetchConfigsAreCached: untrained deterministic hardware
// prefetchers are part of the cache key, so a prefetch configuration gets
// one shared annotation pass like any other, and the prefetcher
// statistics are served from the stream's metadata — identical to what a
// direct run's instances would report.
func TestPrefetchConfigsAreCached(t *testing.T) {
	s := Quick(4)
	s.Warmup = 50_000
	s.Measure = 100_000
	w := workload.Strided(s.Seed)
	acfg := func() annotate.Config {
		return annotate.Config{DPrefetch: prefetch.NewStride(1024, 4)}
	}

	res := s.RunMLPsim(w, core.Default(), acfg())
	if res.Instructions != s.Measure {
		t.Errorf("cached run consumed %d instructions, want %d", res.Instructions, s.Measure)
	}
	if st := s.Cache.Stats(); st.Builds != 1 {
		t.Errorf("prefetch config performed %d annotation passes, want 1 (stats %+v)", st.Builds, st)
	}
	_, dst := s.PrefetchStats(w, acfg())
	if dst.Issued == 0 {
		t.Error("stream metadata carries no data-prefetcher statistics")
	}
	if st := s.Cache.Stats(); st.Builds != 1 {
		t.Errorf("PrefetchStats triggered a rebuild: %d annotation passes, want 1", st.Builds)
	}

	direct := s
	direct.Cache = nil
	dpf := prefetch.NewStride(1024, 4)
	dres := direct.RunMLPsim(w, core.Default(), annotate.Config{DPrefetch: dpf})
	if !reflect.DeepEqual(res, dres) {
		t.Errorf("cached result differs from direct\ncached: %+v\ndirect: %+v", res, dres)
	}
	if got := dpf.Stats(); got != dst {
		t.Errorf("metadata stats %+v differ from direct-instance stats %+v", dst, got)
	}
}

// TestTrainedPrefetcherBypassesCache: an instance that has already seen
// traffic cannot be keyed (its state is not derivable from the
// configuration), so the run must fall back to the direct path and the
// instance itself carries the statistics.
func TestTrainedPrefetcherBypassesCache(t *testing.T) {
	s := Quick(5)
	s.Warmup = 50_000
	s.Measure = 100_000
	w := workload.Strided(s.Seed)

	dpf := prefetch.NewStride(1024, 4)
	direct := s
	direct.Cache = nil
	direct.RunMLPsim(w, core.Default(), annotate.Config{DPrefetch: dpf})
	if dpf.Untrained() {
		t.Fatal("direct run left the prefetcher untrained")
	}

	res := s.RunMLPsim(w, core.Default(), annotate.Config{DPrefetch: dpf})
	if res.Instructions != s.Measure {
		t.Errorf("fallback run consumed %d instructions, want %d", res.Instructions, s.Measure)
	}
	if st := s.Cache.Stats(); st.Builds != 0 || st.Misses != 0 {
		t.Errorf("trained prefetcher config touched the cache (stats %+v); must use the direct path", st)
	}
	if _, dst := s.PrefetchStats(w, annotate.Config{DPrefetch: dpf}); dst != dpf.Stats() {
		t.Errorf("PrefetchStats %+v, want the instance's own %+v", dst, dpf.Stats())
	}
}
