// Command bench records the simulator's performance trajectory and
// gates changes against it.
//
// By default it runs the gated micro-benchmarks, the root package's go
// test benchmarks named in gated, then the Figure 4+5+6 sweep three
// ways: uncached, with the in-heap annotated-trace cache, and replaying
// memory-mapped spills from a warm on-disk cache. It writes a JSON
// report (BENCH_N.json) with the host it ran on, ns/op, wall times,
// peak Go-heap occupancy and headline MLP metrics; -compare prints
// deltas against an earlier report, first saying whether the two hosts
// differ.
//
// With -gate-base REV it is a regression gate instead: it runs the
// gated benchmarks of REV and of the working tree in paired, alternating
// rounds on this host and fails on a regression (see gateViolations).
//
// Run it from the repository root. Usage:
//
//	go run ./cmd/bench -scale quick -out /tmp/bench.json
//	go run ./cmd/bench -scale default -out BENCH_11.json -compare BENCH_10.json
//	go run ./cmd/bench -gate-base HEAD
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/experiments"
)

// gated names the root package's benchmarks (without the Benchmark
// prefix) that reports record and the gate checks, in report order.
var gated = []string{
	"AnnotateStream", "ReplayStream", "MLPsimEngine",
	"GangSweepK1", "GangSweepK4", "GangSweepK16", "GangSweepK32", "GangSweepK64",
	"GangSweepInOrder", "CycleSimGang", "SMTSchedule",
}

const (
	// gateMaxRatio is the largest median working-tree/base ns/op ratio
	// the gate passes. On a shared 2-CPU VM, gating a tree against
	// itself read per-benchmark medians of 0.73-1.30, though single
	// rounds ranged 0.37-2.82; a 2x slowdown reads about 2.
	gateMaxRatio = 1.5
	// gateRounds is the number of alternating base/working-tree rounds.
	// The median of seven absorbs three bad rounds; with five, one
	// unchanged benchmark's median reached 1.29 on that VM.
	gateRounds = 7
	// gateBenchtime is each gated benchmark's run length per round.
	gateBenchtime = "0.2s"
)

type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// AllocsPerInst is a gang benchmark's allocations per replayed trace
	// instruction (its allocs/inst metric), nil where it reports none. A
	// gang op is one config·instruction, so allocs/op floors one
	// allocation per replayed instruction to 0 from K=2 up.
	AllocsPerInst *int64 `json:"allocs_per_inst,omitempty"`
}

// gateAllocs is the count the gate's zero-alloc rule reads: allocations
// per replayed trace instruction where the benchmark reports them,
// allocs/op otherwise (and for a base that predates the metric).
func (r benchResult) gateAllocs() int64 {
	if r.AllocsPerInst != nil {
		return *r.AllocsPerInst
	}
	return r.AllocsPerOp
}

type sweepResult struct {
	Exhibits        []string `json:"exhibits"`
	UncachedSeconds float64  `json:"uncached_seconds"`
	CachedSeconds   float64  `json:"cached_seconds"`
	Speedup         float64  `json:"speedup"`
	Identical       bool     `json:"results_identical"`
	CacheBuilds     uint64   `json:"cache_builds"`
	CacheHits       uint64   `json:"cache_hits"`
	CacheBytes      int64    `json:"cache_bytes"`

	// In-heap cached sweep peak Go-heap occupancy (sampled HeapAlloc).
	CachedHeapPeakBytes int64 `json:"cached_heap_peak_bytes"`
	// Warm-disk-cache sweep: every stream is a view over a memory-mapped
	// spill, so the columns live in the OS page cache, not the heap.
	MappedSeconds       float64 `json:"mapped_seconds"`
	MappedHeapPeakBytes int64   `json:"mapped_heap_peak_bytes"`
	MappedIdentical     bool    `json:"mapped_results_identical"`
	MappedDiskHits      uint64  `json:"mapped_disk_hits"`
	// HeapDropRatio is cached_heap_peak / mapped_heap_peak — the memory
	// win of replaying spills from the page cache.
	HeapDropRatio float64 `json:"heap_drop_ratio"`
}

// host records where a report was measured, so that -compare can tell
// a change of host from a change of code.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// thisHost describes the running host. The CPU model comes from the
// first "model name" line of /proc/cpuinfo, and is empty where that
// file cannot be read.
func thisHost() *host {
	h := &host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// hostDiff lists the fields in which host b differs from host a, as
// "name a -> b".
func hostDiff(a, b host) []string {
	var diffs []string
	add := func(name string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v -> %v", name, x, y))
		}
	}
	add("goos", a.GOOS, b.GOOS)
	add("goarch", a.GOARCH, b.GOARCH)
	add("num_cpu", a.NumCPU, b.NumCPU)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go_version", a.GoVersion, b.GoVersion)
	add("cpu_model", strconv.Quote(a.CPUModel), strconv.Quote(b.CPUModel))
	return diffs
}

type report struct {
	Schema     string                 `json:"schema"`
	Host       *host                  `json:"host,omitempty"`
	Scale      string                 `json:"scale"`
	Seed       int64                  `json:"seed"`
	Warmup     int64                  `json:"warmup"`
	Measure    int64                  `json:"measure"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
	Sweep      *sweepResult           `json:"sweep,omitempty"`
	MLP        map[string]float64     `json:"mlp"`
}

// heapPeak runs f while sampling HeapAlloc every 5ms and returns the
// peak. A GC runs first so the peak reflects f, not garbage left over
// from earlier work.
func heapPeak(f func()) int64 {
	runtime.GC()
	var peak uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	f()
	close(stop)
	<-done
	sample()
	return int64(peak)
}

// runBenchmarks runs the named benchmarks once, from the tree at dir,
// with the command argv — go test itself or a test binary — and returns
// the gated results it printed.
func runBenchmarks(dir, benchtime string, names []string, argv ...string) (map[string]benchResult, error) {
	cmd := exec.Command(argv[0], append(argv[1:], "-test.run", "^$", "-test.bench", "^Benchmark("+strings.Join(names, "|")+")$",
		"-test.benchmem", "-test.benchtime", benchtime, "-test.timeout", "10m")...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s in %s: %v\n%s", strings.Join(argv, " "), dir, err, out)
	}
	return parseBench(string(out)), nil
}

// parseBench reads the gated benchmarks' results from go test output.
// A result line is
//
//	BenchmarkName-N  iterations  value ns/op  [value unit]...
//
// where the -N GOMAXPROCS suffix is absent at one CPU, -benchmem adds
// the B/op and allocs/op pairs and b.ReportMetric adds custom ones.
// Every other line, and every benchmark not in gated, is skipped.
func parseBench(out string) map[string]benchResult {
	res := make(map[string]benchResult)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		name, ok := strings.CutPrefix(f[0], "Benchmark")
		if _, err := strconv.Atoi(f[1]); err != nil || !ok {
			continue
		}
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if !slices.Contains(gated, name) {
			continue
		}
		var r benchResult
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			case "allocs/inst":
				n := int64(v)
				r.AllocsPerInst = &n
			}
		}
		if r.NsPerOp > 0 { // go test omits a zero ns/op
			res[name] = r
		}
	}
	return res
}

// microBenchmarks runs the working tree's gated set once through go
// test, at its default run length.
func microBenchmarks() (map[string]benchResult, error) {
	res, err := runBenchmarks(".", "1s", gated, "go", "test", ".")
	if err != nil {
		return nil, err
	}
	for _, name := range gated {
		if _, ok := res[name]; !ok {
			return nil, fmt.Errorf("go test reported no Benchmark%s", name)
		}
	}
	return res, nil
}

// runGate exports git revision rev, builds the root package's test
// binary in it and in the working tree, and runs the two for gateRounds
// rounds, one process at a time. A round runs each gated benchmark in
// its own processes, the two trees' back to back in an order that flips
// each round, so a pair sees the same host load and pairing cancels the
// drift a stored baseline cannot. It returns the gate's failures; an
// error means the gate could not run.
func runGate(rev string) ([]string, error) {
	tmp, err := os.MkdirTemp("", "mlpsim-gate-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	dirs := [2]string{filepath.Join(tmp, "base"), "."}
	bins := [2]string{filepath.Join(tmp, "base.test"), filepath.Join(tmp, "head.test")}
	tarball := filepath.Join(tmp, "base.tar")
	// -trimpath keeps each tree's directory out of its build, so the
	// packages the two trees share compile once and both link alike.
	for _, argv := range [][]string{
		{"git", "archive", "--format=tar", "--prefix=base/", "-o", tarball, "--end-of-options", rev},
		{"tar", "-xf", tarball, "-C", tmp},
		{"go", "-C", dirs[0], "test", "-c", "-trimpath", "-o", bins[0], "."},
		{"go", "test", "-c", "-trimpath", "-o", bins[1], "."},
	} {
		fmt.Fprintf(os.Stderr, "bench: gate: %s\n", strings.Join(argv, " "))
		if out, err := exec.Command(argv[0], argv[1:]...).CombinedOutput(); err != nil {
			return nil, fmt.Errorf("%s: %v\n%s", strings.Join(argv, " "), err, out)
		}
	}

	var runs [2][]map[string]benchResult
	for r := 0; r < gateRounds; r++ {
		runs[0], runs[1] = append(runs[0], map[string]benchResult{}), append(runs[1], map[string]benchResult{})
		for _, name := range gated {
			for _, side := range [][]int{{0, 1}, {1, 0}}[r%2] {
				res, err := runBenchmarks(dirs[side], gateBenchtime, []string{name}, bins[side])
				if err != nil {
					return nil, err
				}
				maps.Copy(runs[side][r], res)
			}
		}
		fmt.Fprintf(os.Stderr, "bench: gate: round %d of %d done\n", r+1, gateRounds)
	}
	fails, notes := gateViolations(gated, runs[0], runs[1])
	for _, n := range notes {
		fmt.Println(n)
	}
	return fails, nil
}

// gateViolations decides the paired gate for names, given per-round
// results of the base and the working tree (head), where round i of the
// two sides ran back to back. A benchmark fails when the median of its
// per-round head/base ns/op ratios exceeds gateMaxRatio, or when its
// median allocation count (gateAllocs) is zero at the base and not at
// the head. It also fails when the head lacks it: a renamed or dropped
// benchmark would otherwise leave the gate unnoticed. One the base lacks
// is new, with nothing to compare against, and only noted. Every name
// gets a note.
func gateViolations(names []string, base, head []map[string]benchResult) (fails, notes []string) {
	for _, name := range names {
		var ratios, baseAllocs, headAllocs []float64
		inHead, inBase := len(head) > 0, len(base) > 0
		for i := range head {
			h, okh := head[i][name]
			b, okb := base[i][name]
			inHead, inBase = inHead && okh, inBase && okb
			ratios = append(ratios, h.NsPerOp/b.NsPerOp)
			baseAllocs = append(baseAllocs, float64(b.gateAllocs()))
			headAllocs = append(headAllocs, float64(h.gateAllocs()))
		}
		if !inHead {
			fails = append(fails, name+": missing from the working tree (renamed or dropped?)")
			continue
		}
		if !inBase {
			notes = append(notes, fmt.Sprintf("%-16s new: not in the base, not gated", name))
			continue
		}
		ratio, a0, a1 := median(ratios), median(baseAllocs), median(headAllocs)
		notes = append(notes, fmt.Sprintf("%-16s median ns/op ratio %.3f (rounds %.3f-%.3f)  allocs %g -> %g",
			name, ratio, slices.Min(ratios), slices.Max(ratios), a0, a1))
		// Written so that a NaN ratio, from a base at 0 ns/op, fails too.
		if !(ratio <= gateMaxRatio) {
			fails = append(fails, fmt.Sprintf("%s: median ns/op ratio %.3f exceeds %.2f", name, ratio, gateMaxRatio))
		}
		if a0 == 0 && a1 != 0 {
			fails = append(fails, fmt.Sprintf("%s: 0 -> %g allocs (zero-alloc steady state regressed)", name, a1))
		}
	}
	return fails, notes
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// sweep runs the Figure 4+5+6 sweep in four passes: uncached; with the
// in-heap trace cache; with a cache that writes every stream's spill
// into a temporary directory; and with a fresh cache over that
// directory, which serves every stream as a memory-mapped view whose
// columns live in the OS page cache, not the heap. Each pass's cache is
// dropped before the next pass samples its heap peak. It records the
// headline MLP metrics into mlp.
func sweep(s experiments.Setup, mlp map[string]float64) (*sweepResult, error) {
	dir, err := os.MkdirTemp("", "mlpsim-bench-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var (
		secs  [4]float64
		peaks [4]int64
		f4    [4]experiments.Figure4
		f6    [4]experiments.Figure6
		stats [4]atrace.CacheStats
	)
	for i, label := range []string{"uncached", "in-heap cache", "warming the disk cache", "warm disk cache (memory-mapped)"} {
		run := s
		run.Cache = nil
		if i > 0 {
			run.Cache = atrace.NewCache()
		}
		if i > 1 {
			run.Cache.SetDir(dir)
		}
		fmt.Fprintf(os.Stderr, "bench: running Figure 4+5+6 sweep, %s...\n", label)
		peaks[i] = heapPeak(func() {
			start := time.Now()
			f4[i] = experiments.RunFigure4(run)
			experiments.RunFigure5(run)
			f6[i] = experiments.RunFigure6(run)
			secs[i] = time.Since(start).Seconds()
		})
		if run.Cache != nil {
			stats[i] = run.Cache.Stats()
		}
		fmt.Fprintf(os.Stderr, "bench: %.1fs, heap peak %.1f MB\n", secs[i], float64(peaks[i])/(1<<20))
	}
	if stats[3].Builds != 0 {
		fmt.Fprintf(os.Stderr, "bench: warning: warm sweep still performed %d annotation passes\n", stats[3].Builds)
	}

	for _, w := range s.Workloads {
		mlp[w.Name+"/64C"] = f4[1].Lookup(w.Name, 64, core.ConfigC).MLP
		mlp[w.Name+"/256E"] = f4[1].Lookup(w.Name, 256, core.ConfigE).MLP
		mlp[w.Name+"/INF"] = f6[1].INF[w.Name]
	}
	return &sweepResult{
		Exhibits:            []string{"figure4", "figure5", "figure6"},
		UncachedSeconds:     secs[0],
		CachedSeconds:       secs[1],
		Speedup:             secs[0] / secs[1],
		Identical:           reflect.DeepEqual(f4[0].Cells, f4[1].Cells),
		CacheBuilds:         stats[1].Builds,
		CacheHits:           stats[1].Hits,
		CacheBytes:          stats[1].Bytes,
		CachedHeapPeakBytes: peaks[1],
		MappedSeconds:       secs[3],
		MappedHeapPeakBytes: peaks[3],
		MappedIdentical:     reflect.DeepEqual(f4[0].Cells, f4[3].Cells),
		MappedDiskHits:      stats[3].DiskHits,
		HeapDropRatio:       float64(peaks[1]) / float64(peaks[3]),
	}, nil
}

// printComparison prints headline deltas against a previous report. Its
// first line says when the two reports were measured on different
// hosts, or when the previous one does not record its host: the ns/op
// and sweep deltas then measure the host as well as the code.
func printComparison(w io.Writer, path string, old, cur report) {
	fmt.Fprintf(w, "comparison vs %s (%s)", path, old.Schema)
	if old.Host == nil || cur.Host == nil {
		fmt.Fprint(w, "; a report records no host, so deltas may measure a change of host")
	} else if diffs := hostDiff(*old.Host, *cur.Host); len(diffs) > 0 {
		fmt.Fprintf(w, "; DIFFERENT HOST (%s), so deltas measure the host as well as the code", strings.Join(diffs, ", "))
	}
	fmt.Fprintln(w, ":")
	for _, name := range gated {
		o, c := old.Benchmarks[name], cur.Benchmarks[name]
		if o.NsPerOp > 0 && c.NsPerOp > 0 {
			fmt.Fprintf(w, "  %-16s %8.1f -> %8.1f ns/op  (%+.1f%%)\n",
				name, o.NsPerOp, c.NsPerOp, 100*(c.NsPerOp-o.NsPerOp)/o.NsPerOp)
		}
	}
	if old.Sweep != nil && cur.Sweep != nil {
		o, c := old.Sweep, cur.Sweep
		fmt.Fprintf(w, "  uncached sweep   %8.1f -> %8.1f s\n", o.UncachedSeconds, c.UncachedSeconds)
		fmt.Fprintf(w, "  cached sweep     %8.1f -> %8.1f s\n", o.CachedSeconds, c.CachedSeconds)
		fmt.Fprintf(w, "  mapped sweep     %8.1f -> %8.1f s\n", o.MappedSeconds, c.MappedSeconds)
		fmt.Fprintf(w, "  cached heap peak %8.1f -> %8.1f MB\n",
			float64(o.CachedHeapPeakBytes)/(1<<20), float64(c.CachedHeapPeakBytes)/(1<<20))
		fmt.Fprintf(w, "  mapped heap peak %8.1f -> %8.1f MB\n",
			float64(o.MappedHeapPeakBytes)/(1<<20), float64(c.MappedHeapPeakBytes)/(1<<20))
	}
	keys := make([]string, 0, len(cur.MLP))
	for k := range cur.MLP {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	mismatch := false
	for _, k := range keys {
		if ov, ok := old.MLP[k]; ok && ov != cur.MLP[k] {
			fmt.Fprintf(w, "  MLP %-18s %.4f -> %.4f  *** CHANGED\n", k, ov, cur.MLP[k])
			mismatch = true
		}
	}
	if !mismatch {
		fmt.Fprintln(w, "  MLP metrics identical")
	}
}

// usageError reports a bad command line and exits 2 before any work.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	scale := flag.String("scale", "quick", "sweep scale: quick or default")
	out := flag.String("out", "", "write the JSON report to this file (default: standard output)")
	seed := flag.Int64("seed", 1, "workload seed of the sweep")
	compare := flag.String("compare", "", "print deltas against a previous report (e.g. BENCH_10.json)")
	gateBase := flag.String("gate-base", "", "gate instead of recording: run the working tree's micro-benchmarks paired with this git revision's")
	flag.Parse()
	if flag.NArg() > 0 {
		usageError("unexpected argument %q: every option is a flag", flag.Arg(0))
	}

	if *gateBase != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "gate-base" {
				usageError("-gate-base runs the gate only; -%s does not apply", f.Name)
			}
		})
		fails, err := runGate(*gateBase)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: gate: %v\n", err)
			os.Exit(1)
		}
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "bench: gate: %s\n", f)
		}
		if len(fails) > 0 {
			fmt.Fprintf(os.Stderr, "bench: gate: %d failure(s) against %s\n", len(fails), *gateBase)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: gate: passed against %s\n", *gateBase)
		return
	}

	var s experiments.Setup
	switch *scale {
	case "quick":
		s = experiments.Quick(*seed)
	case "default":
		s = experiments.Default(*seed)
	default:
		usageError("-scale %q: must be quick or default", *scale)
	}
	var old report
	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err == nil {
			err = json.Unmarshal(data, &old)
		}
		if err != nil {
			usageError("-compare %s: %v", *compare, err)
		}
	}

	rep := report{
		Schema:  "mlpsim-bench/13",
		Host:    thisHost(),
		Scale:   *scale,
		Seed:    *seed,
		Warmup:  s.Warmup,
		Measure: s.Measure,
		MLP:     make(map[string]float64),
	}
	fmt.Fprintln(os.Stderr, "bench: running micro-benchmarks...")
	var err error
	if rep.Benchmarks, err = microBenchmarks(); err == nil {
		rep.Sweep, err = sweep(s, rep.MLP)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if *compare != "" {
		printComparison(os.Stderr, *compare, old, rep)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		data = append(data, '\n')
		if *out == "" {
			_, err = os.Stdout.Write(data)
		} else if err = os.WriteFile(*out, data, 0o644); err == nil {
			fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *out)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}
