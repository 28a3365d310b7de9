package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json; the package test holds them equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"first_response_s", "s"},
	{"cpu_s", "s"},
	{"heap_peak_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"workload.ns_per_inst", "ns/inst"},
	{"annotate.ns_per_inst", "ns/inst"},
	{"annotate.insts", "count"},
	{"atrace.build_s", "s"},
	{"atrace.builds", "count"},
	{"atrace.load_s", "s"},
	{"atrace.disk_hits", "count"},
	{"atrace.hit_ratio", "ratio"},
	{"atrace.replay_ns_per_inst", "ns/inst"},
	{"atrace.spill_mb", "MiB"},
	{"atrace.leases_taken", "count"},
	{"core.soa_insts", "count"},
	{"core.scalar_insts", "count"},
	{"core.gangs", "count"},
	{"core.solo_points", "count"},
	{"core.ns_per_config_inst", "ns/config-inst"},
	{"cyclesim.ns_per_inst", "ns/inst"},
	{"experiments.run_s", "s"},
	{"experiments.points_run", "count"},
	{"experiments.parallel_eff", "ratio"},
	{"server.hit_ms", "ms"},
	{"server.runs", "count"},
	{"server.result_hits", "count"},
	{"server.peer_points_fetched", "count"},
	{"server.peer_points_served", "count"},
	{"server.peer_fetch_errors", "count"},
	{"server.peer_exec_points", "count"},
	{"server.peer_serve_s", "s"},
	{"unattributed_s", "s"},
	{"tracing_overhead_s", "s"},
}

// options are one run's settings: its flags, plus the workload's scale
// and the directories the run writes under, which the package test
// replaces.
type options struct {
	workload benchWorkload
	seed     int64
	seconds  float64
	traced   bool
	scale    scale
	workdir  string
	spansDir string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: cold-sweep, warm-restart, fleet-figure4 or cyclesim-validate")
		seed    = fs.Int64("seed", 1, "workload seed, sent to the daemon as each request's seed=")
		seconds = fs.Float64("seconds", 10, "measure sessions until this many seconds have passed (at least one session)")
		traced  = fs.Int("trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, ok := findWorkload(*name)
	if !ok {
		return options{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return options{}, fmt.Errorf("-trace %d: want 0 or 1", *traced)
	}
	if *seconds < 0 {
		return options{}, errors.New("-seconds must not be negative")
	}
	return options{workload: w, seed: *seed, seconds: *seconds, traced: *traced == 1, scale: w.scale,
		workdir: filepath.Join(".bench_build", "work"), spansDir: filepath.Join(".bench_build", "spans")}, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// seedsPerRun bounds the request seeds one run cycles its sessions
// through; a run never holds this many sessions, so each measured
// session asks for fresh keys. A seed fixes more than the traces: the
// fleet's hash ring places figure4's points by a key that includes it,
// and one seed can put every point on one replica. A run's median is
// then the typical placement and trace mix, not one draw.
const seedsPerRun = 256

// requestSeed is the seed= of session i of a run with the given seed.
// Runs with different seeds use disjoint request seeds.
func requestSeed(seed int64, i int) int64 { return seed*seedsPerRun + int64(i%seedsPerRun) }

// measure runs one unmeasured warm-up session, then sessions until the
// configured time has passed, and reduces them to the run's metrics:
// medians over the measured sessions.
func measure(o options, out io.Writer) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	workdir, err := os.MkdirTemp(o.workdir, o.workload.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	procs := runtime.GOMAXPROCS(0)
	fmt.Fprintf(out, "perfbench workload=%s exhibits=%v seed=%d warmup=%d measure=%d traced=%v\n",
		o.workload.name, o.workload.exhibits, o.seed, o.scale.Warmup, o.scale.Measure, o.traced)
	fmt.Fprintf(out, "env go=%s GOMAXPROCS=%d NumCPU=%d\n", runtime.Version(), procs, runtime.NumCPU())

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	// The warm-up session pays the process's first-use costs (code
	// pages, heap growth, listener set-up paths) outside the medians;
	// its responses are still checked.
	warm, err := runSession(o.workload, requestSeed(o.seed, 0), o.scale, workdir, nil)
	if err != nil {
		return nil, err
	}
	sessions := []*session{warm}
	var samples []map[string]float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := requestSeed(o.seed, i)
		u, err := runSession(o.workload, seed, o.scale, workdir, nil)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, u)
		if !o.traced {
			continue
		}
		id := fmt.Sprintf("s%d", i+1)
		tr.setSession(id)
		t, err := runSession(o.workload, seed, o.scale, workdir, tr)
		tr.setSession("")
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, t)
		r := tr.calibrate(sessionKeys(seed, o.scale))
		spans := tr.sessionSpans(id)
		samples = append(samples, layerMetrics(spans, t, u, r, o.scale, procs))
		if i == 0 {
			fmt.Fprintf(out, "layer breakdown of traced session %s (seed=%d):\n", id, seed)
			writeBreakdown(out, spans, t)
		}
	}
	if o.traced {
		path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.json", o.workload.name, o.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}

	res := &result{Metrics: map[string]metric{}}
	first := map[int64]*session{} // each request seed's first session
	for i, s := range sessions {
		fmt.Fprintf(out, "session %d seed=%d traced=%v setup=%.4fs wall=%.4fs first=%.4fs cpu=%.4fs heap=%.1fMiB\n",
			i, s.seed, s.traced, s.setup.Seconds(), s.wall.Seconds(), s.first.Seconds(), s.cpu.Seconds(), float64(s.heapPeak)/(1<<20))
		res.Attempted += s.attempted
		res.Failed += s.failed
		for _, f := range s.failures {
			fmt.Fprintln(out, "FAIL", f)
		}
		f, seen := first[s.seed]
		if !seen {
			first[s.seed] = s
			continue
		}
		// Sessions with one request seed ask for the same keys, so their
		// bodies must match byte for byte.
		res.Attempted++
		if !slices.Equal(s.digests, f.digests) {
			res.Failed++
			fmt.Fprintf(out, "FAIL session %d response digests differ from the first session with seed %d\n", i, s.seed)
		}
	}
	res.Correct = res.Failed == 0
	// How many sessions a run holds depends on the host's speed, so only
	// the warm-up's request seed, which every run with this --seed asks
	// for, prints the same lines on every run.
	for _, d := range sessions[0].digests {
		fmt.Fprintf(out, "digest seed=%d %s\n", sessions[0].seed, d)
	}
	c := sessions[0].counts
	fmt.Fprintf(out, "counts atrace.builds=%d experiments.points_run=%d core.soa_insts=%d core.scalar_insts=%d\n",
		c.cache.Builds, c.pointsRun(), c.soaInsts, c.scalarInsts)

	values := map[string][]float64{}
	if !o.traced {
		for _, s := range sessions[1:] {
			values["wall_s"] = append(values["wall_s"], s.wall.Seconds())
			values["first_response_s"] = append(values["first_response_s"], s.first.Seconds())
			values["cpu_s"] = append(values["cpu_s"], s.cpu.Seconds())
			values["heap_peak_mb"] = append(values["heap_peak_mb"], float64(s.heapPeak)/(1<<20))
			values["setup_s"] = append(values["setup_s"], s.setup.Seconds())
		}
		report(out, res, endToEnd, values)
	} else {
		for _, m := range samples {
			for k, v := range m {
				values[k] = append(values[k], v)
			}
		}
		report(out, res, perLayer, values)
	}
	fmt.Fprintf(out, "%-28s %12.4f %-14s (%d of %d attempts failed)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	return res, nil
}

// report stores each metric's median in res and prints it with its
// quartiles and sample count.
func report(out io.Writer, res *result, defs []metricDef, values map[string][]float64) {
	fmt.Fprintf(out, "%-28s %12s %-14s %12s %12s %3s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, d := range defs {
		v := values[d.name]
		q1, q3 := quartiles(v)
		res.Metrics[d.name] = metric{Value: median(v), Unit: d.unit}
		fmt.Fprintf(out, "%-28s %12.4f %-14s %12.4f %12.4f %3d\n", d.name, median(v), d.unit, q1, q3, len(v))
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles by linear
// interpolation between order statistics.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.75)
}
