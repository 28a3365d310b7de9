package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/cyclesim"
	"mlpsim/internal/experiments"
	"mlpsim/internal/workload"
)

// Span names. Top-level spans of a traced session are the pre-build
// calls into atrace and the session's requests; server.peer_points
// spans are children of the observer request that caused them.
const (
	spanBuild     = "atrace.build"       // GetTrace miss that annotated and published
	spanLoad      = "atrace.load"        // GetTrace miss served by mapping a spill
	spanHit       = "atrace.hit"         // GetTrace served from memory
	spanRun       = "experiments.run"    // json request on pre-built traces: planner, engines, render
	spanServe     = "server.hit"         // csv request: HTTP, result cache, render
	spanPeer      = "server.peer_points" // replica-side /v1/peer/points call
	spanGenerate  = "workload.generate"  // calibration: generator drain
	spanAnnotate  = "annotate.drain"     // calibration: annotator drain (generator included)
	spanReplay    = "atrace.replay"      // calibration: Trace.Source drain
	spanCycleSim  = "cyclesim.run"       // calibration: cyclesim.Sim.Run
	spanEngine    = "core.run"           // probe: core.Engine.Run
	calibrationID = "calibration"
)

// spanRec is one recorded span. Times are seconds since the tracer
// started; CPU is the process CPU the span's interval used.
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Session string  `json:"session"`
	Name    string  `json:"name"`
	Attr    string  `json:"attr,omitempty"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
	CPU     float64 `json:"cpu_s,omitempty"`
	Insts   int64   `json:"insts,omitempty"`
}

func (s spanRec) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. It is
// safe for concurrent use: replica-side spans close on server goroutines.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []spanRec
	session string

	// current is the open request span's id, the parent of every
	// replica-side span it causes; the one client sends one request at
	// a time.
	current atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span being timed.
type openSpan struct {
	rec  spanRec
	t0   time.Time
	cpu0 time.Duration
}

func (t *tracer) begin(name, attr string, parent int) *openSpan {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{}) // reserve the id
	session := t.session
	t.mu.Unlock()
	now := time.Now()
	return &openSpan{
		rec:  spanRec{ID: id, Parent: parent, Session: session, Name: name, Attr: attr, Start: now.Sub(t.epoch).Seconds()},
		t0:   now,
		cpu0: processCPU(),
	}
}

// end records the span and returns its duration.
func (t *tracer) end(sp *openSpan) time.Duration {
	d := time.Since(sp.t0)
	sp.rec.End = sp.rec.Start + d.Seconds()
	sp.rec.CPU = (processCPU() - sp.cpu0).Seconds()
	t.mu.Lock()
	t.spans[sp.rec.ID-1] = sp.rec
	t.mu.Unlock()
	return d
}

// since converts a wall-clock instant to tracer seconds.
func (t *tracer) since(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

func (t *tracer) setSession(id string) {
	t.mu.Lock()
	t.session = id
	t.mu.Unlock()
}

// sessionSpans returns the recorded spans of one session.
func (t *tracer) sessionSpans(id string) []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []spanRec
	for _, s := range t.spans {
		if s.Session == id {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Spans []spanRec `json:"spans"`
	}{t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// prebuild calls GetTrace on the daemons' own caches for every key the
// session touches, before any request needs it: a solo daemon's cache,
// or each fleet replica's in turn (the first builds under a lease, the
// next maps the spill it published). The session's sweeps then hit.
func (t *tracer) prebuild(st *stack, keys []traceKey) {
	builders := st.replicas
	if len(builders) == 0 {
		builders = []*daemon{st.front}
	}
	for _, d := range builders {
		for _, k := range keys {
			before := d.cache.Stats()
			sp := t.begin(spanHit, strings.TrimSpace(d.id+" "+k.key.Workload.Name), 0)
			tr := d.cache.GetTrace(k.key, k.spec)
			after := d.cache.Stats()
			switch {
			case after.Builds > before.Builds:
				sp.rec.Name = spanBuild
				sp.rec.Insts = k.key.Warmup + tr.Len()
			case after.DiskHits > before.DiskHits:
				sp.rec.Name = spanLoad
			}
			t.end(sp)
		}
	}
}

// request opens the span of one session request and makes it the
// parent of the replica-side spans it causes.
func (t *tracer) request(exhibit, format string) *openSpan {
	name := spanServe
	if format == "json" {
		name = spanRun
	}
	sp := t.begin(name, exhibit, 0)
	t.current.Store(int64(sp.rec.ID))
	return sp
}

func (t *tracer) endRequest(sp *openSpan) {
	t.current.Store(0)
	t.end(sp)
}

// wrapReplica spans every /v1/peer/points call a fleet replica serves.
func (t *tracer) wrapReplica(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/peer/points" {
			h.ServeHTTP(w, r)
			return
		}
		q := r.URL.Query()
		attr := fmt.Sprintf("%s batch %s points %d", q.Get("exhibit"), q.Get("batch"), strings.Count(q.Get("points"), ",")+1)
		sp := t.begin(spanPeer, attr, int(t.current.Load()))
		h.ServeHTTP(w, r)
		t.end(sp)
	})
}

// probes are a traced session's after-window calls into layers through
// their public entry points: one each for layers the window exercises
// too briefly to time (replay), or not at all on some workloads (spill
// loads, peer serving, the ungrouped engine).
type probes struct {
	replayNs float64 // Trace.Source drain of the session's traces, ns/inst
	restartS float64 // a fresh cache mapping the session's spills, s
	peerS    float64 // one /v1/peer/points call to a solo daemon, s
	engineNs float64 // the default engine config over the first trace, ns/inst
}

// probe runs the probes against the session's stack. Their spans carry
// the calibration session id: they are outside the window.
func (t *tracer) probe(st *stack, keys []traceKey, seed int64, sc scale) (probes, error) {
	t.setSession(calibrationID)
	defer t.setSession("")
	var p probes
	d := st.front
	if len(st.replicas) > 0 {
		d = st.replicas[0]
	}
	var insts int64
	var total time.Duration
	for _, k := range keys {
		src := d.cache.GetTrace(k.key, k.spec).Source()
		sp := t.begin(spanReplay, strings.TrimSpace(d.id+" "+k.key.Workload.Name), 0)
		var in annotate.Inst
		n := int64(0)
		for src.NextInto(&in) {
			n++
		}
		sp.rec.Insts = n
		total += t.end(sp)
		insts += n
	}
	p.replayNs = ratio(float64(total), float64(insts))

	// What a restart over this session's spill directory pays to map it.
	fresh := atrace.NewCache()
	fresh.SetDir(st.dir)
	total = 0
	for _, k := range keys {
		sp := t.begin(spanLoad, "restart "+k.key.Workload.Name, 0)
		fresh.GetTrace(k.key, k.spec)
		total += t.end(sp)
	}
	p.restartS = total.Seconds()
	if hits := fresh.Stats().DiskHits; hits != uint64(len(keys)) {
		return p, fmt.Errorf("a fresh cache mapped %d of the session's %d spills", hits, len(keys))
	}

	k := keys[0]
	cfg := core.Default()
	cfg.MaxInstructions = sc.Measure
	sp := t.begin(spanEngine, k.key.Workload.Name, 0)
	res := core.NewEngine(d.cache.GetTrace(k.key, k.spec).Source(), cfg).Run()
	sp.rec.Insts = res.Instructions
	p.engineNs = ratio(float64(t.end(sp)), float64(res.Instructions))

	if len(st.replicas) == 0 {
		// A solo daemon serves peer points too: figure4's point 0 at the
		// session's key, whose trace it holds.
		q := url.Values{
			"exhibit": {"figure4"},
			"seed":    {strconv.FormatInt(seed, 10)},
			"warmup":  {strconv.FormatInt(sc.Warmup, 10)},
			"measure": {strconv.FormatInt(sc.Measure, 10)},
			"batch":   {"0"},
			"points":  {"0"},
		}
		sp := t.begin(spanPeer, "figure4 batch 0 points 1", 0)
		body, err := st.get(st.front.url() + "/v1/peer/points?" + q.Encode())
		p.peerS = t.end(sp).Seconds()
		if err != nil {
			return p, err
		}
		var pr struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &pr); err != nil || len(pr.Results) != 1 {
			return p, fmt.Errorf("peer points probe: %d results, %v", len(pr.Results), err)
		}
	}
	return p, nil
}

// rates are the per-instruction host-time calibrations of the layers
// that a traced session cannot time from outside the daemon.
type rates struct {
	generate, annotate, cycleSim float64 // ns per instruction
}

// calibrate times the generator, the annotator and the cycle simulator
// over a session's own trace keys, outside any session window.
func (t *tracer) calibrate(keys []traceKey) rates {
	t.setSession(calibrationID)
	defer t.setSession("")
	var gen, annot time.Duration
	var insts int64
	buf := make([]annotate.Inst, 2048)
	for _, k := range keys {
		n := k.key.Warmup + k.key.Measure
		g := workload.MustNew(k.key.Workload)
		sp := t.begin(spanGenerate, k.key.Workload.Name, 0)
		for i := int64(0); i < n; i++ {
			if _, ok := g.Next(); !ok {
				break
			}
		}
		sp.rec.Insts = n
		gen += t.end(sp)

		a := k.spec.NewAnnotator()
		sp = t.begin(spanAnnotate, k.key.Workload.Name, 0)
		a.Warm(k.key.Warmup)
		for left := k.key.Measure; left > 0; {
			want := int64(len(buf))
			if left < want {
				want = left
			}
			got := a.AnnotateInto(buf[:want])
			left -= int64(got)
			if int64(got) < want {
				break
			}
		}
		sp.rec.Insts = n
		annot += t.end(sp)
		insts += n
	}

	k := keys[0]
	a := k.spec.NewAnnotator()
	a.Warm(k.key.Warmup)
	stream := atrace.Capture(a, k.key.Measure)
	cfg := cyclesim.Default(experiments.Table4Penalty)
	cfg.MaxInstructions = stream.Len()
	sp := t.begin(spanCycleSim, k.key.Workload.Name, 0)
	res := cyclesim.New(stream.Source(), cfg).Run()
	sp.rec.Insts = res.Instructions
	cs := t.end(sp)
	return rates{
		generate: ratio(float64(gen), float64(insts)),
		annotate: ratio(float64(annot-gen), float64(insts)),
		cycleSim: ratio(float64(cs), float64(res.Instructions)),
	}
}

// layerMetrics derives one traced session's per-layer metrics from its
// spans, counters and rates. untraced is the paired untraced session.
func layerMetrics(spans []spanRec, traced, untraced *session, r rates, sc scale, procs int) map[string]float64 {
	var buildS, runS, runWall, runCPU, peerS, topLevel float64
	var annotInsts int64
	var hits []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Start >= traced.windowStart && s.End <= traced.windowEnd {
			topLevel += s.dur()
		}
		switch s.Name {
		case spanBuild:
			buildS += s.dur()
			annotInsts += s.Insts
		case spanRun:
			runS += s.dur()
			runWall += s.dur()
			runCPU += s.CPU
		case spanServe:
			runS -= s.dur()
			hits = append(hits, s.dur()*1e3)
		case spanPeer:
			peerS += s.dur()
		}
	}
	c := traced.counts
	p := traced.probes
	nsPerConfigInst := ratio(runS*1e9, float64(c.soaInsts+c.scalarInsts+c.solo*uint64(sc.Measure)))
	if nsPerConfigInst == 0 {
		nsPerConfigInst = p.engineNs // no sweep went through the gang planner
	}
	if peerS == 0 {
		peerS = p.peerS // no replicas
	}
	return map[string]float64{
		"workload.ns_per_inst":       r.generate,
		"annotate.ns_per_inst":       r.annotate,
		"annotate.insts":             float64(annotInsts),
		"atrace.build_s":             buildS,
		"atrace.builds":              float64(c.cache.Builds),
		"atrace.load_s":              p.restartS,
		"atrace.disk_hits":           float64(c.cache.DiskHits),
		"atrace.hit_ratio":           ratio(float64(c.cache.Hits), float64(c.cache.Hits+c.cache.Misses)),
		"atrace.replay_ns_per_inst":  p.replayNs,
		"atrace.spill_mb":            float64(c.spillBytes) / (1 << 20),
		"atrace.leases_taken":        float64(c.cache.LeasesTaken),
		"core.soa_insts":             float64(c.soaInsts),
		"core.scalar_insts":          float64(c.scalarInsts),
		"core.gangs":                 float64(c.gangs),
		"core.solo_points":           float64(c.solo),
		"core.ns_per_config_inst":    nsPerConfigInst,
		"cyclesim.ns_per_inst":       r.cycleSim,
		"experiments.run_s":          runS,
		"experiments.points_run":     float64(c.pointsRun()),
		"experiments.parallel_eff":   ratio(runCPU, runWall*float64(procs)),
		"server.hit_ms":              median(hits),
		"server.runs":                float64(c.runs),
		"server.result_hits":         float64(c.resultHits),
		"server.peer_points_fetched": float64(c.peerFetched),
		"server.peer_points_served":  float64(c.peerServed),
		"server.peer_fetch_errors":   float64(c.peerErrors),
		"server.peer_exec_points":    float64(c.replicaPts),
		"server.peer_serve_s":        peerS,
		"unattributed_s":             traced.wall.Seconds() - topLevel,
		"tracing_overhead_s":         traced.wall.Seconds() - untraced.wall.Seconds(),
	}
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeBreakdown prints one traced session's spans grouped by name:
// count, total and self time (total minus the time its child spans
// cover), and the share of the session wall of names whose top-level
// spans lie in the window (warm-restart's set-up builds do not).
func writeBreakdown(w io.Writer, spans []spanRec, s *session) {
	wall := s.wall.Seconds()
	type agg struct {
		n                int
		total, self, win float64
		top              bool
	}
	byName := map[string]*agg{}
	children := map[int]float64{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] += sp.dur()
		}
	}
	var topLevel float64
	for _, sp := range spans {
		a := byName[sp.Name]
		if a == nil {
			a = &agg{}
			byName[sp.Name] = a
		}
		a.n++
		a.total += sp.dur()
		self := sp.dur() - children[sp.ID]
		if self < 0 {
			self = 0 // concurrent children can cover more than the parent's wall
		}
		a.self += self
		if sp.Parent == 0 && sp.Start >= s.windowStart && sp.End <= s.windowEnd {
			a.top = true
			a.win += sp.dur()
			topLevel += sp.dur()
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-20s %5s %9s %9s %7s\n", "span", "count", "total_s", "self_s", "of_wall")
	for _, n := range names {
		a := byName[n]
		share := "-"
		if a.top {
			share = fmt.Sprintf("%.1f%%", 100*a.win/wall)
		}
		fmt.Fprintf(w, "  %-20s %5d %9.3f %9.3f %7s\n", n, a.n, a.total, a.self, share)
	}
	fmt.Fprintf(w, "  %-20s %5s %9.3f %9s %6.1f%%\n", "(unattributed)", "", wall-topLevel, "", 100*(wall-topLevel)/wall)
	fmt.Fprintf(w, "  %-20s %5s %9.3f\n", "(session wall)", "", wall)
}
