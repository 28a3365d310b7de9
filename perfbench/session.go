package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mlpsim/internal/atrace"
	"mlpsim/internal/experiments"
	"mlpsim/internal/workload"
)

// session is one closed-loop pass of one client over a workload's
// exhibits: each exhibit as format=json (a sweep), then format=csv (a
// result-cache hit), the next request sent only after the previous body
// has been read.
type session struct {
	seed   int64 // the requests' seed=
	traced bool

	setup    time.Duration // spill build (warm-restart) plus daemon start
	wall     time.Duration // first request sent to last body read
	first    time.Duration // the first json response's latency
	cpu      time.Duration // process user+sys CPU over the window
	heapPeak uint64        // peak sampled Go heap over the window, bytes

	attempted, failed int
	failures          []string
	// digests holds "exhibit format sha256" per request, in order.
	digests []string
	counts  counts
	// Traced sessions only: the window in tracer seconds, and the
	// after-window probes.
	windowStart, windowEnd float64
	probes                 probes
}

func (s *session) fail(format string, args ...interface{}) {
	s.failed++
	s.failures = append(s.failures, fmt.Sprintf(format, args...))
}

// counts are the program's own counters after a session, summed over
// every daemon of the stack.
type counts struct {
	cache       atrace.CacheStats
	gangs       uint64 // multi-config gang dispatches
	configs     uint64 // engine configs run inside gangs
	solo        uint64 // points dispatched alone
	soaInsts    uint64
	scalarInsts uint64
	replicaPts  uint64 // configs+solo stepped by fleet replicas

	runs, resultHits                    uint64 // from /metrics
	peerFetched, peerServed, peerErrors uint64 // from /metrics
	spillBytes                          int64
}

// pointsRun is every sweep point a session's engines stepped.
func (c counts) pointsRun() uint64 { return c.configs + c.solo }

// runSession sets up a fresh stack for w in a new spill directory under
// workdir, drives one session against it and tears it down. A non-nil
// tracer makes it the traced variant (see trace.go).
func runSession(w benchWorkload, seed int64, sc scale, workdir string, tr *tracer) (*session, error) {
	t0 := time.Now()
	st, err := setUp(w, seed, sc, workdir, tr)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	defer st.close()
	// The window inherits no garbage, neither an earlier session's nor
	// this set-up's (warm-restart's spill build), so its heap peak and GC
	// work are the daemon's own.
	runtime.GC()
	s, err := drive(st, w, seed, sc, tr)
	if err != nil {
		return nil, err
	}
	s.setup = setup
	return s, nil
}

// setUp creates the session's spill directory, fills it for a warm
// restart, and starts the workload's daemon stack over it.
func setUp(w benchWorkload, seed int64, sc scale, workdir string, tr *tracer) (*stack, error) {
	dir, err := os.MkdirTemp(workdir, "spill-")
	if err != nil {
		return nil, err
	}
	if w.warm {
		// A previous daemon's spills: built by a cache of its own that is
		// dropped before the measured daemon starts.
		prev := atrace.NewCache()
		prev.SetDir(dir)
		for _, k := range sessionKeys(seed, sc) {
			var sp *openSpan
			if tr != nil {
				sp = tr.begin(spanBuild, "set-up "+k.key.Workload.Name, 0)
			}
			t := prev.GetTrace(k.key, k.spec)
			if sp != nil {
				sp.rec.Insts = k.key.Warmup + t.Len()
				tr.end(sp)
			}
		}
	}
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.wrapReplica
	}
	st, err := newStack(w, dir, wrap)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return st, nil
}

// drive runs one session's requests against st, timing the window from
// the first request sent to the last body read, then gathers the
// counters and applies the output checks.
func drive(st *stack, w benchWorkload, seed int64, sc scale, tr *tracer) (*session, error) {
	s := &session{seed: seed, traced: tr != nil}
	keys := sessionKeys(seed, sc)
	hs := startHeapSampler()
	cpu0 := processCPU()
	start := time.Now()
	if tr != nil {
		s.windowStart = tr.since(start)
		tr.prebuild(st, keys)
	}
	missesBefore := st.cacheStats().Misses
	jsonRows := map[string]int{}
	for _, ex := range w.exhibits {
		for _, format := range []string{"json", "csv"} {
			q := url.Values{
				"seed":    {strconv.FormatInt(seed, 10)},
				"warmup":  {strconv.FormatInt(sc.Warmup, 10)},
				"measure": {strconv.FormatInt(sc.Measure, 10)},
				"format":  {format},
			}
			var sp *openSpan
			if tr != nil {
				sp = tr.request(ex, format)
			}
			body, err := st.get(st.front.url() + "/v1/exhibits/" + ex + "?" + q.Encode())
			if sp != nil {
				tr.endRequest(sp)
			}
			if format == "json" && s.first == 0 {
				s.first = time.Since(start)
			}
			s.attempted++
			sum := sha256.Sum256(body)
			s.digests = append(s.digests, ex+" "+format+" "+hex.EncodeToString(sum[:]))
			if err != nil {
				s.fail("%s %s: %v", ex, format, err)
				continue
			}
			rows, err := countRows(format, body)
			if err != nil {
				s.fail("%s %s: %v", ex, format, err)
				continue
			}
			if format == "json" {
				jsonRows[ex] = rows
			} else if want, ok := jsonRows[ex]; ok && rows != want {
				s.fail("%s: csv has %d rows, json %d", ex, rows, want)
			}
		}
	}
	s.wall = time.Since(start)
	s.cpu = processCPU() - cpu0
	s.heapPeak = hs.stop()
	if tr != nil {
		s.windowEnd = s.windowStart + s.wall.Seconds()
	}

	var err error
	if s.counts, err = st.counts(); err != nil {
		return nil, err
	}
	s.check(w, seed, s.counts, st.cacheStats().Misses-missesBefore, tr != nil)
	if tr != nil {
		s.attempted++
		var err error
		if s.probes, err = tr.probe(st, keys, seed, sc); err != nil {
			s.fail("probe: %v", err)
		}
	}
	return s, nil
}

// check applies the session-level output checks, each one attempt.
func (s *session) check(w benchWorkload, seed int64, c counts, lateMisses uint64, traced bool) {
	if w.warm {
		s.attempted++
		if c.cache.Builds > 0 {
			s.fail("warm-restart built %d traces in the timed window", c.cache.Builds)
		}
	}
	if w.fleet {
		s.attempted++
		want := uint64(len(workload.Presets(seed)) * len(experiments.Figure4Sizes) * len(experiments.Figure4Configs))
		if c.peerErrors > 0 || c.peerFetched < want {
			s.fail("fleet fetched %d of %d figure4 points from peers with %d fetch errors", c.peerFetched, want, c.peerErrors)
		}
	}
	if traced {
		s.attempted++
		if lateMisses > 0 {
			s.fail("traced session missed %d trace keys after the pre-build", lateMisses)
		}
	}
}

// countRows checks that a body parses in its format and returns its
// data-row count; a body without rows is an error.
func countRows(format string, body []byte) (int, error) {
	var n int
	switch format {
	case "json":
		var doc struct {
			Rows []json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return 0, fmt.Errorf("unparseable json: %w", err)
		}
		n = len(doc.Rows)
	case "csv":
		recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			return 0, fmt.Errorf("unparseable csv: %w", err)
		}
		n = len(recs) - 1 // header
	default:
		return 0, fmt.Errorf("unknown format %q", format)
	}
	if n <= 0 {
		return 0, errors.New("body has no rows")
	}
	return n, nil
}

// cacheStats sums the trace-cache counters of every daemon.
func (st *stack) cacheStats() atrace.CacheStats {
	var sum atrace.CacheStats
	for _, d := range st.daemons() {
		c := d.cache.Stats()
		sum.Hits += c.Hits
		sum.Misses += c.Misses
		sum.Builds += c.Builds
		sum.DiskHits += c.DiskHits
		sum.LeasesTaken += c.LeasesTaken
	}
	return sum
}

// counts gathers every daemon's counters: trace cache and gang stats in
// process, request and peer counters from /metrics, and the spill
// directory's size.
func (st *stack) counts() (counts, error) {
	c := counts{cache: st.cacheStats()}
	for _, d := range st.replicas {
		c.replicaPts += d.gang.Configs.Load() + d.gang.Solo.Load()
	}
	for _, d := range st.daemons() {
		g := d.gang
		c.gangs += g.Gangs.Load()
		c.configs += g.Configs.Load()
		c.solo += g.Solo.Load()
		c.soaInsts += g.SoAInsts.Load()
		c.scalarInsts += g.ScalarInsts.Load()
		body, err := st.get(d.url() + "/metrics")
		if err != nil {
			return c, fmt.Errorf("scrape %q: %w", d.id, err)
		}
		m := parseMetrics(body)
		c.runs += m["mlpsim_runs_total"]
		c.resultHits += m["mlpsim_result_cache_hits_total"]
		c.peerFetched += m["mlpsim_peer_points_fetched_total"]
		c.peerServed += m["mlpsim_peer_points_served_total"]
		c.peerErrors += m["mlpsim_peer_fetch_errors_total"]
	}
	err := filepath.Walk(st.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			c.spillBytes += info.Size()
		}
		return nil
	})
	return c, err
}

// parseMetrics reads the unlabelled integer samples of a /metrics page.
func parseMetrics(body []byte) map[string]uint64 {
	m := make(map[string]uint64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseUint(f[1], 10, 64); err == nil {
			m[f[0]] = v
		}
	}
	return m
}

// processCPU is the process's user+sys CPU time. Every daemon runs in
// this process, so it covers the whole fleet.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak Go heap (live plus unswept objects) on a
// background goroutine. runtime/metrics reads without stopping the
// world, so sampling every millisecond costs the window little.
type heapSampler struct {
	done chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.done:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak, once the goroutine has exited.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	return <-h.peak
}
