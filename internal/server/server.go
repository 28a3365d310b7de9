// Package server turns the experiment registry into a long-lived HTTP
// daemon, so the warm annotated-trace cache (in-memory streams plus the
// mmap'd on-disk spill directory) is amortized across many requests
// instead of one CLI invocation.
//
// API (all GET):
//
//	/v1/exhibits                 list exhibits: [{"id","title"}]
//	/v1/exhibits/{name}          run one exhibit; query parameters:
//	    seed=N      workload generation seed     (default: daemon's)
//	    warmup=N    warm-up instructions per run (default: daemon's)
//	    measure=N   measured instructions        (default: daemon's)
//	    format=json|csv|text     response body   (default: json)
//	/healthz                     200 "ok", or 503 "draining" during shutdown
//	/metrics                     Prometheus text format counters
//
// Results are served from an in-memory singleflight cache keyed by
// (exhibit, seed, warmup, measure): N concurrent requests for the same
// key trigger exactly one sweep, and a sweep whose every requester has
// disconnected is cancelled mid-flight (the sweep worker pool drains;
// nothing leaks). Sweep execution is bounded by a worker semaphore
// reusing the Setup's parallelism, so a burst of distinct requests
// queues instead of oversubscribing the simulator.
//
// The JSON and CSV bodies are produced by the same experiments.WriteJSON
// / experiments.WriteCSV the CLI uses; the golden equivalence test in
// cmd/experiments pins them byte-identical to CLI output.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"mlpsim/internal/experiments"
	"mlpsim/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Setup carries the daemon-wide defaults (seed, warmup, measure) and
	// the shared trace cache every request runs against. Per-request
	// query parameters override seed/warmup/measure; the Cache pointer is
	// shared by all requests — that sharing is the daemon's whole point.
	Setup experiments.Setup
	// MaxConcurrent bounds simultaneously executing sweeps (not HTTP
	// connections). 0 reuses the Setup's parallelism (GOMAXPROCS when
	// that is 0 too): one sweep already saturates that many cores, so
	// extra sweeps queue on the semaphore instead of thrashing.
	MaxConcurrent int
	// RequestTimeout caps one request's wait, queueing included.
	// 0 means 15 minutes.
	RequestTimeout time.Duration
	// MaxResults bounds the completed-result cache (LRU). 0 means 64.
	MaxResults int
	// PeerID is this replica's identity on the fleet's hash ring. Empty
	// (or a fleet smaller than two) runs solo.
	PeerID string
	// Peers lists every replica of the fleet, this one included (its
	// own entry needs no usable URL). All replicas must be configured
	// with the same id set — ownership is a pure function of it.
	Peers []Peer
	// PeerTimeout caps one peer-points fetch. 0 means RequestTimeout.
	PeerTimeout time.Duration
}

// Server answers exhibit requests. Create with New, expose via Handler,
// flip BeginDrain before http.Server.Shutdown so load balancers stop
// routing to a dying instance.
type Server struct {
	opts     Options
	sem      chan struct{}
	results  *resultCache
	metrics  *metrics
	gang     *experiments.GangStats
	dep      *experiments.DepStats
	smtSched *experiments.SMTSchedStats
	memo     *experiments.PointMemo
	mux      *http.ServeMux
	draining atomic.Bool

	// Peer mode (see peer.go): nil ring means solo.
	ring       *hashRing
	peers      map[string]Peer // fleet minus this replica
	peerClient *http.Client
}

// New builds a Server; opts.Setup must have Workloads populated (use
// experiments.Default or Quick).
func New(opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		if opts.MaxConcurrent = opts.Setup.Parallelism; opts.MaxConcurrent <= 0 {
			opts.MaxConcurrent = runtime.GOMAXPROCS(0)
		}
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 15 * time.Minute
	}
	if opts.MaxResults <= 0 {
		opts.MaxResults = 64
	}
	s := &Server{
		opts:     opts,
		sem:      make(chan struct{}, opts.MaxConcurrent),
		results:  newResultCache(opts.MaxResults),
		metrics:  newMetrics(),
		gang:     &experiments.GangStats{},
		dep:      &experiments.DepStats{},
		smtSched: &experiments.SMTSchedStats{},
		mux:      http.NewServeMux(),
	}
	// Daemon-wide gang occupancy counters: every request's sweep reports
	// into the same stats, exported on /metrics.
	if s.opts.Setup.GangStats == nil {
		s.opts.Setup.GangStats = s.gang
	} else {
		s.gang = s.opts.Setup.GangStats
	}
	// Likewise for the memory-dependence speculation counters.
	if s.opts.Setup.DepStats == nil {
		s.opts.Setup.DepStats = s.dep
	} else {
		s.dep = s.opts.Setup.DepStats
	}
	// And the scheduled-SMT fetch-policy counters.
	if s.opts.Setup.SMTSched == nil {
		s.opts.Setup.SMTSched = s.smtSched
	} else {
		s.smtSched = s.opts.Setup.SMTSched
	}
	// One point memo per daemon: every exhibit request and peer shard
	// answers the points any earlier one ran without running them again.
	if s.opts.Setup.Memo == nil {
		s.opts.Setup.Memo = experiments.NewPointMemo()
	}
	s.memo = s.opts.Setup.Memo
	// Peer fleet: a ring forms when this replica has an identity and at
	// least one other replica to talk to; otherwise the daemon runs
	// solo. The ring hashes the configured id set — a PeerID absent from
	// Peers yields a coordinator-only replica that owns no points and
	// answers exhibits purely by scatter/gather (plus local fallback).
	if opts.PeerID != "" {
		ids := make([]string, 0, len(opts.Peers))
		s.peers = make(map[string]Peer)
		for _, p := range opts.Peers {
			ids = append(ids, p.ID)
			if p.ID != "" && p.ID != opts.PeerID {
				s.peers[p.ID] = p
			}
		}
		if len(s.peers) > 0 {
			s.ring = newHashRing(ids)
			timeout := opts.PeerTimeout
			if timeout <= 0 {
				timeout = opts.RequestTimeout
			}
			s.peerClient = &http.Client{Timeout: timeout}
		} else {
			s.peers = nil
		}
	}
	s.mux.HandleFunc("GET /v1/exhibits", s.handleList)
	s.mux.HandleFunc("GET /v1/exhibits/{name}", s.handleExhibit)
	s.mux.HandleFunc("GET /v1/peer/points", s.handlePeerPoints)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler with request accounting.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		s.metrics.observe(rec.code, time.Since(start))
	})
}

// BeginDrain flips /healthz to 503 so orchestrators stop sending
// traffic; in-flight requests keep running (http.Server.Shutdown is what
// actually waits them out).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// exhibitInfo is one /v1/exhibits listing entry.
type exhibitInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var list []exhibitInfo
	for _, rn := range experiments.All() {
		list = append(list, exhibitInfo{ID: rn.ID, Title: rn.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(struct {
		Exhibits []exhibitInfo `json:"exhibits"`
	}{Exhibits: list})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// int64Param parses one optional integer query parameter.
func int64Param(r *http.Request, name string, def int64) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s=%q is not an integer", name, v)
	}
	return n, nil
}

func (s *Server) handleExhibit(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	runner := experiments.Find(name)
	if runner == nil {
		httpError(w, http.StatusNotFound, "unknown exhibit %q (see /v1/exhibits)", name)
		return
	}
	seed, err := int64Param(r, "seed", s.opts.Setup.Seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	warmup, err := int64Param(r, "warmup", s.opts.Setup.Warmup)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	measure, err := int64Param(r, "measure", s.opts.Setup.Measure)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if warmup < 0 || measure <= 0 {
		httpError(w, http.StatusBadRequest, "warmup must be >= 0 and measure > 0 (got %d, %d)", warmup, measure)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "csv" && format != "text" {
		httpError(w, http.StatusBadRequest, "format=%q; want json, csv or text", format)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()

	key := resultKey{Exhibit: runner.ID, Seed: seed, Warmup: warmup, Measure: measure}
	out, err := s.results.do(ctx, key, func(runCtx context.Context) (fmt.Stringer, error) {
		return s.runExhibit(runCtx, *runner, key)
	})
	if err != nil {
		// The request timed out, the client hung up, or every interested
		// client did (the sweep was then cancelled). 504 covers all:
		// a disconnected client never reads the body anyway.
		httpError(w, http.StatusGatewayTimeout, "exhibit %s: %v", key, err)
		return
	}

	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		if err := experiments.WriteJSON(w, out); err != nil {
			httpError(w, http.StatusInternalServerError, "render json: %v", err)
		}
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if err := experiments.WriteCSV(w, out); err != nil {
			httpError(w, http.StatusInternalServerError, "render csv: %v", err)
		}
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, out.String())
	}
}

// runExhibit executes one sweep under the bounded worker semaphore, with
// the request context plumbed into the sweep loops so cancellation
// stops point dispatch and drains the pool.
func (s *Server) runExhibit(ctx context.Context, runner experiments.Runner, key resultKey) (fmt.Stringer, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()

	s.metrics.runsStarted.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	setup := s.opts.Setup
	setup.Seed = key.Seed
	setup.Workloads = workload.Presets(key.Seed)
	setup.Warmup = key.Warmup
	setup.Measure = key.Measure
	setup.Ctx = ctx
	if s.ring != nil {
		// Peer fleet: remotely-owned sweep points are fetched from their
		// owners instead of run; any failure falls back to local
		// execution, so the output is byte-identical either way.
		setup = setup.ShardedBy(s.newPeerRouter(ctx, key))
	}

	out := runner.Run(setup)
	if err := ctx.Err(); err != nil {
		// The sweep stopped early; its rows are partial. Discard.
		s.metrics.runErrors.Add(1)
		return nil, err
	}
	return out, nil
}
