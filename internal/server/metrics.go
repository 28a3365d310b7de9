package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metrics holds the daemon's counters, rendered at /metrics in the
// Prometheus text exposition format (hand-rolled: no dependency).
type metrics struct {
	mu       sync.Mutex
	requests map[int]uint64 // HTTP responses by status code

	latencySum   atomic.Int64 // nanoseconds across all requests
	latencyCount atomic.Uint64

	runsStarted atomic.Uint64 // exhibit sweeps actually executed
	runErrors   atomic.Uint64 // sweeps that ended in error (incl. cancelled)
	inflight    atomic.Int64  // sweeps currently executing

	peerFetches       atomic.Uint64 // shard fetches attempted against peers
	peerFetchErrors   atomic.Uint64 // fetches that fell back to local execution
	peerPointsFetched atomic.Uint64 // sweep points computed by peers on our behalf
	peerRequests      atomic.Uint64 // peer-points requests this replica served
	peerPointsServed  atomic.Uint64 // sweep points this replica computed for peers
}

func newMetrics() *metrics {
	return &metrics{requests: make(map[int]uint64)}
}

// observe records one finished HTTP request.
func (m *metrics) observe(code int, d time.Duration) {
	m.mu.Lock()
	m.requests[code]++
	m.mu.Unlock()
	m.latencySum.Add(int64(d))
	m.latencyCount.Add(1)
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// write renders every counter the daemon owns plus the shared
// trace-cache counters, deterministically ordered.
func (s *Server) writeMetrics(w io.Writer) {
	m := s.metrics
	m.mu.Lock()
	codes := make([]int, 0, len(m.requests))
	for c := range m.requests {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	fmt.Fprintln(w, "# HELP mlpsim_requests_total HTTP responses by status code.")
	fmt.Fprintln(w, "# TYPE mlpsim_requests_total counter")
	for _, c := range codes {
		fmt.Fprintf(w, "mlpsim_requests_total{code=%q} %d\n", fmt.Sprint(c), m.requests[c])
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP mlpsim_request_seconds Cumulative request latency.")
	fmt.Fprintln(w, "# TYPE mlpsim_request_seconds summary")
	fmt.Fprintf(w, "mlpsim_request_seconds_sum %g\n", time.Duration(m.latencySum.Load()).Seconds())
	fmt.Fprintf(w, "mlpsim_request_seconds_count %d\n", m.latencyCount.Load())

	fmt.Fprintln(w, "# HELP mlpsim_runs_total Exhibit sweeps executed (not served from the result cache).")
	fmt.Fprintln(w, "# TYPE mlpsim_runs_total counter")
	fmt.Fprintf(w, "mlpsim_runs_total %d\n", m.runsStarted.Load())
	fmt.Fprintf(w, "mlpsim_run_errors_total %d\n", m.runErrors.Load())
	fmt.Fprintln(w, "# HELP mlpsim_runs_inflight Exhibit sweeps currently executing.")
	fmt.Fprintln(w, "# TYPE mlpsim_runs_inflight gauge")
	fmt.Fprintf(w, "mlpsim_runs_inflight %d\n", m.inflight.Load())

	fmt.Fprintln(w, "# HELP mlpsim_gang Gang-dispatch occupancy (configs per gang = configs_total / runs_total); engine work only, not point-memo hits.")
	fmt.Fprintln(w, "# TYPE mlpsim_gang_runs_total counter")
	fmt.Fprintf(w, "mlpsim_gang_runs_total %d\n", s.gang.Gangs.Load())
	fmt.Fprintf(w, "mlpsim_gang_configs_total %d\n", s.gang.Configs.Load())
	fmt.Fprintf(w, "mlpsim_gang_solo_total %d\n", s.gang.Solo.Load())
	fmt.Fprintln(w, "# HELP mlpsim_gang_insts Instructions processed inside multi-config gangs, all on the structure-of-arrays stepper.")
	fmt.Fprintln(w, "# TYPE mlpsim_gang_soa_insts_total counter")
	fmt.Fprintf(w, "mlpsim_gang_soa_insts_total %d\n", s.gang.SoAInsts.Load())

	fmt.Fprintln(w, "# HELP mlpsim_dep Memory-dependence speculation events across all engine runs (non-oracle disambiguation modes); engine work only, not point-memo hits.")
	fmt.Fprintln(w, "# TYPE mlpsim_dep_mispredicts_total counter")
	fmt.Fprintf(w, "mlpsim_dep_mispredicts_total %d\n", s.dep.Mispredicts.Load())
	fmt.Fprintf(w, "mlpsim_dep_serializes_total %d\n", s.dep.Serializes.Load())

	fmt.Fprintln(w, "# HELP mlpsim_smt_sched Scheduled-SMT fetch-policy counters across ext-smtsched sweeps.")
	fmt.Fprintln(w, "# TYPE mlpsim_smt_sched_runs_total counter")
	fmt.Fprintf(w, "mlpsim_smt_sched_runs_total %d\n", s.smtSched.Runs.Load())
	fmt.Fprintf(w, "mlpsim_smt_sched_switches_total %d\n", s.smtSched.Switches.Load())
	fmt.Fprintf(w, "mlpsim_smt_sched_bursts_total %d\n", s.smtSched.Bursts.Load())
	fmt.Fprintf(w, "mlpsim_smt_sched_overlapped_total %d\n", s.smtSched.Overlapped.Load())
	fmt.Fprintf(w, "mlpsim_smt_sched_floor_picks_total %d\n", s.smtSched.FloorPicks.Load())

	fmt.Fprintln(w, "# HELP mlpsim_peer Sharded-sweep fabric counters (peer fleet mode).")
	fmt.Fprintln(w, "# TYPE mlpsim_peer_fleet_size gauge")
	fleet := 0
	if s.ring != nil {
		fleet = len(s.peers) + 1
	}
	fmt.Fprintf(w, "mlpsim_peer_fleet_size %d\n", fleet)
	fmt.Fprintln(w, "# TYPE mlpsim_peer_fetches_total counter")
	fmt.Fprintf(w, "mlpsim_peer_fetches_total %d\n", m.peerFetches.Load())
	fmt.Fprintf(w, "mlpsim_peer_fetch_errors_total %d\n", m.peerFetchErrors.Load())
	fmt.Fprintf(w, "mlpsim_peer_points_fetched_total %d\n", m.peerPointsFetched.Load())
	fmt.Fprintf(w, "mlpsim_peer_requests_total %d\n", m.peerRequests.Load())
	fmt.Fprintf(w, "mlpsim_peer_points_served_total %d\n", m.peerPointsServed.Load())

	hits, misses, abandoned, entries := s.results.stats()
	fmt.Fprintln(w, "# HELP mlpsim_result_cache Result-cache effectiveness.")
	fmt.Fprintf(w, "mlpsim_result_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "mlpsim_result_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "mlpsim_result_cache_abandoned_total %d\n", abandoned)
	fmt.Fprintf(w, "mlpsim_result_cache_entries %d\n", entries)

	ms := s.memo.Stats()
	fmt.Fprintln(w, "# HELP mlpsim_point_memo Sweep points answered from the point memo instead of run (see experiments.PointMemo).")
	fmt.Fprintln(w, "# TYPE mlpsim_point_memo_hits_total counter")
	fmt.Fprintf(w, "mlpsim_point_memo_hits_total %d\n", ms.Hits)
	fmt.Fprintf(w, "mlpsim_point_memo_misses_total %d\n", ms.Misses)
	fmt.Fprintf(w, "mlpsim_point_memo_evictions_total %d\n", ms.Evictions)
	fmt.Fprintln(w, "# TYPE mlpsim_point_memo_entries gauge")
	fmt.Fprintf(w, "mlpsim_point_memo_entries %d\n", ms.Entries)

	if c := s.opts.Setup.Cache; c != nil {
		st := c.Stats()
		fmt.Fprintln(w, "# HELP mlpsim_trace_cache Annotated-trace cache counters (see atrace.CacheStats).")
		fmt.Fprintf(w, "mlpsim_trace_cache_hits_total %d\n", st.Hits)
		fmt.Fprintf(w, "mlpsim_trace_cache_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "mlpsim_trace_cache_builds_total %d\n", st.Builds)
		fmt.Fprintf(w, "mlpsim_trace_cache_disk_hits_total %d\n", st.DiskHits)
		fmt.Fprintf(w, "mlpsim_trace_cache_quarantined_total %d\n", st.Quarantined)
		fmt.Fprintf(w, "mlpsim_trace_cache_disk_evictions_total %d\n", st.DiskEvictions)
		fmt.Fprintf(w, "mlpsim_trace_cache_leases_taken_total %d\n", st.LeasesTaken)
		fmt.Fprintf(w, "mlpsim_trace_cache_leases_stolen_total %d\n", st.LeasesStolen)
		fmt.Fprintf(w, "mlpsim_trace_cache_bytes %d\n", st.Bytes)
		fmt.Fprintf(w, "mlpsim_trace_cache_streams %d\n", st.Streams)
	}

	fmt.Fprintln(w, "# HELP mlpsim_draining 1 while the daemon refuses new health checks pending shutdown.")
	fmt.Fprintln(w, "# TYPE mlpsim_draining gauge")
	d := 0
	if s.Draining() {
		d = 1
	}
	fmt.Fprintf(w, "mlpsim_draining %d\n", d)
}
