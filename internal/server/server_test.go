package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlpsim/internal/experiments"
)

// testServer returns a Server over a tiny Setup (fast on one core) plus
// an httptest wrapper around its Handler.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	setup := experiments.Quick(1)
	setup.Warmup = 20_000
	setup.Measure = 60_000
	setup.Parallelism = 2
	s := New(Options{Setup: setup, RequestTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get fetches path and returns the status code and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestListExhibits(t *testing.T) {
	_, ts := testServer(t)
	code, body := get(t, ts, "/v1/exhibits")
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200\n%s", code, body)
	}
	var got struct {
		Exhibits []struct{ ID, Title string } `json:"exhibits"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if want := len(experiments.All()); len(got.Exhibits) != want {
		t.Errorf("listed %d exhibits, want %d", len(got.Exhibits), want)
	}
	ids := make(map[string]bool)
	for _, e := range got.Exhibits {
		ids[e.ID] = true
	}
	for _, id := range []string{"table3", "figure4", "stability"} {
		if !ids[id] {
			t.Errorf("exhibit %q missing from listing", id)
		}
	}
}

// TestExhibitRequestValidation is the table test of every request-level
// failure mode.
func TestExhibitRequestValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name, path string
		wantCode   int
		wantErr    string
	}{
		{"unknown exhibit", "/v1/exhibits/figure99", http.StatusNotFound, "unknown exhibit"},
		{"bad seed", "/v1/exhibits/table5?seed=banana", http.StatusBadRequest, "not an integer"},
		{"bad warmup", "/v1/exhibits/table5?warmup=1e6", http.StatusBadRequest, "not an integer"},
		{"negative warmup", "/v1/exhibits/table5?warmup=-1", http.StatusBadRequest, "warmup"},
		{"zero measure", "/v1/exhibits/table5?measure=0", http.StatusBadRequest, "measure"},
		{"bad format", "/v1/exhibits/table5?format=xml", http.StatusBadRequest, "want json, csv or text"},
		{"post rejected", "", http.StatusMethodNotAllowed, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			var body []byte
			if tc.name == "post rejected" {
				resp, err := ts.Client().Post(ts.URL+"/v1/exhibits/table5", "text/plain", nil)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				code = resp.StatusCode
			} else {
				code, body = get(t, ts, tc.path)
			}
			if code != tc.wantCode {
				t.Fatalf("status %d, want %d\n%s", code, tc.wantCode, body)
			}
			if tc.wantErr != "" && !strings.Contains(string(body), tc.wantErr) {
				t.Errorf("body %q does not mention %q", body, tc.wantErr)
			}
		})
	}
}

// TestExhibitFormats runs one cheap exhibit through every format and
// holds each body to the exact bytes the shared writers produce for a
// directly computed result (the CLI-level equivalence test in
// cmd/experiments then pins the full binary-to-daemon path).
func TestExhibitFormats(t *testing.T) {
	s, ts := testServer(t)

	direct := s.opts.Setup
	out := experiments.RunTable5(direct)

	var wantJSON, wantCSV bytes.Buffer
	if err := experiments.WriteJSON(&wantJSON, out); err != nil {
		t.Fatal(err)
	}
	if err := experiments.WriteCSV(&wantCSV, out); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		format string
		want   []byte
	}{
		{"json", wantJSON.Bytes()},
		{"csv", wantCSV.Bytes()},
		{"text", []byte(out.String())},
	}
	for _, tc := range cases {
		t.Run(tc.format, func(t *testing.T) {
			code, body := get(t, ts, "/v1/exhibits/table5?format="+tc.format)
			if code != http.StatusOK {
				t.Fatalf("status %d\n%s", code, body)
			}
			if !bytes.Equal(body, tc.want) {
				t.Errorf("%s body differs from direct rendering\ngot:\n%s\nwant:\n%s", tc.format, body, tc.want)
			}
		})
	}
	// Default format is JSON.
	code, body := get(t, ts, "/v1/exhibits/table5")
	if code != http.StatusOK || !bytes.Equal(body, wantJSON.Bytes()) {
		t.Errorf("default format response (status %d) differs from JSON rendering", code)
	}
}

// TestResultCacheKeying: same key is computed once; any changed
// dimension of (seed, warmup, measure) is a distinct computation.
func TestResultCacheKeying(t *testing.T) {
	s, ts := testServer(t)
	paths := []string{
		"/v1/exhibits/table5",
		"/v1/exhibits/table5",               // result-cache hit
		"/v1/exhibits/table5?seed=2",        // new seed -> run
		"/v1/exhibits/table5?warmup=10000",  // new warmup -> run
		"/v1/exhibits/table5?measure=50000", // new measure -> run
		"/v1/exhibits/table5?seed=2",        // hit again
		"/v1/exhibits/table5?format=csv",    // format is NOT part of the key
	}
	for _, p := range paths {
		if code, body := get(t, ts, p); code != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", p, code, body)
		}
	}
	if runs := s.metrics.runsStarted.Load(); runs != 4 {
		t.Errorf("7 requests executed %d sweeps, want 4", runs)
	}
	hits, misses, _, entries := s.results.stats()
	if misses != 4 || hits != 3 {
		t.Errorf("result cache hits=%d misses=%d, want 3/4", hits, misses)
	}
	if entries != 4 {
		t.Errorf("result cache holds %d entries, want 4", entries)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := testServer(t)
	if code, body := get(t, ts, "/healthz"); code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, body)
	}
	s.BeginDrain()
	if code, body := get(t, ts, "/healthz"); code != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) != "draining" {
		t.Fatalf("draining healthz = %d %q, want 503 draining", code, body)
	}
	// Draining refuses health checks but keeps serving real requests
	// until http.Server.Shutdown closes the listener.
	if code, _ := get(t, ts, "/v1/exhibits"); code != http.StatusOK {
		t.Errorf("exhibit listing refused during drain: %d", code)
	}
	if code, body := get(t, ts, "/metrics"); code != http.StatusOK || !strings.Contains(string(body), "mlpsim_draining 1") {
		t.Errorf("metrics during drain (status %d) missing mlpsim_draining 1", code)
	}
}

// TestDrainCompletesInflight runs the daemon under a real http.Server
// and asserts the SIGTERM sequence (BeginDrain, then Shutdown) lets an
// in-flight exhibit request finish with a 200 instead of cutting it off.
func TestDrainCompletesInflight(t *testing.T) {
	setup := experiments.Quick(1)
	setup.Warmup = 20_000
	setup.Measure = 60_000
	setup.Parallelism = 2
	s := New(Options{Setup: setup})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := hs.Client().Get(hs.URL + "/v1/exhibits/table6")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		done <- result{code: resp.StatusCode}
	}()

	// Let the request reach the sweep (runsStarted is monotonic, so this
	// cannot miss a fast sweep), then drain exactly like serve() does.
	waitFor(t, 5*time.Second, func() bool { return s.metrics.runsStarted.Load() > 0 })
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Config.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown during in-flight request: %v", err)
	}
	r := <-done
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: code=%d err=%v, want 200", r.code, r.err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	if code, _ := get(t, ts, "/v1/exhibits/table5"); code != http.StatusOK {
		t.Fatal("warm-up request failed")
	}
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	for _, metric := range []string{
		`mlpsim_requests_total{code="200"} 1`,
		"mlpsim_request_seconds_count 1",
		"mlpsim_runs_total 1",
		"mlpsim_runs_inflight 0",
		"mlpsim_result_cache_misses_total 1",
		// table5 is 3 workloads x 2 configs; each workload's pair shares
		// one annotated stream, so the sweep dispatches 3 gangs of 2.
		"mlpsim_gang_runs_total 3",
		"mlpsim_gang_configs_total 6",
		"mlpsim_gang_solo_total 0",
		// The SoA stepper runs every config: table5's 6 in-order configs
		// step 60k measured instructions each.
		"mlpsim_gang_soa_insts_total 360000",
		// table5 runs oracle disambiguation only: the dep counters are
		// exported and stay zero.
		"mlpsim_dep_mispredicts_total 0",
		"mlpsim_dep_serializes_total 0",
		// table5 never schedules SMT threads: the policy counters are
		// exported and stay zero.
		"mlpsim_smt_sched_runs_total 0",
		"mlpsim_smt_sched_switches_total 0",
		"mlpsim_smt_sched_bursts_total 0",
		"mlpsim_smt_sched_overlapped_total 0",
		"mlpsim_smt_sched_floor_picks_total 0",
		"mlpsim_trace_cache_builds_total",
		"mlpsim_draining 0",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("metrics output missing %q\n%s", metric, body)
		}
	}
	if strings.Contains(string(body), "scalar") {
		t.Errorf("metrics output still splits gang work by stepper\n%s", body)
	}
}

// TestMetricsSMTSched pins the daemon-wide fold-in of the scheduled-SMT
// policy counters: one ext-smtsched sweep is 2 mixes x 3 thread counts
// x 3 policies = 18 policy runs, all reported on /metrics.
func TestMetricsSMTSched(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thread sweep")
	}
	_, ts := testServer(t)
	if code, body := get(t, ts, "/v1/exhibits/ext-smtsched"); code != http.StatusOK {
		t.Fatalf("ext-smtsched request: status %d\n%s", code, body)
	}
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if want := "mlpsim_smt_sched_runs_total 18"; !strings.Contains(string(body), want) {
		t.Errorf("metrics output missing %q\n%s", want, body)
	}
	if strings.Contains(string(body), "mlpsim_smt_sched_bursts_total 0\n") {
		t.Errorf("ext-smtsched sweep recorded no miss bursts")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
