package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlpsim/internal/experiments"
)

// metricValue scrapes one unlabelled sample from the daemon's /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("metrics output has no %s\n%s", name, body)
	return 0
}

// mustGet fetches path and fails the test on any status but 200.
func mustGet(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	code, body := get(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", path, code, body)
	}
	return body
}

// TestMemoMetricsFigure5AfterFigure4: figure5 is figure4's sweep, so
// after figure4 it is 75 memo hits and no engine work at all.
func TestMemoMetricsFigure5AfterFigure4(t *testing.T) {
	_, ts := testServer(t)
	mustGet(t, ts, "/v1/exhibits/figure4")
	configs := metricValue(t, ts, "mlpsim_gang_configs_total")
	solo := metricValue(t, ts, "mlpsim_gang_solo_total")
	if hits, misses := metricValue(t, ts, "mlpsim_point_memo_hits_total"), metricValue(t, ts, "mlpsim_point_memo_misses_total"); hits != 0 || misses != 75 {
		t.Fatalf("after figure4: %d memo hits, %d misses; want 0 and 75", hits, misses)
	}

	mustGet(t, ts, "/v1/exhibits/figure5")
	if hits := metricValue(t, ts, "mlpsim_point_memo_hits_total"); hits != 75 {
		t.Errorf("figure5 after figure4 counted %d memo hits, want 75", hits)
	}
	if got := metricValue(t, ts, "mlpsim_gang_configs_total"); got != configs {
		t.Errorf("figure5 after figure4 ran %d gang configs, want none", got-configs)
	}
	if got := metricValue(t, ts, "mlpsim_gang_solo_total"); got != solo {
		t.Errorf("figure5 after figure4 ran %d solo points, want none", got-solo)
	}
	if n := metricValue(t, ts, "mlpsim_point_memo_entries"); n != 75 {
		t.Errorf("memo holds %d entries, want figure4's 75", n)
	}
	if n := metricValue(t, ts, "mlpsim_point_memo_evictions_total"); n != 0 {
		t.Errorf("memo evicted %d entries under its cap", n)
	}
}

// TestMemoBodiesMatchUnmemoized: on one daemon, exhibits that share
// points — figure4, figure5, figure6 and table3, table4 — answer with
// the bytes a Setup without a memo renders.
func TestMemoBodiesMatchUnmemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-simulator sweeps")
	}
	s, ts := testServer(t)
	plain := experiments.Quick(1)
	plain.Warmup = 20_000
	plain.Measure = 60_000
	plain.Parallelism = 2
	for _, exhibit := range []string{"figure4", "figure5", "figure6", "table3", "table4"} {
		var want bytes.Buffer
		if err := experiments.WriteJSON(&want, experiments.Find(exhibit).Run(plain)); err != nil {
			t.Fatal(err)
		}
		if got := mustGet(t, ts, "/v1/exhibits/"+exhibit); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: memoized daemon body differs from an unmemoized run:\n--- want ---\n%s\n--- got ---\n%s",
				exhibit, want.Bytes(), got)
		}
	}
	// figure5 is all figure4's; figure6 reuses its 36 IW=ROB cells and
	// table3 its 27 window 32/64/128, config A-C cells; table4 reuses
	// table3's nine window-64 MLPsim runs and nine 1000-cycle cycle-sim
	// runs.
	if st, want := s.memo.Stats(), uint64(75+36+27+18); st.Hits != want {
		t.Errorf("memo hits %d, want %d", st.Hits, want)
	}
}

// TestMemoAfterCancelledSweep cancels a daemon sweep once some of its
// points have run, then asks again: the points stored by the
// cancelled sweep are reused, and the answer equals a fresh daemon's.
// A stored zero Result from an undispatched point would show in the
// bytes, since every figure4 cell is used.
func TestMemoAfterCancelledSweep(t *testing.T) {
	setup := experiments.Quick(1)
	setup.Warmup = 20_000
	setup.Measure = 60_000
	setup.Parallelism = 2
	setup.GangSize = 1 // one point per dispatch, so the cancel lands between points
	s := New(Options{Setup: setup, RequestTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/exhibits/figure4", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, 30*time.Second, func() bool { return s.gang.Solo.Load() > 0 })
	cancel()
	if err := <-done; err == nil {
		t.Fatal("request succeeded despite the client hanging up mid-sweep")
	}
	waitFor(t, 30*time.Second, func() bool { return s.metrics.inflight.Load() == 0 })
	stored := s.memo.Stats().Entries
	if ran := s.gang.Solo.Load(); ran >= 75 || uint64(stored) != ran {
		t.Fatalf("the cancelled sweep ran %d points and stored %d; want the same number, below figure4's 75", ran, stored)
	}

	got := mustGet(t, ts, "/v1/exhibits/figure4")
	_, fresh := testServer(t)
	if want := mustGet(t, fresh, "/v1/exhibits/figure4"); !bytes.Equal(got, want) {
		t.Errorf("figure4 after a cancelled sweep differs from a fresh daemon's:\n--- fresh ---\n%s\n--- got ---\n%s", want, got)
	}
	if st := s.memo.Stats(); st.Hits != uint64(stored) || st.Entries != 75 {
		t.Errorf("memo %+v after the retry; want the %d points the cancelled sweep stored as hits and 75 entries", st, stored)
	}
}

// TestObserverFigure5AddsNoPeerFetches: a coordinator-only observer
// answers figure5 after figure4 from its memo — no peer is asked for
// anything — and both answers equal a solo daemon's.
func TestObserverFigure5AddsNoPeerFetches(t *testing.T) {
	_, solo := testServer(t)
	f := newFleet(t, 2)
	for _, exhibit := range []string{"figure4", "figure5"} {
		fetches := f.obs.metrics.peerFetches.Load()
		path := "/v1/exhibits/" + exhibit + "?format=csv"
		if got, want := mustGet(t, f.obsHTTP, path), mustGet(t, solo, path); !bytes.Equal(got, want) {
			t.Errorf("observer %s differs from solo:\n--- solo ---\n%s\n--- observer ---\n%s", exhibit, want, got)
		}
		added := f.obs.metrics.peerFetches.Load() - fetches
		switch {
		case exhibit == "figure4" && added == 0:
			t.Error("observer fetched nothing for figure4; the sweep never offloaded")
		case exhibit == "figure5" && added != 0:
			t.Errorf("figure5 after figure4 made %d peer fetches, want 0", added)
		}
	}
	if n := f.obs.metrics.peerFetchErrors.Load(); n != 0 {
		t.Errorf("observer hit %d fetch errors against a healthy fleet", n)
	}
	if st := f.obs.memo.Stats(); st.Hits != 75 || st.Entries != 75 {
		t.Errorf("observer memo %+v, want 75 hits over figure4's 75 fetched points", st)
	}
}
