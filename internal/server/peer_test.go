package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mlpsim/internal/experiments"
)

// fleetSetup returns one replica's Setup: tiny runs, private trace
// cache — replicas share nothing but the wire protocol.
func fleetSetup() experiments.Setup {
	setup := experiments.Quick(1)
	setup.Warmup = 20_000
	setup.Measure = 60_000
	setup.Parallelism = 2
	return setup
}

// fleet is a set of in-process replicas plus an observer that owns no
// points.
type fleet struct {
	servers []*Server
	https   []*httptest.Server
	obs     *Server
	obsHTTP *httptest.Server
}

// newFleet starts n replicas (ids r0..r{n-1}) and one coordinator-only
// observer ("obs", not on the ring). Peer URLs must exist before the
// Servers do, so each httptest.Server fronts a swappable handler that
// is installed once the fleet list is known.
func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{}
	handlers := make([]atomic.Value, n+1) // [n] = observer
	for i := 0; i <= n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		if i < n {
			f.https = append(f.https, ts)
		} else {
			f.obsHTTP = ts
		}
	}
	peers := make([]Peer, n)
	for i := range peers {
		peers[i] = Peer{ID: fmt.Sprintf("r%d", i), URL: f.https[i].URL}
	}
	for i := 0; i < n; i++ {
		s := New(Options{
			Setup: fleetSetup(), RequestTimeout: time.Minute,
			PeerID: peers[i].ID, Peers: peers,
		})
		f.servers = append(f.servers, s)
		handlers[i].Store(s.Handler())
	}
	f.obs = New(Options{
		Setup: fleetSetup(), RequestTimeout: time.Minute,
		PeerID: "obs", Peers: peers,
	})
	handlers[n].Store(f.obs.Handler())
	return f
}

// TestFleetByteIdenticalToSolo is the tentpole's acceptance test: every
// replica of a 3-replica fleet — and an observer that owns none of the
// points — answers figure4 and ext-storesets byte-identical to a solo
// daemon in all three formats.
func TestFleetByteIdenticalToSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit sweeps over HTTP")
	}
	_, solo := testServer(t)
	f := newFleet(t, 3)

	for _, exhibit := range []string{"figure4", "ext-storesets"} {
		for _, format := range []string{"json", "csv", "text"} {
			path := "/v1/exhibits/" + exhibit + "?format=" + format
			code, want := get(t, solo, path)
			if code != http.StatusOK {
				t.Fatalf("solo GET %s: %d\n%s", path, code, want)
			}
			targets := []*httptest.Server{f.obsHTTP}
			if exhibit == "figure4" {
				targets = append(targets, f.https...)
			}
			for ti, ts := range targets {
				code, got := get(t, ts, path)
				if code != http.StatusOK {
					t.Fatalf("fleet[%d] GET %s: %d\n%s", ti, path, code, got)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("fleet[%d] %s differs from solo:\n--- solo ---\n%s\n--- fleet ---\n%s",
						ti, path, want, got)
				}
			}
		}
	}

	// The observer owns no points, so its answers were entirely
	// scatter/gather: fetches happened and none fell back.
	if n := f.obs.metrics.peerPointsFetched.Load(); n == 0 {
		t.Error("observer fetched 0 points; the sweeps never offloaded")
	}
	if n := f.obs.metrics.peerFetchErrors.Load(); n != 0 {
		t.Errorf("observer hit %d fetch errors against a healthy fleet", n)
	}
	var served uint64
	for _, s := range f.servers {
		served += s.metrics.peerPointsServed.Load()
	}
	if served == 0 {
		t.Error("no replica served any peer points")
	}
}

// TestFleetSurvivesDeadPeer: a replica whose fleet list names a dead
// peer still answers byte-identical to solo — the dead peer's shard
// falls back to local execution.
func TestFleetSurvivesDeadPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit sweeps over HTTP")
	}
	_, solo := testServer(t)

	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // connection refused from here on
	peers := []Peer{{ID: "live", URL: ""}, {ID: "dead", URL: dead.URL}}
	live := New(Options{
		Setup: fleetSetup(), RequestTimeout: time.Minute,
		PeerID: "live", Peers: peers,
	})
	ts := httptest.NewServer(live.Handler())
	t.Cleanup(ts.Close)

	path := "/v1/exhibits/table5?format=text"
	codeSolo, want := get(t, solo, path)
	code, got := get(t, ts, path)
	if codeSolo != http.StatusOK || code != http.StatusOK {
		t.Fatalf("status solo=%d live=%d", codeSolo, code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("degraded fleet differs from solo:\n%s\nvs\n%s", want, got)
	}
	if live.metrics.peerFetchErrors.Load() == 0 {
		t.Error("dead peer produced no fetch errors; was anything offloaded?")
	}
}

// TestStreamPlacement: on 2- and 3-member rings, every stream group of
// figure4's, table5's and ext-storesets' declared points has one owner;
// an owner goes past ceil(points / members) only by the one group that
// found no member with room; the placement does not depend on the order
// of the peer list; and a coordinator-only daemon offloads every point.
func TestStreamPlacement(t *testing.T) {
	router := func(self string, ids []string, exhibit string) (*peerRouter, []experiments.StreamGroup) {
		peers := make([]Peer, len(ids))
		for i, id := range ids {
			peers[i] = Peer{ID: id, URL: "http://" + id}
		}
		s := New(Options{Setup: fleetSetup(), PeerID: self, Peers: peers})
		setup := s.opts.Setup
		points := experiments.Find(exhibit).Points(setup)
		groups := setup.StreamGroups(points)
		return s.newPeerRouter(context.Background(), resultKey{Exhibit: exhibit}, groups, len(points)), groups
	}
	for _, members := range []int{2, 3} {
		ids := make([]string, members)
		for i := range ids {
			ids[i] = fmt.Sprintf("r%d", i)
		}
		for _, exhibit := range []string{"figure4", "table5", "ext-storesets"} {
			t.Run(fmt.Sprintf("%s/%d", exhibit, members), func(t *testing.T) {
				r, groups := router("r0", ids, exhibit)
				if len(groups) < 2 {
					t.Fatalf("%d stream groups; too few to place", len(groups))
				}
				load := make(map[string]int)
				largest := make(map[string]int)
				total := 0
				for _, g := range groups {
					owner := r.owners[g.Points[0]]
					for _, i := range g.Points {
						if r.owners[i] != owner {
							t.Fatalf("stream %v split between %s and %s", g.Trace, owner, r.owners[i])
						}
					}
					load[owner] += len(g.Points)
					largest[owner] = max(largest[owner], len(g.Points))
					total += len(g.Points)
				}
				bound := (total + members - 1) / members
				t.Logf("%d streams, %d points, bound %d, loads %v", len(groups), total, bound, load)
				for id, l := range load {
					if l > bound && l-largest[id] >= bound {
						t.Errorf("%s holds %d points, past the bound %d by more than one group (largest %d): %v",
							id, l, bound, largest[id], load)
					}
				}
				if len(load) < 2 {
					t.Errorf("all %d streams on one member: %v", len(groups), load)
				}

				shuffled, _ := router("r0", append(ids[1:len(ids):len(ids)], ids[0]), exhibit)
				if !slices.Equal(shuffled.owners, r.owners) {
					t.Errorf("placement depends on peer-list order:\n%v\n%v", r.owners, shuffled.owners)
				}
				obs, _ := router("obs", ids, exhibit)
				if !slices.Equal(obs.owners, r.owners) {
					t.Errorf("coordinator-only placement differs:\n%v\n%v", r.owners, obs.owners)
				}
				for _, g := range groups {
					for _, i := range g.Points {
						if obs.Owner(i) == "" {
							t.Fatalf("coordinator-only daemon keeps point %d", i)
						}
					}
				}
			})
		}
	}
}

// TestPeerPointsEndpoint pins the wire protocol itself: happy path plus
// every request-level failure mode.
func TestPeerPointsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	code, body := get(t, ts, "/v1/peer/points?exhibit=table5&points=0,1")
	if code != http.StatusOK {
		t.Fatalf("happy path: %d\n%s", code, body)
	}
	var pr peerPointsResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(pr.Results) != 2 || pr.BatchLen <= 0 {
		t.Fatalf("results=%d batch_len=%d, want 2 results and a positive length", len(pr.Results), pr.BatchLen)
	}
	if pr.Results[0].Instructions == 0 {
		t.Error("result carries zero instructions; the shard never ran")
	}

	cases := []struct {
		name, path string
		wantCode   int
	}{
		{"unknown exhibit", "/v1/peer/points?exhibit=nope&points=0", http.StatusNotFound},
		{"missing points", "/v1/peer/points?exhibit=table5", http.StatusBadRequest},
		{"bad points", "/v1/peer/points?exhibit=table5&points=1,x", http.StatusBadRequest},
		{"negative point", "/v1/peer/points?exhibit=table5&points=-1", http.StatusBadRequest},
		{"index out of range", "/v1/peer/points?exhibit=table5&points=99999", http.StatusUnprocessableEntity},
		{"exhibit without points", "/v1/peer/points?exhibit=table1&points=0", http.StatusUnprocessableEntity},
		{"bad measure", "/v1/peer/points?exhibit=table5&points=0&measure=0", http.StatusBadRequest},
		{"ignored batch", "/v1/peer/points?exhibit=table5&batch=0&points=0", http.StatusOK},
	}
	for _, tc := range cases {
		if code, body := get(t, ts, tc.path); code != tc.wantCode {
			t.Errorf("%s: status %d, want %d\n%s", tc.name, code, tc.wantCode, body)
		}
	}
}

// TestSoloIgnoresPeerOptions: peer flags without a usable fleet (no
// second replica) leave the daemon in plain solo mode.
func TestSoloIgnoresPeerOptions(t *testing.T) {
	s := New(Options{
		Setup: fleetSetup(), RequestTimeout: time.Minute,
		PeerID: "only", Peers: []Peer{{ID: "only", URL: "http://localhost:1"}},
	})
	if s.ring != nil || s.peers != nil {
		t.Fatal("single-member fleet formed a ring")
	}
}

// FuzzParsePoints fuzzes the peer wire's point list: parsePoints never
// panics, every list it accepts has at most maxPeerPoints non-negative
// entries, and re-joining an accepted list parses back to the same list.
func FuzzParsePoints(f *testing.F) {
	for _, seed := range []string{"0", "0,1,2", "1,0,1", "", "-1", "1,x", ",", "+7,007", "99999999999999999999"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		pts, err := parsePoints(s)
		if err != nil {
			return
		}
		if len(pts) == 0 || len(pts) > maxPeerPoints {
			t.Fatalf("parsePoints(%q) accepted %d points", s, len(pts))
		}
		parts := make([]string, len(pts))
		for i, p := range pts {
			if p < 0 {
				t.Fatalf("parsePoints(%q) accepted negative index %d", s, p)
			}
			parts[i] = strconv.Itoa(p)
		}
		again, err := parsePoints(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, pts) {
			t.Fatalf("parsePoints(%q) = %v; re-parsing its join gives %v, %v", s, pts, again, err)
		}
	})
}
