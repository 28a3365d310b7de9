package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/experiments"
	"mlpsim/internal/server"
	"mlpsim/internal/workload"
)

// benchWorkload is one session of exhibits and the daemon stack that
// serves it. The reason each was chosen is recorded beside its name in
// BENCHMARK.json and in doc.go.
type benchWorkload struct {
	name     string
	exhibits []string
	// warm makes set-up build the session's traces into the spill
	// directory before the daemon starts, so the timed window replays
	// them from disk.
	warm bool
	// fleet puts a coordinator-only observer in front of two executor
	// replicas that share one spill directory under build leases.
	fleet bool
	// scale is the warmup and measure every request carries. Each
	// exhibit is a multi-second sweep at the daemon's default scale;
	// these keep a session near a second so one run holds several.
	scale scale
}

// scale is the per-request run length, in instructions.
type scale struct{ Warmup, Measure int64 }

var workloads = []benchWorkload{
	{name: "cold-sweep", exhibits: []string{"figure4", "figure5", "figure6"},
		scale: scale{Warmup: 50_000, Measure: 200_000}},
	{name: "warm-restart", exhibits: []string{"table5", "figure8", "figure10", "ext-mshr"}, warm: true,
		scale: scale{Warmup: 50_000, Measure: 200_000}},
	{name: "fleet-figure4", exhibits: []string{"figure4"}, fleet: true,
		scale: scale{Warmup: 50_000, Measure: 200_000}},
	{name: "cyclesim-validate", exhibits: []string{"table3", "table4"},
		scale: scale{Warmup: 50_000, Measure: 100_000}},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// daemonSeed is the daemon's own default seed (cmd/experiments' -seed
// default). Every request overrides it with seed=, which is the only way
// the benchmark's seed reaches the program.
const daemonSeed = 1

// traceKey is one annotated trace a session touches, with the build spec
// the daemon would use for it.
type traceKey struct {
	key  atrace.Key
	spec atrace.BuildSpec
}

// sessionKeys lists the traces every benchmark exhibit reads: each
// preset workload under the default annotation config. It mirrors how
// experiments.Setup keys its cache; a traced session counts any miss
// after its pre-build as a failed check, so drift here cannot go
// unnoticed.
func sessionKeys(seed int64, sc scale) []traceKey {
	akey, fresh, ok := atrace.ConfigKey(annotate.Config{})
	if !ok {
		panic("default annotation config is not cacheable")
	}
	var keys []traceKey
	for _, w := range workload.Presets(seed) {
		w := w
		keys = append(keys, traceKey{
			key: atrace.Key{Workload: w, Annot: akey, Warmup: sc.Warmup, Measure: sc.Measure},
			spec: atrace.BuildSpec{
				Warmup:  sc.Warmup,
				Measure: sc.Measure,
				NewAnnotator: func() *annotate.Annotator {
					return annotate.New(workload.MustNew(w), fresh())
				},
			},
		})
	}
	return keys
}

// daemon is one in-process server behind a loopback listener.
type daemon struct {
	id    string
	cache *atrace.Cache
	gang  *experiments.GangStats
	http  *httptest.Server
}

func (d *daemon) url() string { return "http://" + d.http.Listener.Addr().String() }

// stack is the daemon, or observer plus replicas, that one session
// talks to, over its own spill directory.
type stack struct {
	dir      string
	front    *daemon
	replicas []*daemon
	client   *http.Client
}

// daemons lists every server of the stack, front first.
func (st *stack) daemons() []*daemon { return append([]*daemon{st.front}, st.replicas...) }

// newDaemon configures a server the way cmd/experiments -serve
// -trace-cache-dir DIR does, with the default options, and starts it on
// ts. A non-empty id is the -peer-id flag: the replica's name on the
// ring, and lease coordination of the spill directory. parallelism 0
// means GOMAXPROCS sweep workers.
func newDaemon(dir, id string, parallelism int, peers []server.Peer, ts *httptest.Server, wrap func(http.Handler) http.Handler) *daemon {
	setup := experiments.Default(daemonSeed)
	setup.Parallelism = parallelism
	setup.Cache.SetDir(dir)
	if id != "" {
		setup.Cache.SetLease(id, atrace.DefaultLeaseTTL)
	}
	setup.GangStats = &experiments.GangStats{}
	d := &daemon{id: id, cache: setup.Cache, gang: setup.GangStats, http: ts}
	h := server.New(server.Options{Setup: setup, PeerID: id, Peers: peers}).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts.Config.Handler = h
	ts.Start()
	return d
}

// replicas is the fleet's executor count: one sweep worker each on a
// two-CPU host.
const replicas = 2

// newStack starts the workload's daemons over dir. wrapReplica, when
// non-nil, wraps each fleet replica's handler (the traced run spans
// peer-points calls with it).
func newStack(w benchWorkload, dir string, wrapReplica func(http.Handler) http.Handler) (*stack, error) {
	st := &stack{dir: dir, client: &http.Client{Transport: &http.Transport{}}}
	if !w.fleet {
		st.front = newDaemon(dir, "", 0, nil, httptest.NewUnstartedServer(nil), nil)
	} else {
		// Listeners first: every replica needs the whole fleet's URLs.
		lis := make([]*httptest.Server, replicas)
		peers := make([]server.Peer, replicas)
		for i := range lis {
			lis[i] = httptest.NewUnstartedServer(nil)
			peers[i] = server.Peer{ID: fmt.Sprintf("r%d", i), URL: "http://" + lis[i].Listener.Addr().String()}
		}
		for i := range lis {
			st.replicas = append(st.replicas, newDaemon(dir, peers[i].ID, 1, peers, lis[i], wrapReplica))
		}
		// The observer's id is on nobody's ring, so it owns no points.
		st.front = newDaemon(dir, "observer", 0, peers, httptest.NewUnstartedServer(nil), nil)
	}
	for _, d := range st.daemons() {
		body, err := st.get(d.url() + "/healthz")
		if err != nil || string(body) != "ok\n" {
			st.close()
			return nil, fmt.Errorf("daemon %q not healthy: %q %v", d.id, body, err)
		}
	}
	return st, nil
}

// get fetches one URL and returns its body; a non-200 status is an error.
func (st *stack) get(url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: read body: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// requestTimeout bounds one request, so a wedged daemon fails the run
// well inside its time limit instead of hanging it.
const requestTimeout = 60 * time.Second

// close stops every server, waiting for in-flight requests, and removes
// the spill directory. A directory left behind is removed with the
// run's work directory.
func (st *stack) close() {
	st.client.CloseIdleConnections()
	for _, d := range st.daemons() {
		d.http.Close()
	}
	os.RemoveAll(st.dir)
}
