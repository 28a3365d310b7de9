package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"mlpsim/internal/core"
	"mlpsim/internal/experiments"
	"mlpsim/internal/workload"
)

// Peer mode.
//
// N daemon replicas cooperate on one exhibit. A replica answering
// GET /v1/exhibits/{name} prefetches the exhibit's declared points
// (experiments.Runner.Points) into its memo — running its own shard
// while fetching remotely-owned shards over GET /v1/peer/points — and
// then runs the exhibit, which answers them from the memo. Ownership
// goes by stream: the points that replay one annotated trace
// (experiments.Setup.StreamGroups) all go to one replica, so each trace
// is built or mapped once in the fleet and no replica waits on another's
// build lease. Every replica builds the same consistent-hash ring over
// the fleet's ids and places the groups the same way (hashRing.place),
// so they all agree on the owners without coordination. Peers
// re-derive the points deterministically from the result key alone, so
// only (exhibit, indices) and the resulting []core.Result travel the
// wire. Any fetch failure — dead peer, mismatched point count, short
// reply — falls back to local execution, so a degraded fleet is slower,
// never wrong, and the merged response stays byte-identical to a solo
// daemon's.
//
// The peer-points endpoint itself never re-shards (RunPoints takes no
// router), so requests cannot recurse through the fleet.

// Peer identifies one replica of the fleet.
type Peer struct {
	// ID is the replica's stable identity on the hash ring.
	ID string
	// URL is the replica's base URL, e.g. "http://host:8080".
	URL string
}

// maxPeerPoints bounds one peer-points request; an exhibit's declared
// sweep is far below this.
const maxPeerPoints = 65536

// peerPointsResponse is the wire format of /v1/peer/points.
type peerPointsResponse struct {
	// BatchLen is the peer's declared point count for the exhibit; the
	// coordinator cross-validates it against its own declaration.
	BatchLen int `json:"batch_len"`
	// Results carries the executed points, in request order.
	Results []core.Result `json:"results"`
}

// peerRouter routes one exhibit run's sweep points across the fleet.
// It implements experiments.ShardRouter.
type peerRouter struct {
	s      *Server
	ctx    context.Context
	key    resultKey
	owners []string // declared point index -> owning replica (hashRing.place)
}

// newPeerRouter places the stream groups of the exhibit's n declared
// points on the ring.
func (s *Server) newPeerRouter(ctx context.Context, key resultKey, groups []experiments.StreamGroup, n int) *peerRouter {
	return &peerRouter{s: s, ctx: ctx, key: key, owners: s.ring.place(groups, n)}
}

func (r *peerRouter) Owner(index int) string {
	if id := r.owners[index]; id != r.s.opts.PeerID {
		return id
	}
	return ""
}

func (r *peerRouter) Fetch(owner string, n int, indices []int) ([]core.Result, error) {
	res, err := r.fetch(owner, n, indices)
	if err != nil {
		r.s.metrics.peerFetchErrors.Add(1)
		return nil, err
	}
	r.s.metrics.peerPointsFetched.Add(uint64(len(indices)))
	return res, nil
}

func (r *peerRouter) fetch(owner string, n int, indices []int) ([]core.Result, error) {
	r.s.metrics.peerFetches.Add(1)
	p, ok := r.s.peers[owner]
	if !ok {
		return nil, fmt.Errorf("unknown peer %q", owner)
	}
	pts := make([]string, len(indices))
	for i, idx := range indices {
		pts[i] = strconv.Itoa(idx)
	}
	q := url.Values{
		"exhibit": {r.key.Exhibit},
		"seed":    {strconv.FormatInt(r.key.Seed, 10)},
		"warmup":  {strconv.FormatInt(r.key.Warmup, 10)},
		"measure": {strconv.FormatInt(r.key.Measure, 10)},
		"points":  {strings.Join(pts, ",")},
	}
	u := strings.TrimSuffix(p.URL, "/") + "/v1/peer/points?" + q.Encode()
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.s.peerClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", owner, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("peer %s: %s: %s", owner, resp.Status, strings.TrimSpace(string(body)))
	}
	var pr peerPointsResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, fmt.Errorf("peer %s: decode: %w", owner, err)
	}
	if pr.BatchLen != n {
		return nil, fmt.Errorf("peer %s declares %d points for %s, coordinator has %d — geometry mismatch",
			owner, pr.BatchLen, r.key.Exhibit, n)
	}
	if len(pr.Results) != len(indices) {
		return nil, fmt.Errorf("peer %s returned %d results for %d requested points", owner, len(pr.Results), len(indices))
	}
	return pr.Results, nil
}

// parsePoints parses the comma-separated point index list.
func parsePoints(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("points parameter is required")
	}
	parts := strings.Split(s, ",")
	if len(parts) > maxPeerPoints {
		return nil, fmt.Errorf("%d points exceeds the per-request cap %d", len(parts), maxPeerPoints)
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("points=%q: bad index %q", s, p)
		}
		out[i] = n
	}
	return out, nil
}

// handlePeerPoints executes one shard of an exhibit's declared points
// on behalf of a coordinating replica. The endpoint is available on
// every daemon (peer fleet or not): it only exposes results the public
// exhibit endpoint already serves, at finer granularity. A "batch"
// parameter, which older coordinators send, is ignored.
func (s *Server) handlePeerPoints(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("exhibit")
	if experiments.Find(name) == nil {
		httpError(w, http.StatusNotFound, "unknown exhibit %q", name)
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
	indices, err := parsePoints(q.Get("points"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	// Shard execution shares the sweep semaphore with full exhibit runs:
	// a replica's total simulation load is bounded no matter who asks.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		httpError(w, http.StatusGatewayTimeout, "peer points %s: %v", name, ctx.Err())
		return
	}
	defer func() { <-s.sem }()
	s.metrics.peerRequests.Add(1)

	setup := s.opts.Setup
	setup.Seed = seed
	setup.Workloads = workload.Presets(seed)
	setup.Warmup = warmup
	setup.Measure = measure
	setup.Ctx = ctx

	results, n, err := experiments.RunPoints(setup, name, indices)
	if err != nil {
		// 422: the request was well-formed but this replica cannot derive
		// that shard (an exhibit without declared points, geometry drift
		// between versions, cancelled context). The coordinator falls
		// back to local execution.
		httpError(w, http.StatusUnprocessableEntity, "shard %s: %v", name, err)
		return
	}
	s.metrics.peerPointsServed.Add(uint64(len(results)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(peerPointsResponse{BatchLen: n, Results: results})
}
