package server

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"mlpsim/internal/experiments"
)

// hashRing is a consistent-hash ring over replica ids. Every replica in
// a fleet builds the same ring from the same member list (order
// independent), so all of them agree on which replica owns any given
// key without talking to each other — ownership is a pure function of
// (fleet, key).
//
// Virtual nodes smooth the split: each id is hashed onto the ring
// ringVnodes times, and a key belongs to the id of the first ring point
// at or after the key's hash (wrapping); the ids of the points after it
// are the key's next choices (clockwise). With one replica everything
// hashes to it and the daemon behaves exactly like solo mode.
type hashRing struct {
	nodes   []ringNode // sorted by point
	members int        // distinct ids
}

type ringNode struct {
	point uint32
	id    string
}

const ringVnodes = 64

func ringHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// newHashRing builds the ring for the given member ids; duplicates
// collapse. Returns nil for an empty fleet.
func newHashRing(ids []string) *hashRing {
	seen := make(map[string]bool, len(ids))
	r := &hashRing{}
	for _, id := range ids {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		r.members++
		for v := 0; v < ringVnodes; v++ {
			r.nodes = append(r.nodes, ringNode{point: ringHash(fmt.Sprintf("%s#%d", id, v)), id: id})
		}
	}
	if len(r.nodes) == 0 {
		return nil
	}
	sort.Slice(r.nodes, func(i, j int) bool {
		if r.nodes[i].point != r.nodes[j].point {
			return r.nodes[i].point < r.nodes[j].point
		}
		// Tie-break by id so every replica sorts identically.
		return r.nodes[i].id < r.nodes[j].id
	})
	return r
}

// clockwise returns every member once, in the order their first ring
// nodes follow the key's hash clockwise: the key's owner first.
func (r *hashRing) clockwise(key string) []string {
	h := ringHash(key)
	start := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].point >= h })
	ids := make([]string, 0, r.members)
	for k := 0; k < len(r.nodes) && len(ids) < r.members; k++ {
		id := r.nodes[(start+k)%len(r.nodes)].id
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// place assigns each stream group of an exhibit's n declared points to
// one member, so every trace is built or mapped by one replica. A group
// goes to the first member clockwise from its trace key whose load, in
// points, stays within ceil(grouped points / members); when none has
// room, to the least-loaded member, first clockwise among equals. The
// result maps each point index to its owner, "" for a point in no group.
func (r *hashRing) place(groups []experiments.StreamGroup, n int) []string {
	total := 0
	for _, g := range groups {
		total += len(g.Points)
	}
	bound := (total + r.members - 1) / r.members
	load := make(map[string]int, r.members)
	owners := make([]string, n)
	for _, g := range groups {
		order := r.clockwise(g.Trace.String())
		var owner string
		if i := slices.IndexFunc(order, func(id string) bool { return load[id]+len(g.Points) <= bound }); i >= 0 {
			owner = order[i]
		} else {
			owner = slices.MinFunc(order, func(a, b string) int { return load[a] - load[b] })
		}
		load[owner] += len(g.Points)
		for _, i := range g.Points {
			owners[i] = owner
		}
	}
	return owners
}
