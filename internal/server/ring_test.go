package server

import (
	"fmt"
	"slices"
	"testing"
)

func TestRingOrderIndependent(t *testing.T) {
	a := newHashRing([]string{"r0", "r1", "r2"})
	b := newHashRing([]string{"r2", "r0", "r1", "r2"}) // shuffled + duplicate
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("w{seed:1}|a{%d}", i)
		if ao, bo := a.clockwise(k), b.clockwise(k); !slices.Equal(ao, bo) {
			t.Fatalf("key %q: members clockwise %q vs %q across member orderings", k, ao, bo)
		}
	}
}

func TestRingCoversAllMembers(t *testing.T) {
	ids := []string{"r0", "r1", "r2"}
	r := newHashRing(ids)
	counts := make(map[string]int)
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.clockwise(fmt.Sprintf("w{seed:7}|a{%d}", i))[0]]++
	}
	for _, id := range ids {
		// Virtual nodes keep the split coarse-grained fair; 10% of an
		// even share is a very loose floor that still catches a broken
		// ring (one member owning everything or nothing).
		if counts[id] < n/len(ids)/10 {
			t.Errorf("member %s owns %d of %d keys — ring badly skewed: %v", id, counts[id], n, counts)
		}
	}
}

func TestRingSingleMember(t *testing.T) {
	r := newHashRing([]string{"only"})
	for i := 0; i < 50; i++ {
		if got := r.clockwise(fmt.Sprintf("k%d", i)); !slices.Equal(got, []string{"only"}) {
			t.Fatalf("clockwise(k%d) = %q, want only", i, got)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	if r := newHashRing(nil); r != nil {
		t.Fatalf("empty fleet built a ring: %+v", r)
	}
	if r := newHashRing([]string{""}); r != nil {
		t.Fatalf("blank ids built a ring: %+v", r)
	}
}
