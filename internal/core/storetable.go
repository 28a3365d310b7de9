package core

import "math/bits"

// StoreTable maps 8-byte-aligned store addresses (EA>>3) to the absolute
// index of the most recent store, replacing the built-in map on the fetch
// hot path (~17% of cached-replay engine time went to map lookups). It is
// an open-addressed, linear-probing table with the exact clear-at-64K
// semantics of the map it replaces: once an insert pushes the number of
// distinct keys past storeTableClear, the whole table resets and stale
// producers resolve as retired — identical to the old
// `lastStore = make(map[uint64]int64)` rebuild, so simulated results are
// bit-for-bit unchanged. Both the epoch-model engine and the cycle
// simulator use it for store-to-load memory dependences.
//
// The table is sized at 2x the most keys it can hold — the clear
// threshold, or a smaller bound on the stores its caller binds — so the
// load factor never exceeds 0.5 and probes stay short; no growth path is
// needed.

// storeTableClear matches the old map's bound: a table exceeding this
// many distinct keys is cleared.
const storeTableClear = 1 << 16

// StoreTable is the open-addressed last-store map. The zero value is not
// usable; call NewStoreTable.
type StoreTable struct {
	// keys holds key+1 so the zero value means an empty slot. Keys are
	// EA>>3, so key+1 cannot wrap.
	keys []uint64
	vals []int64
	used int
	// shift keeps the hash's top log2(len(keys)) bits; mask wraps probes.
	shift, mask uint64
}

// NewStoreTable returns an empty table for a caller that puts at most
// bound stores in it. A bound below the clear threshold can never reach
// the clear, so the table gets 2*bound slots (rounded up to a power of
// two); any other bound (<= 0 for none) gets the full 2x-threshold
// table. Either way the table behaves exactly like the map it replaces.
func NewStoreTable(bound int64) *StoreTable {
	n := 2 * storeTableClear
	if bound > 0 && bound < storeTableClear {
		n = pow2ceil(int(2 * bound))
	}
	return &StoreTable{
		keys:  make([]uint64, n),
		vals:  make([]int64, n),
		shift: uint64(64 - bits.TrailingZeros(uint(n))),
		mask:  uint64(n - 1),
	}
}

// slot is a Fibonacci hash: store addresses are heavily strided, and the
// multiply spreads consecutive keys across the table.
func (t *StoreTable) slot(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> t.shift
}

// Get returns the last-store index recorded for key.
func (t *StoreTable) Get(key uint64) (int64, bool) {
	k := key + 1
	for i := t.slot(key); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			return t.vals[i], true
		case 0:
			return 0, false
		}
	}
}

// Put records val as the most recent store to key, clearing the table
// when it would exceed storeTableClear distinct keys (matching the old
// map semantics, which also dropped the just-inserted entry).
func (t *StoreTable) Put(key uint64, val int64) {
	k := key + 1
	for i := t.slot(key); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			t.vals[i] = val
			return
		case 0:
			t.keys[i] = k
			t.vals[i] = val
			t.used++
			if t.used > storeTableClear {
				t.clear()
			}
			return
		}
	}
}

func (t *StoreTable) clear() {
	for i := range t.keys {
		t.keys[i] = 0
	}
	t.used = 0
}

// Len returns the number of distinct keys held.
func (t *StoreTable) Len() int { return t.used }

// storeCounter is an optional source that can count the memory writes
// it has left (atrace.Replay).
type storeCounter interface {
	StoresLeft(limit int64) int64
}

// storeBound bounds the stores a binder over src puts in its table when
// it binds at most bound instructions (<= 0 for no limit): the stores a
// counting source has left, counted no further than the clear threshold
// or bound, whichever is lower. Past either the bound does not shrink
// the table, so the count stops there.
func storeBound(src AnnotatedSource, bound int64) int64 {
	s, ok := src.(storeCounter)
	if !ok {
		return bound
	}
	limit := int64(storeTableClear)
	if bound > 0 && bound < limit {
		limit = bound
	}
	return max(1, s.StoresLeft(limit))
}
