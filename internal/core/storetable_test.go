package core

import (
	"math"
	"math/rand"
	"testing"

	"mlpsim/internal/annotate"
)

// refStoreMap is the semantics oracle: the exact map-based last-store
// tracking the engine used before StoreTable, including the
// clear-past-64K rebuild that drops the just-inserted entry.
type refStoreMap struct {
	m map[uint64]int64
}

func newRefStoreMap() *refStoreMap { return &refStoreMap{m: make(map[uint64]int64)} }

func (r *refStoreMap) Get(key uint64) (int64, bool) {
	v, ok := r.m[key]
	return v, ok
}

func (r *refStoreMap) Put(key uint64, val int64) {
	r.m[key] = val
	if len(r.m) > storeTableClear {
		r.m = make(map[uint64]int64)
	}
}

// storeKeys mixes the address patterns the engine actually sees: dense
// strides (array scans), a hot working set, and sparse pointer chasing.
func storeKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		switch rng.Intn(3) {
		case 0:
			keys[i] = uint64(i) * 8 // strided
		case 1:
			keys[i] = uint64(rng.Intn(1 << 10)) // hot set
		default:
			keys[i] = rng.Uint64() >> 16 // sparse
		}
	}
	return keys
}

// TestStoreTableMatchesMap drives table and reference map with an
// identical operation stream and demands identical observable behaviour:
// the full table over a stream long enough to cross the clear threshold
// several times, and tables sized for a bound over the same stream up to
// that many puts.
func TestStoreTableMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		bound int64
		slots int
	}{
		{0, 2 * storeTableClear},
		{1, 2},
		{1000, 2048},
		{storeTableClear - 1, 2 * storeTableClear},
		{math.MaxInt64, 2 * storeTableClear},
	} {
		table := NewStoreTable(tc.bound)
		if len(table.keys) != tc.slots {
			t.Fatalf("bound %d: %d slots, want %d", tc.bound, len(table.keys), tc.slots)
		}
		puts := tc.bound
		if puts <= 0 {
			puts = math.MaxInt64
		}
		checkStoreTable(t, table, puts)
	}
}

// checkStoreTable runs the operation stream against table and the map
// until it has made puts puts (~300k distinct-key inserts in all: several
// clears).
func checkStoreTable(t *testing.T, table *StoreTable, puts int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ref := newRefStoreMap()

	const ops = 1_200_000
	keys := storeKeys(rng, ops)
	for i, key := range keys {
		if rng.Intn(4) == 0 {
			if puts == 0 {
				break
			}
			puts--
			table.Put(key, int64(i))
			ref.Put(key, int64(i))
			continue
		}
		gv, gok := table.Get(key)
		wv, wok := ref.Get(key)
		if gok != wok || (gok && gv != wv) {
			t.Fatalf("%d slots, op %d key %#x: table (%d,%t), map (%d,%t)", len(table.keys), i, key, gv, gok, wv, wok)
		}
	}
	if table.Len() != len(ref.m) {
		t.Errorf("%d slots: table holds %d keys, map holds %d", len(table.keys), table.Len(), len(ref.m))
	}
}

// TestStoreTableClear pins the clear boundary exactly: inserting distinct
// keys up to the threshold keeps them all; one more wipes everything,
// including the key that triggered the clear.
func TestStoreTableClear(t *testing.T) {
	table := NewStoreTable(0)
	for i := 0; i < storeTableClear; i++ {
		table.Put(uint64(i), int64(i))
	}
	if table.Len() != storeTableClear {
		t.Fatalf("table holds %d keys at the threshold, want %d", table.Len(), storeTableClear)
	}
	if v, ok := table.Get(0); !ok || v != 0 {
		t.Fatalf("key 0 = (%d,%t) before clear, want (0,true)", v, ok)
	}
	table.Put(uint64(storeTableClear), 99)
	if table.Len() != 0 {
		t.Errorf("table holds %d keys after clear, want 0", table.Len())
	}
	if _, ok := table.Get(uint64(storeTableClear)); ok {
		t.Error("clear-triggering key survived; the old map dropped it too")
	}
	// Updating an existing key must never trigger a clear.
	table.Put(7, 1)
	for i := 0; i < 3; i++ {
		table.Put(7, int64(i))
	}
	if v, ok := table.Get(7); !ok || v != 2 {
		t.Errorf("key 7 = (%d,%t), want (2,true)", v, ok)
	}
}

// benchStoreOps is one mixed Get/Put pass over a prepared key schedule,
// shared by both benchmark variants.
const benchOps = 1 << 16

func benchKeys() []uint64 {
	return storeKeys(rand.New(rand.NewSource(7)), benchOps)
}

// BenchmarkLastStoreMap measures the built-in map the engine used before.
func BenchmarkLastStoreMap(b *testing.B) {
	keys := benchKeys()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ref := newRefStoreMap()
		var sink int64
		for i, key := range keys {
			if i&3 == 0 {
				ref.Put(key, int64(i))
			} else if v, ok := ref.Get(key); ok {
				sink += v
			}
		}
		_ = sink
	}
}

// BenchmarkStoreTable measures the open-addressed replacement on the same
// schedule.
func BenchmarkStoreTable(b *testing.B) {
	keys := benchKeys()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		table := NewStoreTable(0)
		var sink int64
		for i, key := range keys {
			if i&3 == 0 {
				table.Put(key, int64(i))
			} else if v, ok := table.Get(key); ok {
				sink += v
			}
		}
		_ = sink
	}
}

// nextOnly hides a source's StoresLeft method.
type nextOnly struct{ AnnotatedSource }

// storesThenALU returns stores memory writes to distinct words followed
// by alus ALU instructions.
func storesThenALU(stores, alus int) []annotate.Inst {
	insts := make([]annotate.Inst, stores+alus)
	for i := range stores {
		insts[i] = st(1, 2, 8*uint64(i))
	}
	return insts
}

// TestStoreTableSizedBySource: a gang or stepper over a source that can
// count the memory writes it has left sizes its store table by that
// count, even for a config without an instruction limit: S < 64K stores
// get pow2ceil(2S) slots, 64K or more the full 2 MiB table. A lower
// instruction limit caps the count; over a source that cannot count, the
// limit alone sizes the table.
func TestStoreTableSizedBySource(t *testing.T) {
	few := storesThenALU(100, 200)
	for _, tc := range []struct {
		name  string
		insts []annotate.Inst
		next  bool // hide StoresLeft
		limit int64
		slots int
	}{
		{"sized", few, false, 0, 256},
		{"sized, lower limit", few, false, 50, 128},
		{"sized, limit past the stores", few, false, 250, 256},
		{"sized, no stores", storesThenALU(0, 200), false, 0, 2},
		{"sized, empty", nil, false, 0, 2},
		{"sized, 20K stores", storesThenALU(20_000, 10), false, 0, 1 << 16},
		{"sized, 64K-1 stores", storesThenALU(storeTableClear-1, 10), false, 0, 2 * storeTableClear},
		{"sized, 64K stores", storesThenALU(storeTableClear, 10), false, 0, 2 * storeTableClear},
		{"sized, past 64K stores", storesThenALU(storeTableClear+10, 10), false, 0, 2 * storeTableClear},
		{"next-only", few, true, 0, 2 * storeTableClear},
		{"next-only, limit", few, true, 100, 256},
	} {
		mk := func() AnnotatedSource {
			if tc.next {
				return nextOnly{&aiSource{insts: tc.insts}}
			}
			return &aiSource{insts: tc.insts}
		}
		cfg := Default()
		cfg.MaxInstructions = tc.limit
		gang := NewGang(mk(), []Config{cfg, cfg.WithWindow(16)})
		stepper := NewStepper(mk(), cfg)
		for kind, ring := range map[string]*gangRing{"gang": gang.engines[0].ring, "stepper": stepper.e.ring} {
			if n := len(ring.bind.lastStore.keys); n != tc.slots {
				t.Errorf("%s %s: %d store-table slots, want %d", tc.name, kind, n, tc.slots)
			}
		}
	}
}
