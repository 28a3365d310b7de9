package experiments

import (
	"container/list"
	"encoding/json"
	"sync"

	"mlpsim/internal/annotate"
	"mlpsim/internal/atrace"
	"mlpsim/internal/core"
	"mlpsim/internal/workload"
)

// memoCap bounds a PointMemo. One run of every exhibit at a fixed
// (seed, warmup, measure) asks for 725 memoizable points, 469 of them
// distinct, so the cap holds about eight such runs.
const memoCap = 4096

// PointMemo is a bounded LRU of finished sweep points, keyed by
// (annotated-trace key, engine, engine config). The epoch model does
// not depend on timing, so a point's result is a pure function of that
// key, and exhibits reuse points: figure5 is figure4's sweep, figure6's
// IW=ROB cells are figure4's, table4's window-64 runs are table3's.
// RunMLPsimBatch and RunCycleSimBatch (and so RunMLPsim and
// RunCycleSim, batches of one) consult Setup.Memo before any peer or
// engine work. Safe for concurrent use.
type PointMemo struct {
	mu      sync.Mutex
	lru     *list.List // of *memoEntry, most recently used first
	entries map[pointKey]*list.Element

	hits, misses, evictions uint64
}

// pointKey identifies one sweep point.
type pointKey struct {
	trace  atrace.Key
	engine string // "mlpsim" or "cyclesim"
	config string // canonical JSON of the engine config, MaxInstructions set
}

type memoEntry struct {
	key pointKey
	res any // core.Result or cyclesim.Result, per key.engine
}

// PointMemoStats is a snapshot of a PointMemo's counters.
type PointMemoStats struct {
	// Hits and Misses count lookups of memoizable points; points that
	// bypass the memo count as neither.
	Hits, Misses uint64
	// Evictions counts least recently used entries dropped to keep the
	// memo within its fixed 4096-entry bound.
	Evictions uint64
	// Entries is the current entry count.
	Entries int
}

// NewPointMemo returns an empty memo.
func NewPointMemo() *PointMemo {
	return &PointMemo{lru: list.New(), entries: make(map[pointKey]*list.Element)}
}

// Stats returns the memo's counters.
func (m *PointMemo) Stats() PointMemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return PointMemoStats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Entries: len(m.entries)}
}

func (m *PointMemo) get(k pointKey) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[k]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).res, true
}

func (m *PointMemo) put(k pointKey, res any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[k]; ok {
		m.lru.MoveToFront(el)
		return
	}
	m.entries[k] = m.lru.PushFront(&memoEntry{key: k, res: res})
	if m.lru.Len() > memoCap {
		oldest := m.lru.Back()
		m.lru.Remove(oldest)
		delete(m.entries, oldest.Value.(*memoEntry).key)
		m.evictions++
	}
}

// memoKey returns the memo key of one point run under s on the named
// engine, cfg being its core.Config or cyclesim.Config with
// MaxInstructions already set to s.Measure. It returns false when the
// point bypasses the memo: there is no memo, its annotation config is
// unkeyable (trained predictor or prefetcher instances carry state no
// key names), or there is no trace cache (the run would then train the
// caller's own predictor and prefetcher instances, a side effect a hit
// would skip). A memoized point therefore has no effect but its result.
func (s Setup) memoKey(engine string, w workload.Config, acfg annotate.Config, cfg any) (pointKey, bool) {
	if s.Memo == nil || s.Cache == nil {
		return pointKey{}, false
	}
	akey, _, ok := atrace.ConfigKey(acfg)
	if !ok {
		return pointKey{}, false
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return pointKey{}, false
	}
	trace := atrace.Key{Workload: w, Annot: akey, Warmup: s.Warmup, Measure: s.Measure}
	return pointKey{trace: trace, engine: engine, config: string(b)}, true
}

// mlpKey is memoKey for one MLPsim point. Points with an OnEpoch
// observer bypass the memo: their caller must see every epoch.
func (s Setup) mlpKey(p MLPPoint) (pointKey, bool) {
	if p.Config.OnEpoch != nil {
		return pointKey{}, false
	}
	p.Config.MaxInstructions = s.Measure
	return s.memoKey("mlpsim", p.Workload, p.Annot, p.Config)
}

// recall fills results[i] from the memo for every i in idxs it holds
// and returns the rest of idxs, in order.
func (s Setup) recall(points []MLPPoint, idxs []int, results []core.Result) []int {
	if s.Memo == nil {
		return idxs
	}
	var miss []int
	for _, i := range idxs {
		if k, ok := s.mlpKey(points[i]); ok {
			if res, hit := s.Memo.get(k); hit {
				results[i] = res.(core.Result)
				continue
			}
		}
		miss = append(miss, i)
	}
	return miss
}

// remember stores one completed point's result.
func (s Setup) remember(p MLPPoint, res core.Result) {
	if k, ok := s.mlpKey(p); ok {
		s.Memo.put(k, res)
	}
}
