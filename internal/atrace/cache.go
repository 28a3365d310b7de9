package atrace

import (
	"container/list"
	"sync"
	"time"
)

// DefaultCapBytes is the default in-memory cache capacity. A Default-scale
// (8M instruction) stream is roughly 100MB, so this holds the handful of
// distinct annotation configurations a full experiment batch touches.
// Memory-mapped streams account almost nothing against it: their columns
// live in the OS page cache, not the Go heap.
const DefaultCapBytes = 8 << 30

// Cache is a keyed store of annotated traces with single-flight build
// deduplication: concurrent GetTrace calls for the same key block on one
// build instead of annotating in parallel. Eviction is LRU by approximate
// byte footprint; evicted traces stay valid for replays already in
// flight (they are immutable), the cache merely drops its reference.
//
// Every build is one sequential annotation pass (see BuildSpec), run in
// the goroutine of the GetTrace call that missed. With Dir set, the
// directory becomes a cache shared across processes and hosts: misses
// memory-map the spilled trace (an MLPCOLS2 manifest plus one MLPCOLS1
// column file) when one exists, so replay reads pages from the OS page
// cache rather than resident heap, and builders coordinate through
// per-key lease files so N concurrent processes perform exactly one
// annotation pass per key. Publication is atomic (temp file + rename,
// manifest last), corrupt or truncated spills are quarantined and
// rebuilt, and an on-disk index drives byte-cap LRU eviction of the
// directory. See diskCache for the layout and protocol.
type Cache struct {
	mu         sync.Mutex
	capBytes   int64
	size       int64
	disk       *diskCache
	entries    map[Key]*entry
	order      *list.List // front = most recently used
	leaseOwner string
	leaseTTL   time.Duration

	hits     uint64
	misses   uint64
	builds   uint64
	diskHits uint64
}

type entry struct {
	key   Key
	ready chan struct{} // closed when trace (or panic) is set
	trace *Stream
	pval  any // panic value propagated to waiters
	elem  *list.Element
	bytes int64
}

// NewCache returns an in-memory cache with DefaultCapBytes capacity.
func NewCache() *Cache {
	return &Cache{
		capBytes: DefaultCapBytes,
		entries:  make(map[Key]*entry),
		order:    list.New(),
	}
}

// SetCapBytes adjusts the in-memory capacity (<= 0 means unbounded) and
// evicts immediately if over the new capacity.
func (c *Cache) SetCapBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capBytes = n
	c.evictLocked()
}

// SetDir enables the shared on-disk cache rooted at dir (created on
// first write). An empty dir disables it. Unless SetLease names one, the
// cache derives a lease owner unique to this process and cache.
func (c *Cache) SetDir(dir string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dir == "" {
		c.disk = nil
		return
	}
	c.disk = newDiskCache(dir)
	c.applyLeaseLocked()
}

// SetLease configures the per-key build leases of the spill directory:
// owner identifies this process in lease records (it must be unique
// across all processes sharing the directory — e.g. the daemon's peer
// id; empty keeps the owner SetDir derives), and ttl is the lease
// expiry renewed by live builders (<= 0 = DefaultLeaseTTL). A builder
// that dies holding a lease blocks its key for at most ttl. Order with
// SetDir does not matter.
func (c *Cache) SetLease(owner string, ttl time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leaseOwner = owner
	c.leaseTTL = ttl
	c.applyLeaseLocked()
}

func (c *Cache) applyLeaseLocked() {
	if c.disk == nil {
		return
	}
	if c.leaseOwner != "" {
		c.disk.leaseOwner = c.leaseOwner
	}
	if c.leaseTTL > 0 {
		c.disk.leaseTTL = c.leaseTTL
	}
}

// SetDiskCapBytes bounds the spill directory's total size (<= 0 means
// unbounded); least-recently-used spills are evicted at publish time.
// Takes effect only after SetDir.
func (c *Cache) SetDiskCapBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disk != nil {
		c.disk.capBytes = n
	}
}

// Stats reports cache effectiveness counters.
type CacheStats struct {
	Hits          uint64 // GetTrace calls served from memory (or by joining a build)
	Misses        uint64 // GetTrace calls that had to build or load
	Builds        uint64 // annotation passes actually executed
	DiskHits      uint64 // misses served from the on-disk spill
	Quarantined   uint64 // corrupt spill files moved aside
	DiskEvictions uint64 // spill files evicted for directory capacity
	Swept         uint64 // litter files reclaimed by the directory sweep
	LeasesTaken   uint64 // build leases acquired
	LeasesStolen  uint64 // expired leases reclaimed from dead owners
	Bytes         int64  // current in-memory footprint
	Streams       int    // traces currently held
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Hits: c.hits, Misses: c.misses, Builds: c.builds, DiskHits: c.diskHits,
		Bytes: c.size, Streams: len(c.entries),
	}
	if c.disk != nil {
		st.Quarantined = c.disk.quarantined.Load()
		st.DiskEvictions = c.disk.evictions.Load()
		st.Swept = c.disk.swept.Load()
		st.LeasesTaken = c.disk.leasesAcquired.Load()
		st.LeasesStolen = c.disk.leasesStolen.Load()
	}
	return st
}

// GetTrace returns the trace for key, building it from spec on a miss
// exactly once per key no matter how many goroutines ask concurrently —
// and, with a cache directory set, exactly once across processes too.
// The build runs in the calling goroutine. A panic in the build is
// propagated to every waiter and the entry is removed so a later call
// can retry.
func (c *Cache) GetTrace(key Key, spec BuildSpec) *Stream {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.ready
		if e.pval != nil {
			panic(e.pval)
		}
		return e.trace
	}
	e := &entry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	disk := c.disk
	c.mu.Unlock()

	var t *Stream
	var fromDisk bool
	func() {
		defer func() {
			if pv := recover(); pv != nil {
				e.pval = pv
				c.mu.Lock()
				delete(c.entries, key)
				c.mu.Unlock()
				close(e.ready)
				panic(pv)
			}
		}()
		if disk == nil {
			t = capture(spec)
		} else {
			t, fromDisk = disk.loadOrBuild(key, spec)
		}
	}()

	e.trace = t
	e.bytes = t.MemBytes()
	c.mu.Lock()
	if fromDisk {
		c.diskHits++
	} else {
		c.builds++
	}
	e.elem = c.order.PushFront(e)
	c.size += e.bytes
	c.evictLocked()
	c.mu.Unlock()
	close(e.ready)
	return t
}

// evictLocked drops least-recently-used completed entries until the cache
// fits its capacity. Entries still building are never evicted (they are
// not in the LRU list yet).
func (c *Cache) evictLocked() {
	if c.capBytes <= 0 {
		return
	}
	for c.size > c.capBytes && c.order.Len() > 1 {
		back := c.order.Back()
		e := back.Value.(*entry)
		c.order.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.size -= e.bytes
	}
}
