package atrace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultDiskCapBytes bounds the spill directory; paper-scale streams run
// to gigabytes each, so the default holds a handful before evicting.
const DefaultDiskCapBytes = 32 << 30

const (
	spillExt      = ".acol"
	indexName     = "index.json"
	indexLockName = "index.lock"

	tmpPrefix      = ".acol-tmp-"
	indexTmpPrefix = ".index-tmp-"
	corruptMark    = ".corrupt."

	// sweepTmpMaxAge bounds how long abandoned temp files (and orphaned
	// segment files whose manifest never landed) survive: long enough that
	// no live builder's in-flight file is ever reclaimed, short enough
	// that crashed builders do not leak disk.
	sweepTmpMaxAge = time.Hour
	// sweepCorruptMaxAge bounds how long quarantined spills are kept for
	// post-mortems before the sweep reclaims them. Until then their bytes
	// count against the directory capacity.
	sweepCorruptMaxAge = 24 * time.Hour
)

// testCrashBeforeRename, when set (by the multi-process crash test),
// runs between writing a publish temp file and renaming it into place.
var testCrashBeforeRename func()

// writeAtomic writes dst via a temp file in dir plus an atomic rename,
// returning the published size. On any failure the temp file is removed
// and dst is untouched.
func writeAtomic(dir, tmpPattern, dst string, write func(*os.File) error) (int64, error) {
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return 0, err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	fi, err := os.Stat(tmp.Name())
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if testCrashBeforeRename != nil {
		testCrashBeforeRename()
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return fi.Size(), nil
}

// diskCache is the shared on-disk half of Cache: a directory of spilled
// traces coordinated across processes and hosts.
//
// Layout of the directory:
//
//	<hash>.acol          MLPCOLS2 manifest (hash = sha256 of the canonical
//	                     key), written last: its presence publishes the key
//	<hash>.acol.segNNNN  one MLPCOLS1 file per segment
//	<hash>.acol.evict    names segments evicted under the byte cap (segevict.go)
//	<hash>.lease         per-key build lease (lease.go); cross-process singleflight
//	index.json           hash -> {key, bytes, last_used}; LRU eviction state
//	index.lock           flock guarding every index.json read-modify-write
//	*.corrupt.*          quarantined spills that failed validation
//
// Protocol: readers open the manifest directly (no lease) and touch the
// index on success. A miss takes <hash>.lease, re-checks the spill
// (another process may have published while we waited), builds if still
// absent, publishes each segment file as it completes (temp file +
// rename, atomic on POSIX) and the manifest last, then updates the index
// and evicts over-capacity entries — all before releasing the lease. So
// cross-process visibility is all-or-nothing. Corrupt or truncated
// spills, and files in any other format at a key's path, are renamed
// aside, never trusted.
//
// Lifecycle of litter: every publish also sweeps the directory (under the
// index lock). Abandoned temp files and manifest-less segment files older
// than tmpMaxAge are removed; quarantined *.corrupt.* files are kept for
// corruptMaxAge (their bytes counting against capBytes) and then removed;
// expired leases — left by a builder that died holding one — are removed
// on sight, since any claimer may steal them anyway.
type diskCache struct {
	dir      string
	capBytes int64

	// Sweep age bounds; fields so tests can force immediate reclamation.
	tmpMaxAge     time.Duration
	corruptMaxAge time.Duration
	// now is the sweep's clock; a field so tests can pin litter ages
	// exactly at the young/aged boundary. Lease expiry decisions use it
	// too (see lease.go), so clock-skew scenarios are testable.
	now func() time.Time

	// leaseOwner names this cache in the per-key build leases it takes,
	// which expire leaseTTL after their last renewal (see lease.go);
	// leasePoll is a blocked claimer's re-probe interval.
	leaseOwner string
	leaseTTL   time.Duration
	leasePoll  time.Duration

	quarantined    atomic.Uint64
	evictions      atomic.Uint64
	swept          atomic.Uint64
	segEvictions   atomic.Uint64
	segRebuilds    atomic.Uint64
	leasesAcquired atomic.Uint64
	leasesStolen   atomic.Uint64
}

func newDiskCache(dir string) *diskCache {
	return &diskCache{
		dir:           dir,
		capBytes:      DefaultDiskCapBytes,
		tmpMaxAge:     sweepTmpMaxAge,
		corruptMaxAge: sweepCorruptMaxAge,
		now:           time.Now,
		leaseOwner:    uniqueLeaseOwner(),
		leaseTTL:      DefaultLeaseTTL,
		leasePoll:     leasePollDefault,
	}
}

// keyHash derives the on-disk name for a key: a hash of its canonical
// string form.
func keyHash(key Key) string {
	sum := sha256.Sum256([]byte(key.String()))
	return hex.EncodeToString(sum[:16])
}

func (d *diskCache) spillPath(hash string) string { return filepath.Join(d.dir, hash+spillExt) }

// spillFiles lists the files making up one key's spill: the manifest
// plus any segment files.
func (d *diskCache) spillFiles(hash string) []string {
	base := d.spillPath(hash)
	files := []string{base}
	files = append(files, segmentFiles(base)...)
	return files
}

// spillBytes sums the on-disk size of one key's spill; 0 when the spill
// is gone.
func (d *diskCache) spillBytes(hash string) int64 {
	var total int64
	if fi, err := os.Stat(d.spillPath(hash)); err != nil {
		return 0
	} else {
		total = fi.Size()
	}
	for _, p := range segmentFiles(d.spillPath(hash)) {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// load opens the spill for key if present and valid. Corrupt files are
// quarantined so the caller rebuilds instead of crashing; the error then
// wraps ErrCorruptSpill. One exception: a segmented spill whose only
// defect is missing segments all named by the eviction sidecar is a
// rebuildable hole, reported as *SegmentsEvictedError without touching
// the (still perfectly good) remaining files.
func (d *diskCache) load(hash string) (Trace, error) {
	path := d.spillPath(hash)
	t, err := OpenSpill(path)
	if err != nil {
		if errors.Is(err, ErrCorruptSpill) {
			if missing, ok := d.evictedHole(path); ok {
				return nil, &SegmentsEvictedError{Missing: missing}
			}
			d.quarantine(hash)
		}
		return nil, err
	}
	d.touch(hash)
	return t, nil
}

// loadOrBuild resolves one cache miss: a disk load when possible,
// otherwise a build under the key's lease that publishes each segment as
// it completes and the manifest last. fromDisk reports a load.
func (d *diskCache) loadOrBuild(key Key, spec BuildSpec) (t Trace, fromDisk bool) {
	hash := keyHash(key)
	if loaded, err := d.load(hash); err == nil {
		return loaded, true
	}
	unlock, err := d.acquireLease(hash)
	if err != nil {
		// Lease machinery unavailable (read-only dir, ...): degrade to an
		// uncoordinated heap build.
		return mustCapture(spec), false
	}
	defer unlock()
	// Another process may have published while we waited for the lease.
	loaded, lerr := d.load(hash)
	if lerr == nil {
		return loaded, true
	}
	var see *SegmentsEvictedError
	if errors.As(lerr, &see) {
		// Rebuild only the evicted segments in place; counted as a build
		// (annotation work ran), with SegRebuilds recording how little.
		if t, rerr := d.rebuildSegments(hash, key, spec, see.Missing); rerr == nil {
			return t, false
		}
		// The holes cannot be filled (spec drifted from the manifest,
		// disk trouble): fall back to a clean full rebuild.
		d.quarantine(hash)
	}
	p := CaptureSegmentedToFile(d.spillPath(hash), spec)
	ss, err := p.Wait()
	if err != nil {
		panic(err)
	}
	// A publish failure (disk full, ...) leaves no manifest behind; the
	// heap-backed trace is still good, it just is not shared on disk.
	if p.PublishErr() == nil {
		d.recordPublished(hash, key, d.spillBytes(hash))
	}
	return ss, false
}

// quarantine moves a failed spill — manifest and any segment files —
// aside (keeping them for post-mortems; the sweep reclaims them after
// corruptMaxAge) and drops its index entry, so the key rebuilds cleanly.
// The Quarantined counter tracks spills actually moved aside: when two
// readers race on the same corrupt spill, the loser finds nothing left
// to move and must not count the same quarantine twice.
func (d *diskCache) quarantine(hash string) {
	mark := fmt.Sprintf("%s%d.%d", corruptMark, os.Getpid(), time.Now().UnixNano())
	moved := false
	for _, p := range d.spillFiles(hash) {
		if err := os.Rename(p, p+mark); err == nil {
			moved = true
		} else if !os.IsNotExist(err) {
			// Could not move it aside; remove so the rebuild can publish.
			os.Remove(p)
			moved = true
		}
	}
	os.Remove(d.spillPath(hash) + evictStateSuffix)
	if moved {
		d.quarantined.Add(1)
	}
	d.withIndex(func(idx *indexFile) { delete(idx.Entries, hash) })
}

// recordPublished indexes a just-published spill, sweeps directory
// litter, and evicts over-capacity entries.
func (d *diskCache) recordPublished(hash string, key Key, bytes int64) {
	d.withIndex(func(idx *indexFile) {
		litter := d.sweepLocked(idx)
		idx.Entries[hash] = indexEntry{Key: key.String(), Bytes: bytes, LastUsed: time.Now().UnixNano()}
		d.evictIndexed(idx, hash, litter)
	})
}

// touch refreshes a spill's LRU position after a disk hit.
func (d *diskCache) touch(hash string) {
	d.withIndex(func(idx *indexFile) {
		e, ok := idx.Entries[hash]
		if !ok {
			// Spill exists but predates the index (or the index was lost);
			// adopt it so eviction accounting sees it. If the spill is
			// already gone (a concurrent eviction won the race), do NOT
			// insert: a phantom zero-byte entry would never count toward,
			// nor be reclaimed by, byte-cap eviction.
			b := d.spillBytes(hash)
			if b <= 0 {
				return
			}
			e.Bytes = b
		}
		e.LastUsed = time.Now().UnixNano()
		idx.Entries[hash] = e
	})
}

// evictIndexed removes least-recently-used spills until the directory —
// including litterBytes of unindexed litter (young quarantined files) —
// fits capBytes, never evicting keep (the entry just published). When
// the remaining overage is smaller than a victim, only tail segments of
// that victim are evicted (a rebuildable hole, see segevict.go) instead
// of the whole key — the margin costs a partial rebuild, not a full one.
func (d *diskCache) evictIndexed(idx *indexFile, keep string, litterBytes int64) {
	if d.capBytes <= 0 {
		return
	}
	total := litterBytes
	hashes := make([]string, 0, len(idx.Entries))
	for h, e := range idx.Entries {
		total += e.Bytes
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool {
		return idx.Entries[hashes[i]].LastUsed < idx.Entries[hashes[j]].LastUsed
	})
	for _, h := range hashes {
		if total <= d.capBytes {
			break
		}
		if h == keep {
			continue
		}
		if over := total - d.capBytes; over < idx.Entries[h].Bytes {
			total -= d.evictSegments(idx, h, over)
			if total <= d.capBytes {
				break
			}
			// Partial trim could not free enough (nothing evictable left
			// but segment 0, or not a segmented spill): fall through to
			// whole-key eviction with the entry's remaining bytes.
		}
		total -= idx.Entries[h].Bytes
		delete(idx.Entries, h)
		for _, p := range d.spillFiles(h) {
			os.Remove(p)
		}
		os.Remove(d.spillPath(h) + evictStateSuffix)
		d.evictions.Add(1)
	}
}

// sweepLocked reclaims directory litter; the caller holds the index
// lock. Removed: temp files and orphaned segment files (no manifest)
// older than tmpMaxAge, quarantined *.corrupt.* files older than
// corruptMaxAge, and expired leases. Returns the byte total of litter
// that was kept (young corrupt and temp files, live leases), so eviction
// can charge it against the capacity.
func (d *diskCache) sweepLocked(idx *indexFile) (litterBytes int64) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	now := d.now()
	manifests := make(map[string]bool)
	for _, de := range ents {
		if name := de.Name(); strings.HasSuffix(name, spillExt) {
			manifests[name] = true
		}
	}
	reap := func(de os.DirEntry, maxAge time.Duration) {
		fi, err := de.Info()
		if err != nil {
			return
		}
		if now.Sub(fi.ModTime()) > maxAge {
			if os.Remove(filepath.Join(d.dir, de.Name())) == nil {
				d.swept.Add(1)
			}
			return
		}
		litterBytes += fi.Size()
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || name == indexName || name == indexLockName {
			continue
		}
		switch {
		case strings.HasPrefix(name, tmpPrefix) || strings.HasPrefix(name, indexTmpPrefix):
			reap(de, d.tmpMaxAge)
		case strings.Contains(name, corruptMark):
			reap(de, d.corruptMaxAge)
		case strings.HasSuffix(name, evictStateSuffix):
			// Eviction sidecar whose manifest is gone (whole key evicted or
			// quarantined between the two removals): plain litter.
			if !manifests[strings.TrimSuffix(name, evictStateSuffix)] {
				reap(de, d.tmpMaxAge)
			}
		case strings.HasSuffix(name, leaseExt):
			// A lease names an in-flight claim. Expired ones are reclaimable
			// by definition (any claimer may steal them), so reap on sight;
			// unexpired ones are live litter whose bytes we keep charging.
			// Unreadable or malformed leases fall back to mtime aging.
			var li leaseInfo
			if data, rerr := os.ReadFile(filepath.Join(d.dir, name)); rerr == nil && json.Unmarshal(data, &li) == nil && li.Owner != "" {
				if li.Expires <= now.UnixNano() {
					if os.Remove(filepath.Join(d.dir, name)) == nil {
						d.swept.Add(1)
					}
				} else if fi, ferr := de.Info(); ferr == nil {
					litterBytes += fi.Size()
				}
			} else {
				reap(de, d.tmpMaxAge)
			}
		case segSuffixRe.MatchString(name):
			// Segment file whose manifest never landed (builder crashed
			// between segment publication and the manifest rename).
			if i := strings.LastIndex(name, ".seg"); i > 0 && !manifests[name[:i]] {
				reap(de, d.tmpMaxAge)
			}
		}
	}
	return litterBytes
}

// indexEntry is one spill's record in index.json.
type indexEntry struct {
	Key      string `json:"key"`
	Bytes    int64  `json:"bytes"`
	LastUsed int64  `json:"last_used_unix_nano"`
}

type indexFile struct {
	Version int                   `json:"version"`
	Entries map[string]indexEntry `json:"entries"`
}

// withIndex runs fn over the index under the cross-process index lock,
// then writes the result back atomically. An unreadable or corrupt index
// is replaced rather than trusted. Index failures are deliberately
// swallowed: the index only drives eviction accounting, and losing it
// merely delays eviction — it never affects correctness.
func (d *diskCache) withIndex(fn func(*indexFile)) {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return
	}
	unlock, err := lockFile(filepath.Join(d.dir, indexLockName))
	if err != nil {
		return
	}
	defer unlock()

	idx := indexFile{Version: 1, Entries: make(map[string]indexEntry)}
	path := filepath.Join(d.dir, indexName)
	if data, err := os.ReadFile(path); err == nil {
		if json.Unmarshal(data, &idx) != nil || idx.Entries == nil {
			idx = indexFile{Version: 1, Entries: make(map[string]indexEntry)}
		}
	}
	fn(&idx)
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(d.dir, indexTmpPrefix+"*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}
