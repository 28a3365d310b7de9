package atrace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
	spillExt    = ".acol"
	tmpPrefix   = ".acol-tmp-"
	corruptMark = ".corrupt."

	// sweepTmpMaxAge bounds how long abandoned temp files (and the files
	// older builds kept beside their spills) survive: long enough that no
	// live builder's in-flight file is ever reclaimed, short enough that
	// crashed builders do not leak disk.
	sweepTmpMaxAge = time.Hour
	// sweepCorruptMaxAge bounds how long quarantined spills are kept for
	// post-mortems before the sweep reclaims them. Until then their bytes
	// count against the directory capacity.
	sweepCorruptMaxAge = 24 * time.Hour
)

// testCrashBeforeRename, when set (by the multi-process crash tests),
// runs between writing a publish temp file for dst and renaming it into
// place.
var testCrashBeforeRename func(dst string)

// writeAtomic writes dst via a temp file in dir plus an atomic rename.
// On any failure the temp file is removed and dst is untouched.
func writeAtomic(dir, tmpPattern, dst string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if testCrashBeforeRename != nil {
		testCrashBeforeRename(dst)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// diskCache is the shared on-disk half of Cache: a directory of spilled
// traces coordinated across processes and hosts.
//
// Layout of the directory:
//
//	<hash>.acol    the key's spill (colfile.go; hash = sha256 of the
//	               canonical key); its mtime is its LRU stamp
//	<hash>.lease   per-key build lease (lease.go); cross-process singleflight
//	.acol-tmp-*    a publish or lease write in flight, or abandoned
//	*.corrupt.*    quarantined spills that failed validation
//
// Protocol: readers open the spill directly (no lease) and stamp its
// mtime on success. A miss takes <hash>.lease, re-checks the spill
// (another process may have published while we waited), builds if still
// absent, publishes the spill with one temp file + rename (atomic on
// POSIX), stamps it, then sweeps the directory — all before releasing
// the lease. So cross-process visibility is all-or-nothing. Corrupt or
// truncated spills, and files in any other format at a key's path, are
// renamed aside, never trusted.
//
// The directory listing is the eviction index: the publish-time sweep
// charges every spill and every young piece of litter against capBytes,
// then removes the least recently stamped spills until the directory
// fits, never the one just published. No lock guards it: racing sweeps
// order the same stamps, so they remove the same oldest spills, and a
// spill removed under a reader stays mapped until the reader drops it.
//
// Lifecycle of litter: abandoned temp files, and the files older builds
// kept beside their spills (see olderBuildLitter), are removed once
// older than tmpMaxAge; quarantined *.corrupt.* files are kept for
// corruptMaxAge (their bytes counting against capBytes) and then
// removed; expired leases — left by a builder that died holding one —
// are removed on sight, since any claimer may steal them anyway.
type diskCache struct {
	dir      string
	capBytes int64

	// Sweep age bounds; fields so tests can force immediate reclamation.
	tmpMaxAge     time.Duration
	corruptMaxAge time.Duration
	// now is the cache's clock: it ages litter, stamps spills as used and
	// decides lease expiry (see lease.go). A field so tests can pin
	// litter ages exactly at the young/aged boundary, order LRU stamps,
	// and test clock-skew scenarios.
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

// load opens the spill for key if present and valid, and stamps it as
// just used. Corrupt files are quarantined so the caller rebuilds
// instead of crashing; the error then wraps ErrCorruptSpill.
func (d *diskCache) load(hash string) (*Stream, error) {
	path := d.spillPath(hash)
	t, err := OpenSpill(path)
	if err != nil {
		if errors.Is(err, ErrCorruptSpill) {
			d.quarantine(path)
		}
		return nil, err
	}
	d.touch(path)
	return t, nil
}

// loadOrBuild resolves one cache miss: a disk load when possible,
// otherwise a build under the key's lease that publishes the spill.
// fromDisk reports a load.
func (d *diskCache) loadOrBuild(key Key, spec BuildSpec) (t *Stream, fromDisk bool) {
	hash := keyHash(key)
	if loaded, err := d.load(hash); err == nil {
		return loaded, true
	}
	unlock, err := d.acquireLease(hash)
	if err != nil {
		// Lease machinery unavailable (read-only dir, ...): degrade to an
		// uncoordinated heap build.
		return capture(spec), false
	}
	defer unlock()
	// Another process may have published while we waited for the lease.
	if loaded, err := d.load(hash); err == nil {
		return loaded, true
	}
	t, err = CaptureToFile(d.spillPath(hash), spec)
	// A write failure (disk full, ...) leaves no spill behind; the trace
	// CaptureToFile then captured into the heap is still good, it just is
	// not shared on disk.
	if err == nil {
		d.afterPublish(hash)
	}
	return t, false
}

// afterPublish stamps a just-published spill, sweeps directory litter,
// and evicts over-capacity spills.
func (d *diskCache) afterPublish(hash string) {
	d.touch(d.spillPath(hash))
	litterBytes, spills := d.sweep()
	d.evict(hash+spillExt, litterBytes, spills)
}

// touch stamps the spill at path as used now: its mtime is its LRU
// position. A failed stamp (the spill evicted meanwhile, a read-only
// directory) only lets the spill look older than it is.
func (d *diskCache) touch(path string) {
	now := d.now()
	_ = os.Chtimes(path, now, now)
}

// quarantine moves a failed spill aside (keeping it for post-mortems;
// the sweep reclaims it after corruptMaxAge), so the key rebuilds
// cleanly. The Quarantined counter tracks spills actually moved aside:
// when two readers race on the same corrupt spill, the loser finds
// nothing left to move and must not count the same quarantine twice.
func (d *diskCache) quarantine(path string) {
	mark := fmt.Sprintf("%s%d.%d", corruptMark, os.Getpid(), time.Now().UnixNano())
	switch err := os.Rename(path, path+mark); {
	case err == nil:
	case os.IsNotExist(err):
		return
	default:
		// Could not move it aside; remove it so the rebuild can publish.
		os.Remove(path)
	}
	d.quarantined.Add(1)
}

// spillFile is one spill the sweep found: its name, size and LRU stamp.
type spillFile struct {
	name  string
	bytes int64
	used  time.Time
}

// olderBuildLitter reports whether name is a file that older builds kept
// beside their spills and this one never writes: a manifest's segment
// files and eviction sidecar ("<hash>.acol.seg0000", "<hash>.acol.evict"),
// and the eviction index with its lock and temp files.
func olderBuildLitter(name string) bool {
	return strings.Contains(name, spillExt+".") || name == "index.json" || name == "index.lock" ||
		strings.HasPrefix(name, ".index-tmp-")
}

// sweep lists the directory and reclaims litter: temp files and older
// builds' litter older than tmpMaxAge, quarantined *.corrupt.* files
// older than corruptMaxAge, and expired leases. It returns the byte
// total of the litter it kept (young temp and quarantined files, live
// leases), so eviction can charge it against the capacity, and every
// spill it found. Files the cache does not name are left alone.
func (d *diskCache) sweep() (litterBytes int64, spills []spillFile) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, nil
	}
	now := d.now()
	remove := func(name string) {
		if os.Remove(filepath.Join(d.dir, name)) == nil {
			d.swept.Add(1)
		}
	}
	for _, de := range ents {
		name := de.Name()
		maxAge := d.tmpMaxAge
		switch {
		case de.IsDir():
			continue
		case strings.HasSuffix(name, spillExt):
			if fi, err := de.Info(); err == nil {
				spills = append(spills, spillFile{name, fi.Size(), fi.ModTime()})
			}
			continue
		case strings.Contains(name, corruptMark):
			maxAge = d.corruptMaxAge
		case strings.HasSuffix(name, leaseExt):
			// A lease names an in-flight claim. Expired ones are reclaimable
			// by definition (any claimer may steal them), so reap on sight;
			// unexpired ones are live litter whose bytes we keep charging.
			// Unreadable or malformed leases fall back to mtime aging.
			var li leaseInfo
			if data, err := os.ReadFile(filepath.Join(d.dir, name)); err == nil && json.Unmarshal(data, &li) == nil && li.Owner != "" {
				if li.Expires <= now.UnixNano() {
					remove(name)
					continue
				}
				maxAge = math.MaxInt64
			}
		case strings.HasPrefix(name, tmpPrefix), olderBuildLitter(name):
		default:
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		if now.Sub(fi.ModTime()) > maxAge {
			remove(name)
		} else {
			litterBytes += fi.Size()
		}
	}
	return litterBytes, spills
}

// evict removes least-recently-used spills until they and litterBytes
// of kept litter fit capBytes, never evicting keep (the name of the
// spill just published).
func (d *diskCache) evict(keep string, litterBytes int64, spills []spillFile) {
	if d.capBytes <= 0 {
		return
	}
	total := litterBytes
	for _, s := range spills {
		total += s.bytes
	}
	// Stable over the listing's name order, so equal stamps evict in a
	// fixed order.
	sort.SliceStable(spills, func(i, j int) bool { return spills[i].used.Before(spills[j].used) })
	for _, s := range spills {
		if total <= d.capBytes {
			break
		}
		if s.name == keep {
			continue
		}
		if os.Remove(filepath.Join(d.dir, s.name)) == nil {
			d.evictions.Add(1)
		}
		total -= s.bytes
	}
}
