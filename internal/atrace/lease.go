package atrace

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"
)

// Per-key build leases: the one protocol that serializes builders of a
// key, whether they are goroutines of different caches, processes on one
// host, or daemons on different hosts sharing the directory over a
// network filesystem (where flock does not travel). One host is simply a
// fleet of one. Lease files are filesystem-portable:
//
//	<hash>.lease   JSON {owner, expires_unix_nano}
//
// Acquisition is an atomic link(2) of a fully-written temp file — the
// classic shared-filesystem lock: create-if-absent with the content
// already in place, so a reader never observes a half-written lease.
// The holder renews by temp-file + rename (atomic replace) every TTL/3;
// a lease whose expiry has passed is stale and any peer may steal it
// (remove + re-link). Release removes the file iff it is still ours. So a
// builder killed while holding a lease blocks its key for at most the
// TTL, after which the next claimer steals the lease and rebuilds.
//
// Leases are *work deduplication*, not a safety mechanism. Trace builds
// are deterministic — two processes that both believe they hold the
// lease publish bit-identical spills, and publication is already safe
// against concurrency (temp file + atomic rename, CRC validation on
// open, quarantine on mismatch). So a stale-but-unexpired lease held by
// a skewed clock can waste a build, never corrupt one; the skewed-clock
// test pins exactly that. All expiry decisions use the cache's injected
// clock (diskCache.now) so boundary behavior is testable.
const leaseExt = ".lease"

// DefaultLeaseTTL is the lease expiry unless SetLease sets one: long
// enough that renewal (every TTL/3) tolerates scheduling hiccups, short
// enough that a crashed builder's key is reclaimed promptly.
const DefaultLeaseTTL = 30 * time.Second

// leaseInfo is the on-disk lease record.
type leaseInfo struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_nano"`
}

// leasePollDefault is how often a blocked claimer re-probes the lease;
// a field on diskCache so tests can shrink it.
const leasePollDefault = 25 * time.Millisecond

// uniqueLeaseOwner names a cache that SetLease never named: hostname and
// pid tell a post-mortem who held a lease, and the random suffix keeps
// two caches in one process apart (and stays unique when the hostname
// is unavailable and left empty).
func uniqueLeaseOwner() string {
	host, _ := os.Hostname()
	return fmt.Sprintf("%s/%d/%016x", host, os.Getpid(), rand.Uint64())
}

func (d *diskCache) leasePath(hash string) string {
	return filepath.Join(d.dir, hash+leaseExt)
}

// tryClaimLease makes one non-blocking attempt to take the lease at
// path. It returns claimed=false when another owner holds an unexpired
// lease; expired or malformed leases are stolen (removed) first, and
// racing stealers are resolved by the link: exactly one claimer wins,
// the rest see EEXIST and retry.
func (d *diskCache) tryClaimLease(path string) (claimed bool, err error) {
	if data, rerr := os.ReadFile(path); rerr == nil {
		var li leaseInfo
		if json.Unmarshal(data, &li) == nil && li.Owner != "" {
			if li.Expires > d.now().UnixNano() {
				return false, nil
			}
			// Expired: steal. Count only the remover, not racing losers.
			if os.Remove(path) == nil {
				d.leasesStolen.Add(1)
			}
		} else {
			// Malformed lease (torn write through a non-atomic channel,
			// truncation): nothing can ever release it, so reclaim it.
			os.Remove(path)
		}
	}
	li := leaseInfo{Owner: d.leaseOwner, Expires: d.now().Add(d.leaseTTL).UnixNano()}
	data, err := json.Marshal(li)
	if err != nil {
		return false, err
	}
	tmp, err := os.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		return false, err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	if err := os.Link(tmpName, path); err != nil {
		if os.IsExist(err) {
			return false, nil // lost the race; caller polls again
		}
		return false, err
	}
	d.leasesAcquired.Add(1)
	return true, nil
}

// acquireLease blocks (polling) until this cache owns the lease for
// hash, then starts a background renewer. The returned unlock stops the
// renewer and releases the lease if it is still ours.
func (d *diskCache) acquireLease(hash string) (unlock func(), err error) {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	path := d.leasePath(hash)
	for {
		claimed, err := d.tryClaimLease(path)
		if err != nil {
			return nil, err
		}
		if claimed {
			break
		}
		time.Sleep(d.leasePoll)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go d.renewLease(path, stop, done)
	return func() {
		close(stop)
		<-done
		d.releaseLease(path)
	}, nil
}

// renewLease extends the lease every TTL/3 until stopped. If the lease
// file vanishes or changes owner (a peer stole it after our expiry —
// e.g. this process was paused past the TTL), renewal stops quietly:
// the build keeps running, and its eventual publish is still safe by
// the determinism argument above.
func (d *diskCache) renewLease(path string, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	interval := d.leaseTTL / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			data, err := os.ReadFile(path)
			if err != nil {
				return // vanished: stolen and maybe re-claimed; stop renewing
			}
			var li leaseInfo
			if json.Unmarshal(data, &li) != nil || li.Owner != d.leaseOwner {
				return // not ours anymore
			}
			li.Expires = d.now().Add(d.leaseTTL).UnixNano()
			renewed, err := json.Marshal(li)
			if err != nil {
				return
			}
			// Atomic replace; if a stealer removed the file between our read
			// and this rename we harmlessly re-assert the lease we believe we
			// hold — the stealer's next probe sees it unexpired and waits.
			if err := writeAtomic(d.dir, tmpPrefix+"*", path, func(f *os.File) error {
				_, werr := f.Write(append(renewed, '\n'))
				return werr
			}); err != nil {
				return
			}
		}
	}
}

// releaseLease removes the lease iff this cache still owns it.
func (d *diskCache) releaseLease(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var li leaseInfo
	if json.Unmarshal(data, &li) != nil || li.Owner != d.leaseOwner {
		return
	}
	os.Remove(path)
}
