package atrace

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlpsim/internal/annotate"
	"mlpsim/internal/workload"
)

// leaseTestCache builds a diskCache with a named lease owner and an
// injected clock.
func leaseTestCache(t *testing.T, dir, owner string, ttl time.Duration, now func() time.Time) *diskCache {
	t.Helper()
	d := newDiskCache(dir)
	d.leaseOwner = owner
	d.leaseTTL = ttl
	d.leasePoll = time.Millisecond
	if now != nil {
		d.now = now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return d
}

func readLease(t *testing.T, path string) leaseInfo {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read lease: %v", err)
	}
	var li leaseInfo
	if err := json.Unmarshal(data, &li); err != nil {
		t.Fatalf("parse lease: %v", err)
	}
	return li
}

// TestLeaseExpiryBoundary pins the expiry rule with an injected clock,
// like the sweep-age boundary tests: one nanosecond before the recorded
// expiry the lease is still held; at the expiry instant it is stale and
// a peer steals it.
func TestLeaseExpiryBoundary(t *testing.T) {
	dir := t.TempDir()
	base := time.Now()
	dA := leaseTestCache(t, dir, "a", time.Minute, func() time.Time { return base })
	path := dA.leasePath("cafebabe")
	if claimed, err := dA.tryClaimLease(path); err != nil || !claimed {
		t.Fatalf("initial claim: claimed=%v err=%v", claimed, err)
	}
	if li := readLease(t, path); li.Owner != "a" || li.Expires != base.Add(time.Minute).UnixNano() {
		t.Fatalf("lease record %+v, want owner a expiring at +1m", li)
	}

	dB := leaseTestCache(t, dir, "b", time.Minute, nil)
	dB.now = func() time.Time { return base.Add(time.Minute - time.Nanosecond) }
	if claimed, err := dB.tryClaimLease(path); err != nil || claimed {
		t.Fatalf("claim 1ns before expiry: claimed=%v err=%v, want held", claimed, err)
	}
	if n := dB.leasesStolen.Load(); n != 0 {
		t.Fatalf("unexpired lease counted as stolen (%d)", n)
	}

	dB.now = func() time.Time { return base.Add(time.Minute) }
	if claimed, err := dB.tryClaimLease(path); err != nil || !claimed {
		t.Fatalf("claim at expiry instant: claimed=%v err=%v, want stolen", claimed, err)
	}
	if n := dB.leasesStolen.Load(); n != 1 {
		t.Fatalf("%d leases stolen, want 1", n)
	}
	if li := readLease(t, path); li.Owner != "b" {
		t.Fatalf("lease owner %q after steal, want b", li.Owner)
	}
}

// TestLeaseRenewalPreventsSteal: a live holder renews every TTL/3, so a
// peer polling well past the original TTL never steals; release hands
// the lease over promptly.
func TestLeaseRenewalPreventsSteal(t *testing.T) {
	dir := t.TempDir()
	const ttl = 300 * time.Millisecond
	dA := leaseTestCache(t, dir, "a", ttl, nil)
	unlock, err := dA.acquireLease("feedface")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}

	dB := leaseTestCache(t, dir, "b", ttl, nil)
	acquired := make(chan struct{})
	go func() {
		u, err := dB.acquireLease("feedface")
		if err == nil {
			u()
			close(acquired)
		}
	}()
	select {
	case <-acquired:
		t.Fatal("peer acquired a lease its live holder was renewing")
	case <-time.After(3 * ttl):
	}
	unlock()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("peer never acquired the lease after release")
	}
	if n := dB.leasesStolen.Load(); n != 0 {
		t.Fatalf("peer stole %d leases; release should have handed it over cleanly", n)
	}
	// Both unlocks ran; the lease file must be gone.
	if _, err := os.Stat(dA.leasePath("feedface")); !os.IsNotExist(err) {
		t.Errorf("lease file survived both releases: %v", err)
	}
}

// TestLeaseSkewedClockPublishSafety is the satellite's skewed-clock
// scenario: replica A holds a lease it (slow clock) believes valid
// while replica B (clock 10 minutes ahead) sees it expired, steals it,
// builds and publishes. A then completes its own build and publishes
// over B's — a stale-but-unexpired lease holder. Determinism plus
// atomic publication make the duplicate harmless: the spill stays
// valid and bit-identical, nothing quarantines, and the directory holds
// the key's one spill and nothing else.
func TestLeaseSkewedClockPublishSafety(t *testing.T) {
	dir := t.TempDir()
	w := workload.Presets(27)[0]
	key := Key{Workload: w, Annot: "lease-skew", Warmup: testWarmup, Measure: testMeasure}
	hash := keyHash(key)
	mono := captureStream(t, w, annotate.Config{})
	newAnn := func() *annotate.Annotator {
		return annotate.New(workload.MustNew(w), annotate.Config{})
	}

	cA := NewCache()
	cA.SetDir(dir)
	cA.SetLease("a", 100*time.Millisecond)
	unlockA, err := cA.disk.acquireLease(hash) // A claims and stalls mid-build
	if err != nil {
		t.Fatalf("A acquire: %v", err)
	}

	cB := NewCache()
	cB.SetDir(dir)
	cB.SetLease("b", 100*time.Millisecond)
	cB.disk.leasePoll = time.Millisecond
	cB.disk.now = func() time.Time { return time.Now().Add(10 * time.Minute) } // fast clock
	spec := BuildSpec{NewAnnotator: newAnn, Warmup: testWarmup, Measure: testMeasure}
	tB := cB.GetTrace(key, spec)
	assertSameReplay(t, mono, tB)
	if n := cB.disk.leasesStolen.Load(); n != 1 {
		t.Fatalf("B stole %d leases, want 1 (A's, seen expired through the skew)", n)
	}

	// A, still believing it holds the lease, finishes and publishes too.
	if _, err := CaptureToFile(cA.disk.spillPath(hash), spec); err != nil {
		t.Fatalf("A's duplicate publish: %v", err)
	}
	cA.disk.afterPublish(hash)
	unlockA()

	// The spill is still whole, bit-identical, unquarantined, and alone.
	tr, err := OpenSpill(cA.disk.spillPath(hash))
	if err != nil {
		t.Fatalf("spill after duplicate publish: %v", err)
	}
	assertSameReplay(t, mono, tr)
	if got := cA.Stats().Quarantined + cB.Stats().Quarantined; got != 0 {
		t.Errorf("%d quarantines after duplicate publish, want 0", got)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
		t.Errorf("files after duplicate publish %v, want the one spill", files)
	}
}

const (
	leaseHelperEnvDir   = "MLPSIM_ATRACE_LEASE_HELPER_DIR"
	leaseHelperEnvOwner = "MLPSIM_ATRACE_LEASE_HELPER_OWNER"
	leaseHelperEnvCrash = "MLPSIM_ATRACE_LEASE_HELPER_CRASH"
)

func leaseHelperKey() (Key, workload.Config) {
	w := workload.Presets(28)[0]
	return Key{Workload: w, Annot: "lease-multiproc", Warmup: testWarmup, Measure: testMeasure}, w
}

// TestLeaseBuildHelper is the subprocess body for the lease
// crash-recovery test: one GetTrace in lease mode. With the crash env
// set it dies between writing the spill's publish temp file and its
// rename — the lease is written, the spill never lands: SIGKILL between
// lease write and publication.
func TestLeaseBuildHelper(t *testing.T) {
	dir := os.Getenv(leaseHelperEnvDir)
	if dir == "" {
		t.Skip("helper for TestLeaseCrashRecovery; set " + leaseHelperEnvDir + " to run")
	}
	if os.Getenv(leaseHelperEnvCrash) != "" {
		testCrashBeforeRename = func(dst string) {
			if strings.HasSuffix(dst, spillExt) {
				os.Exit(42)
			}
		}
	}
	c := NewCache()
	c.SetDir(dir)
	c.SetLease(os.Getenv(leaseHelperEnvOwner), time.Second)
	key, w := leaseHelperKey()
	s := c.GetTrace(key, testSpec(w))
	if os.Getenv(leaseHelperEnvCrash) != "" {
		t.Fatal("helper survived its crash point")
	}
	if s.Len() != testMeasure {
		t.Fatalf("trace length %d, want %d", s.Len(), testMeasure)
	}
	st := c.Stats()
	fmt.Printf("HELPER_BUILDS=%d\n", st.Builds)
	fmt.Printf("HELPER_STOLEN=%d\n", st.LeasesStolen)
}

// TestLeaseCrashRecovery kills a lease-holding builder between lease
// write and publication, then asserts a peer reclaims the key after
// expiry: the stale lease is stolen (not waited on forever), the trace
// is rebuilt and publishes whole, and nothing is quarantined.
func TestLeaseCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	dir := t.TempDir()
	key, _ := leaseHelperKey()
	hash := keyHash(key)
	path := filepath.Join(dir, hash+spillExt)

	cmd := exec.Command(exe, "-test.run", "^TestLeaseBuildHelper$", "-test.v")
	cmd.Env = append(os.Environ(), leaseHelperEnvDir+"="+dir,
		leaseHelperEnvOwner+"=dead", leaseHelperEnvCrash+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 42 {
		t.Fatalf("crash helper exited with %v, want code 42\n%s", err, out)
	}

	// The dead builder's claim is visible: its lease file names it, and
	// no spill landed.
	leasePath := filepath.Join(dir, hash+leaseExt)
	if li := readLease(t, leasePath); li.Owner != "dead" {
		t.Fatalf("lease owner %q after crash, want dead", li.Owner)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill visible after mid-publish crash: %v", err)
	}

	// A peer replica must reclaim the key: poll out the 1s lease,
	// steal, rebuild everything, publish.
	cmd = exec.Command(exe, "-test.run", "^TestLeaseBuildHelper$", "-test.v")
	cmd.Env = append(os.Environ(), leaseHelperEnvDir+"="+dir, leaseHelperEnvOwner+"=peer")
	out, err = cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("peer helper failed: %v\n%s", err, out)
	}
	if n, ok := parseHelperInt(string(out), "HELPER_BUILDS="); !ok || n != 1 {
		t.Fatalf("peer reported %d builds (ok=%v), want 1\n%s", n, ok, out)
	}
	if n, ok := parseHelperInt(string(out), "HELPER_STOLEN="); !ok || n != 1 {
		t.Fatalf("peer reported %d stolen leases (ok=%v), want 1\n%s", n, ok, out)
	}

	// Recovery is complete: whole trace, no quarantine, lease released.
	tr, err := OpenSpill(path)
	if err != nil {
		t.Fatalf("reclaimed trace unreadable: %v", err)
	}
	if tr.Len() != testMeasure {
		t.Errorf("reclaimed trace holds %d instructions, want %d", tr.Len(), testMeasure)
	}
	if marks, _ := filepath.Glob(filepath.Join(dir, "*"+corruptMark+"*")); len(marks) != 0 {
		t.Errorf("recovery quarantined files: %v", marks)
	}
	if _, err := os.Stat(leasePath); !os.IsNotExist(err) {
		t.Errorf("lease file not released after recovery: %v", err)
	}
}

func parseHelperInt(out, prefix string) (int, bool) {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), prefix); ok {
			n, err := strconv.Atoi(rest)
			if err != nil {
				return 0, false
			}
			return n, true
		}
	}
	return 0, false
}
