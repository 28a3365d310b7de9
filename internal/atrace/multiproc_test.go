package atrace

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mlpsim/internal/workload"
)

// helperEnvDir names the env var that flips TestDiskCacheHelper from a
// no-op into a cache client run by TestCrossProcessSingleflight.
const helperEnvDir = "MLPSIM_ATRACE_HELPER_DIR"

// helperKey is the one key every helper process asks for.
func helperKey() (Key, workload.Config) {
	w := workload.Presets(17)[0]
	return Key{Workload: w, Annot: "multiproc", Warmup: testWarmup, Measure: testMeasure}, w
}

// TestDiskCacheHelper is the subprocess body: it opens the shared
// directory, performs one GetTrace, and reports how many annotation
// passes it ran on stdout. It skips itself under normal `go test`
// invocations.
func TestDiskCacheHelper(t *testing.T) {
	dir := os.Getenv(helperEnvDir)
	if dir == "" {
		t.Skip("helper for TestCrossProcessSingleflight; set " + helperEnvDir + " to run")
	}
	c := NewCache()
	c.SetDir(dir)
	key, w := helperKey()
	s := c.GetTrace(key, testSpec(w))
	if s.Len() != testMeasure {
		t.Fatalf("stream length %d, want %d", s.Len(), testMeasure)
	}
	fmt.Printf("HELPER_BUILDS=%d\n", c.Stats().Builds)
}

// TestCrossProcessSingleflight launches N copies of this test binary
// against one cache directory and asserts the lease protocol let exactly
// one of them annotate; the rest must load the published spill.
func TestCrossProcessSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	dir := t.TempDir()

	const procs = 4
	outputs := make([]string, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cmd := exec.Command(exe, "-test.run", "^TestDiskCacheHelper$", "-test.v")
			cmd.Env = append(os.Environ(), helperEnvDir+"="+dir)
			out, err := cmd.CombinedOutput()
			outputs[i], errs[i] = string(out), err
		}(i)
	}
	wg.Wait()

	totalBuilds := 0
	for i := 0; i < procs; i++ {
		if errs[i] != nil {
			t.Fatalf("helper %d failed: %v\n%s", i, errs[i], outputs[i])
		}
		n, ok := parseHelperBuilds(outputs[i])
		if !ok {
			t.Fatalf("helper %d printed no HELPER_BUILDS line:\n%s", i, outputs[i])
		}
		totalBuilds += n
	}
	if totalBuilds != 1 {
		t.Errorf("%d processes performed %d annotation passes in total, want exactly 1", procs, totalBuilds)
	}

	key, w := helperKey()
	if _, err := os.Stat(filepath.Join(dir, keyHash(key)+spillExt)); err != nil {
		t.Errorf("shared spill missing after the race: %v", err)
	}
	// Every lease must be released, and the spill readable by a later
	// process without a rebuild.
	if leases, _ := filepath.Glob(filepath.Join(dir, "*"+leaseExt)); len(leases) != 0 {
		t.Errorf("leases left after the race: %v", leases)
	}
	c := NewCache()
	c.SetDir(dir)
	c.GetTrace(key, testSpec(w))
	if st := c.Stats(); st.DiskHits != 1 || st.Builds != 0 {
		t.Errorf("later process stats %+v, want a plain disk hit", st)
	}
}

const (
	// buildHelperEnvDir points TestBuildHelper at a shared cache
	// directory; buildHelperEnvCrash additionally makes it exit mid-publish.
	buildHelperEnvDir   = "MLPSIM_ATRACE_BUILD_HELPER_DIR"
	buildHelperEnvCrash = "MLPSIM_ATRACE_BUILD_HELPER_CRASH"
)

// TestBuildHelper is the subprocess body for the crash-recovery test:
// one GetTrace against the shared directory. With the crash env set it
// installs the writeAtomic hook and dies (os.Exit) between writing the
// spill's publish temp file and renaming it into place.
func TestBuildHelper(t *testing.T) {
	dir := os.Getenv(buildHelperEnvDir)
	if dir == "" {
		t.Skip("helper for TestCrashDuringPublishRecovery; set " + buildHelperEnvDir + " to run")
	}
	if os.Getenv(buildHelperEnvCrash) != "" {
		testCrashBeforeRename = func(dst string) {
			if strings.HasSuffix(dst, spillExt) {
				os.Exit(42)
			}
		}
	}
	c := NewCache()
	c.SetDir(dir)
	key, w := helperKey()
	s := c.GetTrace(key, testSpec(w))
	if os.Getenv(buildHelperEnvCrash) != "" {
		t.Fatal("helper survived its crash point")
	}
	if s.Len() != testMeasure {
		t.Fatalf("trace length %d, want %d", s.Len(), testMeasure)
	}
	fmt.Printf("HELPER_BUILDS=%d\n", c.Stats().Builds)
}

// TestCrashDuringPublishRecovery kills a builder process between writing
// the spill's publish temp file and its rename, then asserts the
// protocol's crash guarantees: no trace is visible, the only litter is
// the abandoned temp file and the dead builder's lease, the sweep
// reclaims both (the lease once it expires), and the next process
// simply rebuilds.
func TestCrashDuringPublishRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	dir := t.TempDir()
	key, _ := helperKey()
	path := filepath.Join(dir, keyHash(key)+spillExt)

	cmd := exec.Command(exe, "-test.run", "^TestBuildHelper$", "-test.v")
	cmd.Env = append(os.Environ(), buildHelperEnvDir+"="+dir, buildHelperEnvCrash+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 42 {
		t.Fatalf("crash helper exited with %v, want code 42\n%s", err, out)
	}

	// No spill may exist — the crash happened before its rename, so
	// other processes must see "no trace at all". The directory holds
	// the abandoned temp file and the dead builder's lease, which until
	// it expires is a live claim, not litter.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill visible after a mid-publish crash: %v", err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
	if len(tmps) != 1 {
		t.Fatalf("expected 1 abandoned temp file, found %v", tmps)
	}
	leasePath := filepath.Join(dir, keyHash(key)+leaseExt)
	if _, err := os.Stat(leasePath); err != nil {
		t.Fatalf("expected the crashed builder's lease: %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 2 {
		t.Fatalf("files after the crash %v, want the temp file and the lease", files)
	}

	// An aged sweep past the lease's expiry reclaims both pieces of
	// litter: the abandoned temp file and the dead builder's expired
	// lease.
	d := newDiskCache(dir)
	d.tmpMaxAge = -1
	sweepAt(d, time.Now().Add(DefaultLeaseTTL+time.Second))
	if got := d.swept.Load(); got != 2 {
		t.Errorf("sweep reclaimed %d files, want 2 (temp + expired lease)", got)
	}
	for _, p := range append([]string{leasePath}, tmps...) {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("sweep left %s behind", p)
		}
	}

	// The next process rebuilds from scratch and publishes a full trace.
	cmd = exec.Command(exe, "-test.run", "^TestBuildHelper$", "-test.v")
	cmd.Env = append(os.Environ(), buildHelperEnvDir+"="+dir)
	out, err = cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("rebuild helper failed: %v\n%s", err, out)
	}
	if n, ok := parseHelperBuilds(string(out)); !ok || n != 1 {
		t.Fatalf("rebuild helper reported %d builds (ok=%v), want 1\n%s", n, ok, out)
	}
	if tr, err := OpenSpill(path); err != nil {
		t.Errorf("republished trace unreadable: %v", err)
	} else if tr.Len() != testMeasure {
		t.Errorf("republished trace holds %d instructions, want %d", tr.Len(), testMeasure)
	}
}

func parseHelperBuilds(out string) (int, bool) {
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "HELPER_BUILDS="); ok {
			n, err := strconv.Atoi(rest)
			if err != nil {
				return 0, false
			}
			return n, true
		}
	}
	return 0, false
}
