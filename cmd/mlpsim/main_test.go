package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildCLIs compiles the named commands of this module into a fresh
// directory and returns it.
func buildCLIs(t *testing.T, cmds ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, c := range cmds {
		args = append(args, "mlpsim/cmd/"+c)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// runCLI runs a built command and returns its stdout, failing the test
// unless it exits with status want within a minute (so a run that never
// ends fails instead of hanging the suite).
func runCLI(t *testing.T, want int, bin string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
	}
	if code != want {
		t.Fatalf("%s %v exited %d, want %d\nstdout:\n%s\nstderr:\n%s", filepath.Base(bin), args, code, want, &stdout, &stderr)
	}
	return stdout.String()
}

func TestValidateFlags(t *testing.T) {
	for _, c := range []struct {
		name            string
		trace           string
		warmup, measure int64
		wantErr         string
	}{
		{"workload", "", 0, 10, ""},
		{"trace-to-end", "f", 0, 0, ""},
		{"negative-warmup", "", -1, 10, "-warmup -1"},
		{"negative-measure", "", 0, -1, "-measure -1"},
		{"negative-measure-trace", "f", 0, -1, "-measure -1"},
		{"endless-workload", "", 0, 0, "-measure 0 needs -trace"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.trace, c.warmup, c.measure)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v, want one naming %q", err, c.wantErr)
			}
		})
	}
}

func TestBuildConfig(t *testing.T) {
	ok := engineFlags{window: 64, fetchBuf: 32, maxRunahead: 2048, issue: "C", measure: 10}
	for _, c := range []struct {
		name    string
		edit    func(*engineFlags)
		wantErr string
	}{
		{"default", func(*engineFlags) {}, ""},
		{"inorder-ignores-window", func(f *engineFlags) { f.inorder, f.window = "use", 0 }, ""},
		{"runahead", func(f *engineFlags) { f.runahead, f.issue = true, "d" }, ""},
		{"bad-issue", func(f *engineFlags) { f.issue = "Z" }, "-issue"},
		{"bad-inorder", func(f *engineFlags) { f.inorder = "sideways" }, "-inorder"},
		{"zero-window", func(f *engineFlags) { f.window = 0 }, "-window 0"},
		{"small-rob", func(f *engineFlags) { f.rob = 8 }, "-rob 8"},
		{"negative-fetchbuf", func(f *engineFlags) { f.fetchBuf = -1 }, "-fetchbuf -1"},
		{"zero-max-runahead", func(f *engineFlags) { f.runahead, f.maxRunahead = true, 0 }, "-max-runahead 0"},
		{"negative-mshrs", func(f *engineFlags) { f.mshrs = -1 }, "-mshrs -1"},
		{"negative-storebuf", func(f *engineFlags) { f.storeBuf = -2 }, "-storebuf -2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := ok
			c.edit(&f)
			_, err := buildConfig(f)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v, want one naming %q", err, c.wantErr)
			}
		})
	}
}

// TestRawTraceMatchesWorkload: a raw tracegen trace, annotated by
// mlpsim at replay time, gives the result lines of the matching
// -workload run.
func TestRawTraceMatchesWorkload(t *testing.T) {
	bin := buildCLIs(t, "tracegen", "mlpsim")
	const warmup, n = 20_000, 60_000
	path := filepath.Join(t.TempDir(), "db.trc")
	runCLI(t, 0, filepath.Join(bin, "tracegen"), "-workload", "database", "-n", strconv.Itoa(warmup+n), "-o", path)
	window := []string{"-warmup", strconv.Itoa(warmup), "-measure", strconv.Itoa(n), "-issue", "D", "-runahead"}
	want := runCLI(t, 0, filepath.Join(bin, "mlpsim"), append([]string{"-workload", "database"}, window...)...)
	if got := runCLI(t, 0, filepath.Join(bin, "mlpsim"), append([]string{"-trace", path}, window...)...); got != want {
		t.Errorf("mlpsim -trace output differs from the -workload run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCLIRejectsBadFlags: a negative window, a generated run with no
// end, an engine flag that makes no valid configuration, an unknown
// workload or a stray argument makes the real command exit 2, before it
// generates or warms the workload.
func TestCLIRejectsBadFlags(t *testing.T) {
	bin := buildCLIs(t, "mlpsim")
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("neither format"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-workload", "database", "-measure", "-1"},
		{"-measure", "0"},
		{"-warmup", "-5"},
		{"-trace", junk, "-measure", "-1"},
		{"-issue", "Z"},
		{"-inorder", "sideways"},
		{"-window", "0"},
		{"-window", "64", "-rob", "8"},
		{"-mshrs", "-1"},
		{"-runahead", "-max-runahead", "0"},
		{"-workload", "bogus"},
		{"-measure", "1000", "extra-arg"},
	} {
		runCLI(t, 2, filepath.Join(bin, "mlpsim"), args...)
	}
	runCLI(t, 1, filepath.Join(bin, "mlpsim"), "-trace", junk)
}

var updateEpochDigests = flag.Bool("update", false, "rewrite testdata/epoch_digests.json from the current command")

// TestEpochOutputDigests pins the epoch hook's one user-visible product:
// the -epochs listing and -timeline chart. Each engine discipline runs
// over the default workload at 20k warm-up and 50k measured
// instructions, and the SHA-256 of its whole stdout must equal the
// digest recorded in testdata/epoch_digests.json. A change that moves
// this output regenerates the file with -update and says why.
func TestEpochOutputDigests(t *testing.T) {
	bin := buildCLIs(t, "mlpsim")
	base := []string{"-warmup", "20000", "-measure", "50000", "-epochs", "-timeline"}
	got := make(map[string]string)
	for name, extra := range map[string][]string{
		"default":      nil,
		"inorder-use":  {"-inorder", "use"},
		"inorder-miss": {"-inorder", "miss"},
		"vp":           {"-vp"},
		"runahead":     {"-runahead"},
	} {
		out := runCLI(t, 0, filepath.Join(bin, "mlpsim"), append(append([]string(nil), base...), extra...)...)
		sum := sha256.Sum256([]byte(out))
		got[name] = hex.EncodeToString(sum[:])
	}

	path := filepath.FromSlash("testdata/epoch_digests.json")
	if *updateEpochDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestEpochOutputDigests -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: epoch output digest %s, %s pins %q", name, sum, path, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s pins run %q, which the test no longer makes", path, name)
		}
	}
}
