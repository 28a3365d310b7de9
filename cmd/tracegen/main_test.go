package main

import (
	"bytes"
	"context"
	"errors"
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
		name               string
		out                string
		n, warmup, segment int64
		workers            int
		annotated          bool
		wantErr            string
	}{
		{"raw", "x", 10, 0, 0, 0, false, ""},
		{"annotated-segmented", "x", 10, 5, 3, 2, true, ""},
		{"no-output", "", 10, 0, 0, 0, false, "-o"},
		{"negative-n", "x", -5, 0, 0, 0, false, "-n -5"},
		{"zero-n", "x", 0, 0, 0, 0, false, "-n 0"},
		{"negative-warmup", "x", 10, -50, 0, 0, true, "-warmup -50"},
		{"negative-segment", "x", 10, 0, -7, 0, true, "-segment -7"},
		{"negative-workers", "x", 10, 0, 0, -3, true, "-workers -3"},
		{"segment-without-annotate", "x", 10, 0, 5, 0, false, "-segment requires -annotate"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.out, c.n, c.warmup, c.segment, c.workers, c.annotated)
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

// TestAnnotatedTraceMatchesWorkload: an annotated trace written by
// tracegen, with one segment or with several built by two workers,
// replays through mlpsim -trace to exactly the result lines of the
// matching mlpsim -workload run.
func TestAnnotatedTraceMatchesWorkload(t *testing.T) {
	bin := buildCLIs(t, "tracegen", "mlpsim")
	const warmup, n = 20_000, 60_000
	want := runCLI(t, 0, filepath.Join(bin, "mlpsim"), "-workload", "database",
		"-warmup", strconv.Itoa(warmup), "-measure", strconv.Itoa(n))
	for name, extra := range map[string][]string{
		"one-segment":    nil,
		"three-segments": {"-segment", strconv.Itoa(n / 3), "-workers", "2"},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.acol")
			args := append([]string{"-workload", "database", "-annotate",
				"-warmup", strconv.Itoa(warmup), "-n", strconv.Itoa(n), "-o", path}, extra...)
			runCLI(t, 0, filepath.Join(bin, "tracegen"), args...)
			if got := runCLI(t, 0, filepath.Join(bin, "mlpsim"), "-trace", path); got != want {
				t.Errorf("mlpsim -trace output differs from the -workload run\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestCLIRejectsBadFlags: every value validateFlags refuses makes the
// real command exit 2 without writing a trace.
func TestCLIRejectsBadFlags(t *testing.T) {
	bin := buildCLIs(t, "tracegen")
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-n", "-5"},
		{"-n", "0"},
		{"-annotate", "-segment", "-7", "-workers", "-3"},
		{"-annotate", "-workers", "-3"},
		{"-annotate", "-warmup", "-50", "-n", "10"},
		{"-segment", "5", "-n", "10"},
	} {
		out := filepath.Join(dir, "x")
		runCLI(t, 2, filepath.Join(bin, "tracegen"), append(args, "-o", out)...)
		if matches, _ := filepath.Glob(out + "*"); len(matches) != 0 {
			t.Errorf("tracegen %v wrote %v", args, matches)
		}
	}
}
