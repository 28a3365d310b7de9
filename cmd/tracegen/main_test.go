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
		name      string
		out       string
		n, warmup int64
		wantErr   string
	}{
		{"raw", "x", 10, 0, ""},
		{"no-output", "", 10, 0, "-o"},
		{"negative-n", "x", -5, 0, "-n -5"},
		{"zero-n", "x", 0, 0, "-n 0"},
		{"negative-warmup", "x", 10, -50, "-warmup -50"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.out, c.n, c.warmup)
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
// tracegen is one file, and it replays through mlpsim -trace to exactly
// the result lines of the matching mlpsim -workload run.
func TestAnnotatedTraceMatchesWorkload(t *testing.T) {
	bin := buildCLIs(t, "tracegen", "mlpsim")
	const warmup, n = 20_000, 60_000
	want := runCLI(t, 0, filepath.Join(bin, "mlpsim"), "-workload", "database",
		"-warmup", strconv.Itoa(warmup), "-measure", strconv.Itoa(n))
	t.Run("one-segment", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "db.acol")
		runCLI(t, 0, filepath.Join(bin, "tracegen"), "-workload", "database", "-annotate",
			"-warmup", strconv.Itoa(warmup), "-n", strconv.Itoa(n), "-o", path)
		if files, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*")); len(files) != 1 {
			t.Errorf("tracegen -annotate wrote %v, want the one file %s", files, path)
		}
		if got := runCLI(t, 0, filepath.Join(bin, "mlpsim"), "-trace", path); got != want {
			t.Errorf("mlpsim -trace output differs from the -workload run\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestCLIRejectsBadFlags: every value validateFlags refuses, an unknown
// workload and a stray argument make the real command exit 2 without
// writing a trace.
func TestCLIRejectsBadFlags(t *testing.T) {
	bin := buildCLIs(t, "tracegen")
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-n", "-5"},
		{"-n", "0"},
		{"-annotate", "-warmup", "-50", "-n", "10"},
		{"-workload", "bogus"},
		{"-n", "10", "stray"},
	} {
		out := filepath.Join(dir, "x")
		runCLI(t, 2, filepath.Join(bin, "tracegen"), append([]string{"-o", out}, args...)...)
		if matches, _ := filepath.Glob(out + "*"); len(matches) != 0 {
			t.Errorf("tracegen %v wrote %v", args, matches)
		}
	}
}
