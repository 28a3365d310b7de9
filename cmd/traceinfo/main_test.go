package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strconv"
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

// TestRawTraceMatchesWorkload: characterizing a raw tracegen trace
// prints exactly what characterizing the matching generated workload
// prints.
func TestRawTraceMatchesWorkload(t *testing.T) {
	bin := buildCLIs(t, "tracegen", "traceinfo")
	const warmup, n = 20_000, 60_000
	path := filepath.Join(t.TempDir(), "jbb.trc")
	runCLI(t, 0, filepath.Join(bin, "tracegen"), "-workload", "jbb", "-n", strconv.Itoa(warmup+n), "-o", path)
	window := []string{"-warmup", strconv.Itoa(warmup), "-n", strconv.Itoa(n)}
	want := runCLI(t, 0, filepath.Join(bin, "traceinfo"), append([]string{"-workload", "jbb"}, window...)...)
	if got := runCLI(t, 0, filepath.Join(bin, "traceinfo"), append([]string{"-trace", path}, window...)...); got != want {
		t.Errorf("traceinfo -trace output differs from the -workload run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCLIRejectsBadFlags: a negative warm-up or an empty window exits 2.
func TestCLIRejectsBadFlags(t *testing.T) {
	bin := buildCLIs(t, "traceinfo")
	for _, args := range [][]string{
		{"-warmup", "-1"},
		{"-n", "0"},
		{"-n", "-5"},
	} {
		runCLI(t, 2, filepath.Join(bin, "traceinfo"), args...)
	}
}
