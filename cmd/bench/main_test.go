package main

import (
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestParseBench reads canned go test output: the -N suffix may be
// absent, custom metrics may sit between ns/op and B/op (allocs/inst is
// kept), and lines that are not results of a gated benchmark are skipped.
func TestParseBench(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: mlpsim
cpu: Intel(R) Xeon(R) Processor
BenchmarkAnnotateStream-2   	 3811437	        90.80 ns/op	       0 B/op	       0 allocs/op
BenchmarkReplayStream       	10944716	        27.51 ns/op	       0 B/op	       0 allocs/op
BenchmarkGangSweepK16-16    	11095977	        32.70 ns/op	         3.000 MLP-64C	      48 B/op	       2 allocs/op
BenchmarkGangSweepK1-2      	 2289896	       105.1 ns/op
BenchmarkGangSweepK4-2      	 9000000	        40.20 ns/op	         1.000 allocs/inst	       8 B/op	       0 allocs/op
BenchmarkSMTSchedule-2      	      70	   3888099 ns/op	       0 B/op	       0 allocs/op
BenchmarkFigure4-2          	       1	 512345678 ns/op	         1.413 MLP-64C	    1234 B/op	      56 allocs/op
BenchmarkGangSweepDivergent-2	 5000000	        20.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkCycleSimGang-2     	--- FAIL: BenchmarkCycleSimGang-2
BenchmarkMLPsimEngine started at 12:00
PASS
ok  	mlpsim	12.345s
`
	want := map[string]benchResult{
		"AnnotateStream": {NsPerOp: 90.80},
		"ReplayStream":   {NsPerOp: 27.51},
		"GangSweepK16":   {NsPerOp: 32.70, BytesPerOp: 48, AllocsPerOp: 2},
		"GangSweepK1":    {NsPerOp: 105.1},
		"GangSweepK4":    {NsPerOp: 40.20, BytesPerOp: 8, AllocsPerInst: ptr(int64(1))},
		"SMTSchedule":    {NsPerOp: 3888099},
	}
	got := parseBench(out)
	if len(got) != len(want) {
		t.Errorf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if !reflect.DeepEqual(got[name], w) {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

// rounds builds per-round result maps for one name: one map per ns/op
// value, each at the given allocs/op.
func rounds(name string, allocs int64, ns ...float64) []map[string]benchResult {
	out := make([]map[string]benchResult, len(ns))
	for i, v := range ns {
		out[i] = map[string]benchResult{name: {NsPerOp: v, AllocsPerOp: allocs}}
	}
	return out
}

func ptr[T any](v T) *T { return &v }

// perInst sets every round's allocs/inst metric to n.
func perInst(set []map[string]benchResult, n int64) []map[string]benchResult {
	for _, m := range set {
		for k, v := range m {
			v.AllocsPerInst = ptr(n)
			m[k] = v
		}
	}
	return set
}

// merge combines per-round result maps of several names.
func merge(sets ...[]map[string]benchResult) []map[string]benchResult {
	out := make([]map[string]benchResult, len(sets[0]))
	for i := range out {
		out[i] = make(map[string]benchResult)
		for _, s := range sets {
			for k, v := range s[i] {
				out[i][k] = v
			}
		}
	}
	return out
}

func TestGateViolations(t *testing.T) {
	names := []string{"AnnotateStream", "ReplayStream"}
	base := merge(rounds("AnnotateStream", 0, 100, 100, 100, 100, 100), rounds("ReplayStream", 0, 10, 10, 10, 10, 10))

	t.Run("clean", func(t *testing.T) {
		head := merge(rounds("AnnotateStream", 0, 96, 108, 101, 99, 131), rounds("ReplayStream", 0, 10, 9, 11, 10, 10))
		fails, notes := gateViolations(names, base, head)
		if len(fails) != 0 || len(notes) != 2 {
			t.Errorf("expected no failures and two notes, got %v / %v", fails, notes)
		}
	})

	t.Run("nsPerOpRegression", func(t *testing.T) {
		head := merge(rounds("AnnotateStream", 0, 100, 100, 100, 100, 100), rounds("ReplayStream", 0, 20, 19, 21, 12, 20))
		fails, _ := gateViolations(names, base, head)
		if len(fails) != 1 || !strings.Contains(fails[0], "ReplayStream") || !strings.Contains(fails[0], "ratio 2.000") {
			t.Errorf("expected one ReplayStream ratio failure, got %v", fails)
		}
	})

	t.Run("ratioAtBound", func(t *testing.T) {
		// The bound is inclusive: a median of exactly 1.5 passes, and
		// one slow round cannot fail a benchmark on its own.
		at := merge(rounds("AnnotateStream", 0, 150, 150, 150, 150, 150), rounds("ReplayStream", 0, 10, 10, 10, 10, 40))
		if fails, _ := gateViolations(names, base, at); len(fails) != 0 {
			t.Errorf("ratio 1.5 and one 4x round must pass, got %v", fails)
		}
		above := merge(rounds("AnnotateStream", 0, 150.1, 150.1, 150.1, 150, 150), rounds("ReplayStream", 0, 10, 10, 10, 10, 10))
		if fails, _ := gateViolations(names, base, above); len(fails) != 1 || !strings.Contains(fails[0], "AnnotateStream") {
			t.Errorf("median ratio 1.501 must fail AnnotateStream, got %v", fails)
		}
	})

	t.Run("zeroAllocRegressionFlagged", func(t *testing.T) {
		// A zero-alloc base gates on allocations in kind, not degree:
		// 0 -> 1 allocs/op fails even when ns/op is unchanged.
		zero := rounds("SMTSchedule", 0, 100, 100, 100, 100, 100)
		one := rounds("SMTSchedule", 1, 100, 100, 100, 100, 100)
		fails, _ := gateViolations([]string{"SMTSchedule"}, zero, one)
		if len(fails) != 1 || !strings.Contains(fails[0], "SMTSchedule") || !strings.Contains(fails[0], "zero-alloc steady state") {
			t.Errorf("expected one zero-alloc failure, got %v", fails)
		}
		// A base that already allocates is gated on ns/op only.
		three := rounds("SMTSchedule", 3, 100, 100, 100, 100, 100)
		if fails, _ := gateViolations([]string{"SMTSchedule"}, three, one); len(fails) != 0 {
			t.Errorf("a nonzero base must not trip the zero-alloc rule, got %v", fails)
		}
	})

	t.Run("allocsPerInstGated", func(t *testing.T) {
		// A gang benchmark's allocs/op floors one allocation per replayed
		// instruction to 0; its allocs/inst metric does not, and the zero
		// rule reads it on either side that reports it.
		zero := perInst(rounds("GangSweepK16", 0, 100, 100, 100, 100, 100), 0)
		leak := perInst(rounds("GangSweepK16", 0, 100, 100, 100, 100, 100), 1)
		fails, _ := gateViolations([]string{"GangSweepK16"}, zero, leak)
		if len(fails) != 1 || !strings.Contains(fails[0], "GangSweepK16") || !strings.Contains(fails[0], "zero-alloc steady state") {
			t.Errorf("expected one zero-alloc failure from allocs/inst, got %v", fails)
		}
		if fails, _ := gateViolations([]string{"GangSweepK16"}, zero, zero); len(fails) != 0 {
			t.Errorf("zero allocs/inst on both sides must pass, got %v", fails)
		}
		// A base that predates the metric is read by its allocs/op.
		old := rounds("GangSweepK16", 0, 100, 100, 100, 100, 100)
		if fails, _ := gateViolations([]string{"GangSweepK16"}, old, leak); len(fails) != 1 {
			t.Errorf("a zero allocs/op base must gate a head's allocs/inst, got %v", fails)
		}
		if fails, _ := gateViolations([]string{"GangSweepK16"}, old, zero); len(fails) != 0 {
			t.Errorf("a zero allocs/op base and zero allocs/inst head must pass, got %v", fails)
		}
	})

	t.Run("missingFromRunFlagged", func(t *testing.T) {
		// A listed benchmark the working tree no longer reports (renamed
		// or dropped) fails, even in a single round.
		head := merge(rounds("AnnotateStream", 0, 100, 100, 100, 100, 100), rounds("ReplayStream", 0, 10, 10, 10, 10, 10))
		delete(head[3], "ReplayStream")
		fails, _ := gateViolations(names, base, head)
		if len(fails) != 1 || !strings.Contains(fails[0], "ReplayStream") || !strings.Contains(fails[0], "missing from the working tree") {
			t.Errorf("expected one missing-from-working-tree failure for ReplayStream, got %v", fails)
		}
	})

	t.Run("newBenchmarkFlagged", func(t *testing.T) {
		// A listed benchmark the base lacks has nothing to compare
		// against: it is reported as new, and passes.
		head := merge(base, rounds("CycleSimGang", 0, 50, 50, 50, 50, 50))
		fails, notes := gateViolations(append(names, "CycleSimGang"), base, head)
		if len(fails) != 0 || len(notes) != 3 || !strings.Contains(notes[2], "CycleSimGang") || !strings.Contains(notes[2], "new") {
			t.Errorf("expected CycleSimGang noted as new and no failures, got %v / %v", fails, notes)
		}
	})

	t.Run("missingFieldsTolerated", func(t *testing.T) {
		// A base that predates the gated set carries none of its names:
		// every one is new, and the gate passes.
		empty := make([]map[string]benchResult, len(base))
		fails, notes := gateViolations(names, empty, base)
		if len(fails) != 0 || len(notes) != 2 {
			t.Errorf("expected two new-benchmark notes and no failures, got %v / %v", fails, notes)
		}
	})

	t.Run("zeroBaselineFlagged", func(t *testing.T) {
		// A base at 0 ns/op must neither divide its way to a pass nor
		// disable the gate for that benchmark.
		zero := rounds("AnnotateStream", 0, 0, 0, 0, 0, 0)
		for _, head := range [][]map[string]benchResult{rounds("AnnotateStream", 0, 100, 100, 100, 100, 100), zero} {
			fails, _ := gateViolations([]string{"AnnotateStream"}, zero, head)
			if len(fails) != 1 || !strings.Contains(fails[0], "AnnotateStream") {
				t.Errorf("expected one failure for the zero base, got %v", fails)
			}
		}
	})

	t.Run("deterministicOrder", func(t *testing.T) {
		head := merge(rounds("AnnotateStream", 0, 1000, 1000, 1000, 1000, 1000), rounds("ReplayStream", 0, 1000, 1000, 1000, 1000, 1000))
		fails, _ := gateViolations(names, base, head)
		if len(fails) != 2 || !strings.Contains(fails[0], "AnnotateStream") || !strings.Contains(fails[1], "ReplayStream") {
			t.Errorf("expected AnnotateStream,ReplayStream failures in list order, got %v", fails)
		}
	})
}

// helperEnv turns TestCLIHelper into the real command.
const helperEnv = "MLPSIM_BENCH_CLI_HELPER"

// TestComparisonFirstLineNamesHost: -compare's first line says when the
// two reports come from different hosts, naming each differing field,
// and when either report records no host at all.
func TestComparisonFirstLineNamesHost(t *testing.T) {
	oneCPU := host{GOOS: "linux", GOARCH: "amd64", NumCPU: 1, GOMAXPROCS: 1, GoVersion: "go1.24.0", CPUModel: "Xeon"}
	twoCPU := oneCPU
	twoCPU.NumCPU, twoCPU.GOMAXPROCS = 2, 2
	for _, tc := range []struct {
		name       string
		old, cur   *host
		want       string
		wantAbsent string
	}{
		{"same", &oneCPU, &oneCPU, "comparison vs OLD.json (mlpsim-bench/11):", "host"},
		{"different", &oneCPU, &twoCPU, "DIFFERENT HOST (num_cpu 1 -> 2, gomaxprocs 1 -> 2)", "go_version"},
		{"unrecorded", nil, &twoCPU, "records no host", "DIFFERENT"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			printComparison(&out, "OLD.json", report{Schema: "mlpsim-bench/11", Host: tc.old}, report{Host: tc.cur})
			first, _, _ := strings.Cut(out.String(), "\n")
			if !strings.Contains(first, tc.want) || strings.Contains(first, tc.wantAbsent) {
				t.Errorf("first line %q, want it to contain %q and not %q", first, tc.want, tc.wantAbsent)
			}
		})
	}
}

func TestCLIHelper(t *testing.T) {
	if os.Getenv(helperEnv) == "" {
		t.Skip("runs the command for TestCLIRejectsBadFlags")
	}
	os.Args = append([]string{"bench"}, strings.Fields(os.Getenv(helperEnv))...)
	main()
}

// TestCLIRejectsBadFlags runs the command with each bad command line
// and requires exit status 2 and a message naming the problem, before
// any benchmark or sweep starts.
func TestCLIRejectsBadFlags(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ args, wantMsg string }{
		{"-scale bogus", "-scale"},
		{"-scale quick stray", `unexpected argument "stray"`},
		{"-gate-base HEAD -out x.json", "-out does not apply"},
		{"-compare does-not-exist.json", "-compare"},
	} {
		cmd := exec.Command(exe, "-test.run", "^TestCLIHelper$")
		cmd.Env = append(os.Environ(), helperEnv+"="+c.args)
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 2 {
			t.Errorf("bench %s exited %d, want 2:\n%s", c.args, code, out)
		} else if !strings.Contains(string(out), c.wantMsg) {
			t.Errorf("bench %s output does not name %q:\n%s", c.args, c.wantMsg, out)
		}
	}
}
