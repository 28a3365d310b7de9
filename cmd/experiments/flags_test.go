package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestValidateFlags is the table-driven unit check of the numeric flag
// guards.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name            string
		warmup, measure int64
		par, gang       int
		segInsts        int64
		segWorkers      int
		cacheBytes      int64
		wantMsg         string // empty = accepted
	}{
		{name: "all-zero", measure: 1},
		{name: "all-positive", warmup: 1000, measure: 5000, par: 2, gang: 4, segInsts: 100_000, segWorkers: 2, cacheBytes: 1 << 20},
		{name: "negative-gang", measure: 1, gang: -3, wantMsg: "-gang -3"},
		{name: "negative-seg-insts", measure: 1, segInsts: -1, wantMsg: "-trace-segment-insts -1"},
		{name: "negative-workers", measure: 1, segWorkers: -2, wantMsg: "-trace-capture-workers -2"},
		{name: "negative-cache-bytes", measure: 1, cacheBytes: -5, wantMsg: "-trace-cache-bytes -5"},
		{name: "zero-measure", warmup: 1000, wantMsg: "-measure 0"},
		{name: "negative-measure", measure: -5, wantMsg: "-measure -5"},
		{name: "negative-warmup", warmup: -50, measure: 1, wantMsg: "-warmup -50"},
		{name: "negative-parallel", measure: 1, par: -3, wantMsg: "-parallel -3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.warmup, c.measure, c.par, c.gang, c.segInsts, c.segWorkers, c.cacheBytes)
			if c.wantMsg == "" {
				if err != nil {
					t.Fatalf("rejected valid flags: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("accepted invalid flags")
			}
			if !strings.Contains(err.Error(), c.wantMsg) {
				t.Fatalf("error %q does not name the offending flag (%q)", err, c.wantMsg)
			}
		})
	}
}

// TestValidatePeerFlags covers the peer-fleet flag guards: lease TTLs,
// fleet membership requirements, and the -peers grammar.
func TestValidatePeerFlags(t *testing.T) {
	cases := []struct {
		name    string
		peerID  string
		peers   string
		ttl     time.Duration
		serving bool
		wantN   int
		wantMsg string // empty = accepted
	}{
		{name: "solo", ttl: 30 * time.Second},
		{name: "lease-only", peerID: "a", ttl: time.Second},
		{name: "fleet", peerID: "a", peers: "a=http://h1:8080,b=https://h2:8080", ttl: time.Second, serving: true, wantN: 2},
		{name: "observer-not-in-fleet", peerID: "obs", peers: "a=http://h1:1,b=http://h2:2", ttl: time.Second, serving: true, wantN: 2},
		{name: "zero-ttl", ttl: 0, wantMsg: "-lease-ttl 0s"},
		{name: "negative-ttl", ttl: -time.Second, wantMsg: "-lease-ttl -1s"},
		{name: "peers-without-id", peers: "a=http://h1:1,b=http://h2:2", ttl: time.Second, serving: true, wantMsg: "-peers requires -peer-id"},
		{name: "peers-without-serve", peerID: "a", peers: "a=http://h1:1,b=http://h2:2", ttl: time.Second, wantMsg: "-peers requires -serve"},
		{name: "not-id-url", peerID: "a", peers: "justanid", ttl: time.Second, serving: true, wantMsg: "not id=url"},
		{name: "blank-id", peerID: "a", peers: "=http://h1:1", ttl: time.Second, serving: true, wantMsg: "blank id"},
		{name: "duplicate-id", peerID: "a", peers: "a=http://h1:1,a=http://h2:2", ttl: time.Second, serving: true, wantMsg: `duplicate id "a"`},
		{name: "relative-url", peerID: "a", peers: "a=h1:8080x", ttl: time.Second, serving: true, wantMsg: "malformed URL"},
		{name: "bad-scheme", peerID: "a", peers: "a=ftp://h1:21", ttl: time.Second, serving: true, wantMsg: "malformed URL"},
		{name: "schemeless", peerID: "a", peers: "a=//h1:8080", ttl: time.Second, serving: true, wantMsg: "malformed URL"},
		{name: "empty-list", peerID: "a", peers: ", ,", ttl: time.Second, serving: true, wantMsg: "names no replicas"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fleet, err := validatePeerFlags(c.peerID, c.peers, c.ttl, c.serving)
			if c.wantMsg == "" {
				if err != nil {
					t.Fatalf("rejected valid flags: %v", err)
				}
				if len(fleet) != c.wantN {
					t.Fatalf("fleet %v has %d members, want %d", fleet, len(fleet), c.wantN)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted invalid flags (fleet %v)", fleet)
			}
			if !strings.Contains(err.Error(), c.wantMsg) {
				t.Fatalf("error %q does not contain %q", err, c.wantMsg)
			}
		})
	}
}

// TestCLIRejectsNegativeFlags runs the real CLI (via the helper
// subprocess) with each invalid flag and asserts exit status 2 plus a
// message naming the flag. -list keeps a wrongly-accepted invocation
// cheap: before the guards existed, "-gang -3 -list" printed the exhibit
// list and exited 0.
func TestCLIRejectsNegativeFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cases := []struct{ args, wantMsg string }{
		{"-gang -3 -list", "-gang -3"},
		{"-measure 0 -list", "-measure 0"},
		{"-trace-segment-insts -1 -list", "-trace-segment-insts -1"},
		{"-trace-capture-workers -2 -list", "-trace-capture-workers -2"},
		{"-trace-cache-bytes -5 -list", "-trace-cache-bytes -5"},
		{"-lease-ttl -1s -list", "-lease-ttl -1s"},
		{"-peers a=http://h1:1,b=http://h2:2 -list", "-peers requires -peer-id"},
		{"-peer-id a -peers a=notaurl,b=http://h2:2 -serve 127.0.0.1:0 -list", "malformed URL"},
		{"-peer-id a -peers a=http://h1:1,a=http://h2:2 -serve 127.0.0.1:0 -list", "duplicate id"},
	}
	for _, c := range cases {
		t.Run(strings.Fields(c.args)[0], func(t *testing.T) {
			cmd := exec.Command(exe, "-test.run", "^TestCLIHelper$", "-test.v")
			cmd.Env = append(os.Environ(), cliHelperEnv+"=1", "MLPSIM_CLI_ARGS="+c.args)
			out, err := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); err == nil || code != 2 {
				t.Fatalf("CLI %q exited %d, want 2:\n%s", c.args, code, out)
			}
			if !strings.Contains(string(out), c.wantMsg) {
				t.Fatalf("CLI %q output does not name the offending flag %q:\n%s", c.args, c.wantMsg, out)
			}
		})
	}
}
