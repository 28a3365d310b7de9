// Command experiments regenerates the paper's tables and figures.
//
// Examples:
//
//	experiments                 # everything, paper order
//	experiments -only table3    # one exhibit
//	experiments -list           # available exhibits
//	experiments -warmup 5000000 -measure 20000000   # bigger runs
//	experiments -only figure4 -cpuprofile cpu.prof  # profile a sweep
//	experiments -trace-cache-dir /tmp/atrace        # reuse annotations across invocations
//	experiments -serve 127.0.0.1:8080               # long-lived HTTP daemon
package main

import (
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mlpsim/internal/atrace"
	"mlpsim/internal/experiments"
	"mlpsim/internal/server"
)

func main() {
	var (
		only         = flag.String("only", "", "run a single exhibit (e.g. table3, figure8)")
		list         = flag.Bool("list", false, "list available exhibits")
		seed         = flag.Int64("seed", 1, "workload generation seed")
		warmup       = flag.Int64("warmup", 2_000_000, "warm-up instructions per run")
		measure      = flag.Int64("measure", 8_000_000, "measured instructions per run")
		par          = flag.Int("parallel", 0, "concurrent simulator runs (0 = GOMAXPROCS)")
		gang         = flag.Int("gang", 0, "gang size: engines stepped together over one annotated stream (0 = auto, 1 = one config per gang, N = cap)")
		csvDir       = flag.String("csv", "", "also write each exhibit's rows as CSV into this directory")
		jsonDir      = flag.String("json", "", "also write each exhibit's rows as JSON into this directory")
		serveAddr    = flag.String("serve", "", "serve exhibits over HTTP on this address instead of running once (e.g. 127.0.0.1:8080)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "with -serve: how long SIGTERM waits for in-flight requests")
		peerID       = flag.String("peer-id", "", "this replica's stable identity: hash-ring membership with -peers, build-lease ownership with -trace-cache-dir")
		peersFlag    = flag.String("peers", "", "comma-separated fleet list id=url,... naming every replica (this one included); requires -serve and -peer-id")
		leaseTTL     = flag.Duration("lease-ttl", atrace.DefaultLeaseTTL, "time-to-live of the per-trace build leases in -trace-cache-dir: a builder that dies holding one blocks that trace for at most this long")
		cacheDir     = flag.String("trace-cache-dir", "", "spill annotated-trace cache entries to this directory (shared across invocations and processes)")
		cacheBytes   = flag.Int64("trace-cache-bytes", 0, "byte cap for -trace-cache-dir; least-recently-used spills are evicted (0 = default cap)")
		segInsts     = flag.Int64("trace-segment-insts", 0, "capture annotated traces as N-instruction segments built by parallel pipelines (0 = one segment)")
		segWorkers   = flag.Int("trace-capture-workers", 0, "parallel capture workers with -trace-segment-insts (0 = GOMAXPROCS)")
		cpuProf      = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if err := validateFlags(*warmup, *measure, *par, *gang, *segInsts, *segWorkers, *cacheBytes); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	fleet, err := validatePeerFlags(*peerID, *peersFlag, *leaseTTL, *serveAddr != "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-10s %s\n", r.ID, r.Title)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	setup := experiments.Default(*seed)
	setup.Warmup = *warmup
	setup.Measure = *measure
	setup.Parallelism = *par
	setup.GangSize = *gang
	// Exhibits share sweep points (figure5 is figure4's sweep); one memo
	// per invocation runs each point once.
	setup.Memo = experiments.NewPointMemo()
	if *cacheDir != "" {
		setup.Cache.SetDir(*cacheDir)
		if *cacheBytes > 0 {
			setup.Cache.SetDiskCapBytes(*cacheBytes)
		}
		// Builders of one trace coordinate through expiring lease files,
		// so processes on one host or on several sharing the directory
		// over a network filesystem build each trace once, and a
		// SIGKILL'd builder's claim expires instead of wedging the key.
		// A replica's -peer-id names its leases; without one the cache
		// derives a unique owner.
		setup.Cache.SetLease(*peerID, *leaseTTL)
	}
	if *segInsts > 0 {
		setup.Cache.SetSegments(*segInsts, *segWorkers)
	}

	if *serveAddr != "" {
		if err := serve(*serveAddr, setup, *drainTimeout, *peerID, fleet); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	runners := experiments.All()
	if *only != "" {
		r := experiments.Find(*only)
		if r == nil {
			fmt.Fprintf(os.Stderr, "experiments: unknown exhibit %q (use -list)\n", *only)
			os.Exit(1)
		}
		runners = []experiments.Runner{*r}
	}

	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
	}
	for _, r := range runners {
		start := time.Now()
		out := r.Run(setup)
		fmt.Println(out)
		fmt.Printf("[%s completed in %s]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeRows(filepath.Join(*csvDir, r.ID+".csv"), out, experiments.WriteCSV); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: csv:", err)
			}
		}
		if *jsonDir != "" {
			if err := writeRows(filepath.Join(*jsonDir, r.ID+".json"), out, experiments.WriteJSON); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: json:", err)
			}
		}
	}
}

// validateFlags rejects out-of-range numeric flag values with a clear
// error instead of silently reinterpreting them (a negative -gang or
// -parallel would fall through to the auto behaviour of 0) or failing
// later (a non-positive -measure prints all-zero exhibits; a negative
// run length panics in the trace capture).
func validateFlags(warmup, measure int64, par, gang int, segInsts int64, segWorkers int, cacheBytes int64) error {
	if warmup < 0 {
		return fmt.Errorf("-warmup %d: must be >= 0", warmup)
	}
	if measure <= 0 {
		return fmt.Errorf("-measure %d: must be > 0", measure)
	}
	if par < 0 {
		return fmt.Errorf("-parallel %d: must be >= 0 (0 = GOMAXPROCS)", par)
	}
	if gang < 0 {
		return fmt.Errorf("-gang %d: must be >= 0 (0 = auto, 1 = one config per gang, N = cap)", gang)
	}
	if segInsts < 0 {
		return fmt.Errorf("-trace-segment-insts %d: must be >= 0 (0 = one segment)", segInsts)
	}
	if segWorkers < 0 {
		return fmt.Errorf("-trace-capture-workers %d: must be >= 0 (0 = GOMAXPROCS)", segWorkers)
	}
	if cacheBytes < 0 {
		return fmt.Errorf("-trace-cache-bytes %d: must be >= 0 (0 = default cap)", cacheBytes)
	}
	return nil
}

// validatePeerFlags checks the peer-fleet flags and parses -peers into
// the fleet list. The rules: -lease-ttl must be positive (it defaults
// sanely, so a non-positive value is always an explicit mistake), and a
// fleet needs both an identity for this replica and a daemon to answer
// peer requests with.
func validatePeerFlags(peerID, peers string, leaseTTL time.Duration, serving bool) ([]server.Peer, error) {
	if leaseTTL <= 0 {
		return nil, fmt.Errorf("-lease-ttl %s: must be > 0", leaseTTL)
	}
	if peers == "" {
		return nil, nil
	}
	if peerID == "" {
		return nil, fmt.Errorf("-peers requires -peer-id (this replica's identity on the hash ring)")
	}
	if !serving {
		return nil, fmt.Errorf("-peers requires -serve (peers fetch shards from this replica over HTTP)")
	}
	return parsePeers(peers)
}

// parsePeers parses "id=url,id=url,..." into the fleet list, rejecting
// malformed URLs, blank or duplicate ids, and entries without an "=".
func parsePeers(spec string) ([]server.Peer, error) {
	var fleet []server.Peer
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, rawURL, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("-peers: entry %q is not id=url", entry)
		}
		if id = strings.TrimSpace(id); id == "" {
			return nil, fmt.Errorf("-peers: entry %q has a blank id", entry)
		}
		if seen[id] {
			return nil, fmt.Errorf("-peers: duplicate id %q", id)
		}
		seen[id] = true
		u, err := url.Parse(strings.TrimSpace(rawURL))
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("-peers: %s has a malformed URL %q (want http://host:port)", id, rawURL)
		}
		fleet = append(fleet, server.Peer{ID: id, URL: u.String()})
	}
	if len(fleet) == 0 {
		return nil, fmt.Errorf("-peers %q names no replicas", spec)
	}
	return fleet, nil
}

// writeRows stores one exhibit's rows with the given encoder.
func writeRows(path string, exhibit interface{}, write func(io.Writer, interface{}) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f, exhibit)
}
