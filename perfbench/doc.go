// Command perfbench is the repository's benchmark: exhibit sessions
// against an in-process experiment daemon, measured end to end, plus a
// separate traced run that sets every layer against those numbers.
//
// Run it from the repository root; run.sh builds it from the checkout's
// sources under .bench_build and passes its arguments on:
//
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 15 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The lines before it
// print each metric's median, quartiles and sample count, every
// session's numbers, the SHA-256 of every response body of the warm-up
// session, and (traced) the first traced session's span breakdown.
// Simulated statistics are never metrics; the body digests let runs and
// commits compare them exactly. Digests are printed for the warm-up's
// request seed alone because every run with the same --seed asks for
// it, while the number of measured sessions depends on the host's
// speed. The package test (go test in this directory) runs every
// workload at a tiny scale.
//
// # Load
//
// One client drives a closed loop: it sends the next request only after
// reading the previous body. A session requests each exhibit of its
// workload in order, first as format=json, which runs the sweep, then
// as format=csv, which the daemon's result cache answers. seed, warmup
// and measure travel as query parameters; the benchmark's --seed reaches
// the program only that way. Every session starts a fresh daemon stack
// (server.New behind a loopback listener, default options, a new spill
// directory through atrace.Cache.SetDir, as -serve -trace-cache-dir
// deploys it) and removes it afterwards. A run starts in a fresh
// process, performs one unmeasured warm-up session, then runs sessions
// until --seconds have passed and reports medians over them. Session i
// asks for request seed --seed*256+i: one seed fixes the traces and the
// fleet's point placement, so a run's median covers many of both.
//
// Each exhibit is a multi-second sweep at the daemon's default scale
// (2M warm-up and 8M measured instructions per trace), so every request
// asks for 50k warm-up and 200k measured instructions (100k on
// cyclesim-validate), which keeps a session near a second and a run at
// ten or more sessions. That is 40 times below the default scale and 5
// times below experiments.Quick. Costs paid per point or per request
// (HTTP, peer round trips, leases, the planner) weigh more against
// stepping here than at the default scale, so the layer shares a traced
// run reports hold for this scale.
//
// # Workloads
//
//	cold-sweep         figure4 -> figure5 -> figure6 on a fresh daemon and
//	                   an empty spill dir: the cold headline sweep. Trace
//	                   builds and the SoA gang stepper do most of the work;
//	                   figure5 re-steps all 75 figure4 points, so point
//	                   reuse shows here.
//	warm-restart       set-up builds the session's traces into the spill
//	                   dir; a fresh daemon over it serves table5 -> figure8
//	                   -> figure10 -> ext-mshr. Spill reads replace builds,
//	                   and in-order, runahead and finite-MSHR configs push
//	                   the work onto the scalar engine. 9 of its 81 points
//	                   repeat across exhibits.
//	fleet-figure4      figure4 through a coordinator-only observer (its
//	                   PeerID is on nobody's ring) in front of two executor
//	                   replicas with one sweep worker each, sharing one
//	                   spill dir under build leases. The only workload on
//	                   the peer path and on leases; one exhibit, one batch.
//	cyclesim-validate  table3 -> table4, the paper's validation pair. The
//	                   cycle-level simulator does most of the work, and its
//	                   MLPsim points are looped by hand outside gangs.
//
// # End-to-end metrics
//
// Host time, reported for every workload with --trace 0, each the median
// over the run's measured sessions.
//
//	name              unit  what
//	wall_s            s     first request sent to last body read
//	first_response_s  s     latency of the session's first json response
//	cpu_s             s     process user+sys CPU over the same window; every
//	                        daemon runs in process, so it covers the fleet
//	heap_peak_mb      MiB   peak Go heap (live plus unswept objects),
//	                        sampled every millisecond in the window
//	setup_s           s     new spill dir, the warm-restart spill build, and
//	                        the stack's start until every /healthz answers
//
// error_rate, failed requests plus failed output checks over attempts,
// is the result line's failed/attempted and is printed beside the
// metrics; it is not a metric of its own because it is 0 on a correct
// run. A request fails on a non-200 status, a body that does not parse,
// a json or csv body with no rows, or a csv whose row count differs from
// its json. Each session adds one attempt per check that applies to it:
// warm-restart must build no trace (atrace.builds = 0); fleet-figure4
// must fetch every figure4 point from peers with no fetch error, since a
// silent local fallback measures solo, not the fleet; a traced session
// must not miss a trace key its pre-build did not cover, and its probes
// (below) must succeed. A session whose request seed repeats an earlier
// one (the first measured session repeats the warm-up's) must return
// identical bodies.
//
// # Per-layer metrics
//
// Reported with --trace 1, each the median over the run's traced
// sessions. The moves column names the end-to-end metric, and the
// workload, the layer metric should move; "not" marks where the
// prediction is no change.
//
//	name                         unit            layer        moves
//	workload.ns_per_inst         ns/inst         workload     first_response_s, cpu_s on cold-sweep, fleet-figure4; not warm-restart
//	annotate.ns_per_inst         ns/inst         annotate     as workload (annotator self time: drain minus generator)
//	annotate.insts               count           annotate     as workload (instructions the builds of atrace.build_s annotated)
//	atrace.build_s               s               atrace       first_response_s on cold-sweep, fleet-figure4; setup_s on warm-restart
//	atrace.builds                count           atrace       as atrace.build_s (GetTrace misses that built, in the window: 0 on warm-restart)
//	atrace.load_s                s               atrace       first_response_s on warm-restart (a restart mapping the session's spills)
//	atrace.disk_hits             count           atrace       as atrace.load_s (misses served by mapping a spill)
//	atrace.hit_ratio             ratio           atrace       cpu_s on every workload
//	atrace.replay_ns_per_inst    ns/inst         atrace       wall_s on warm-restart (Trace.Source drain)
//	atrace.spill_mb              MiB             atrace       setup_s on warm-restart
//	atrace.leases_taken          count           atrace       cpu_s on fleet-figure4
//	core.soa_insts               count           core         wall_s, cpu_s on cold-sweep (SoA)
//	core.scalar_insts            count           core         wall_s, cpu_s on warm-restart (scalar)
//	core.gangs                   count           core         wall_s, cpu_s on cold-sweep, warm-restart
//	core.solo_points             count           core         wall_s, cpu_s on cold-sweep, warm-restart
//	core.ns_per_config_inst      ns/config-inst  core         wall_s, cpu_s on cold-sweep, warm-restart
//	cyclesim.ns_per_inst         ns/inst         cyclesim     wall_s on cyclesim-validate (Sim.Run over one session trace)
//	experiments.run_s            s               experiments  wall_s (json miss minus csv hit, summed over exhibits)
//	experiments.points_run       count           experiments  wall_s on cold-sweep, warm-restart; not fleet-figure4
//	experiments.parallel_eff     ratio           experiments  wall_s on cold-sweep, cyclesim-validate
//	server.hit_ms                ms              server       wall_s slightly, every workload (median csv re-fetch)
//	server.runs                  count           server       wall_s, every workload (sweeps executed)
//	server.result_hits           count           server       wall_s, every workload
//	server.peer_points_fetched   count           server       wall_s, cpu_s on fleet-figure4
//	server.peer_points_served    count           server       wall_s, cpu_s on fleet-figure4
//	server.peer_fetch_errors     count           server       wall_s, cpu_s on fleet-figure4
//	server.peer_exec_points      count           server       wall_s, cpu_s on fleet-figure4 (points replicas stepped)
//	server.peer_serve_s          s               server       wall_s, cpu_s on fleet-figure4 (replica-side spans; a probe when solo)
//	unattributed_s               s               (total)      traced session wall minus its top-level spans
//	tracing_overhead_s           s               (total)      traced session wall minus the paired untraced one
//
// Every time metric is measured on every workload: where a workload
// leaves a layer idle, an after-window probe of the same entry point
// stands in, so no time reads a constant 0.
//
//   - atrace.build_s sums the GetTrace builds of the session's keys: the
//     window's pre-build, or on warm-restart the set-up's spill build.
//   - atrace.load_s is a fresh atrace.Cache mapping the session's spill
//     directory after the window: what a restarted daemon pays.
//   - core.ns_per_config_inst divides experiments.run_s by the
//     config·insts the gang counters saw (SoA plus scalar instructions
//     plus solo points times measure). Where no sweep goes through the
//     gang planner (cyclesim-validate) it is core.Engine.Run with the
//     default config over the session's first trace.
//   - server.peer_serve_s sums a fleet's replica-side spans; a solo
//     daemon instead serves one /v1/peer/points call for figure4's point
//     0 at the session's key.
//
// Counters are summed over every daemon of the stack;
// experiments.points_run on fleet-figure4 is the replicas'.
//
// # Traced run
//
// --trace 1 never reports end-to-end numbers. It alternates an untraced
// session with a traced one on the same request seed, and after each
// pair calibrates the generator, the annotator and the cycle simulator
// on that seed's trace keys, outside both windows. The traced session
// does each layer's work through the layer's public entry point before
// the daemon needs it, recording a span around every call (name, start,
// end, parent, session id):
//
//   - atrace.build or atrace.load: atrace.Cache.GetTrace on the daemon's
//     own cache (each fleet replica's in turn) for every key the session
//     touches;
//   - experiments.run: each json request, now served from hit traces, so
//     it times the planner and the engines;
//   - server.hit: each csv re-fetch, which times HTTP, the result cache
//     and render;
//   - server.peer_points: every /v1/peer/points call a fleet replica
//     serves, as a child of the observer request that caused it.
//
// On warm-restart the set-up's spill builds are spanned too, before the
// window. After the window come the probes above and a drain of each
// session trace's Source (the replay rate). unattributed_s counts only
// top-level spans inside the window. Counters come from Cache.Stats,
// Setup.GangStats and each daemon's /metrics. Spans stay in memory and
// are written as JSON to --spans at exit.
//
// # Not measured
//
// internal/smt (scheduled SMT), partial segment eviction, result-cache
// eviction and open-loop arrivals: no workload exercises them.
package main
