package cyclesim

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
)

// blockInsts is how many instructions the gang decodes and binds before
// it steps the pipelines through them.
const blockInsts = 1024

// window is the gang's shared decode: a ring of uops keyed by absolute
// stream position, holding [lowest live fetch position, end). Each
// instruction is decoded and bound here once, whatever the gang's size.
//
// Binding is what a lone simulator's dispatch stage did: register
// producers and the last store to each 8-byte word. It comes from
// core's Binder, the epoch-model gang's own, so the two simulators bind
// every instruction identically. Both fetch and dispatch run in program
// order over the same stream, so a binding made at decode is the
// binding dispatch would have made.
type window struct {
	binder *core.Binder

	ops  []uop
	mask int64
	end  int64 // instructions decoded
	// limit is the most any pipeline fetches: the source is never read
	// past it, exactly as far as the hungriest lone simulator would.
	limit int64
	eof   bool // the source ended at end
}

// decode appends the next block of the stream. The pipelines pause
// before fetching past end, at most FetchWidth short of it, so a ring
// of blockInsts + FetchWidth entries never overwrites a position a live
// pipeline still has to fetch.
func (w *window) decode() {
	stop := min(w.end+blockInsts, w.limit)
	var ln core.Links
	for w.end < stop {
		in, ok := w.binder.Next(&ln)
		if !ok {
			w.eof = true
			return
		}
		w.ops[w.end&w.mask] = bind(in, &ln)
		w.end++
	}
}

// bind builds an instruction's uop: its bound producers and the class
// and event flags the pipeline tests.
func bind(in *annotate.Inst, ln *core.Links) uop {
	u := uop{prod1: ln.Prod1, prod2: ln.Prod2, memProd: ln.MemProd, doneAt: notIssued}
	cls := in.Class
	if cls.IsMemRead() && cls != isa.Prefetch {
		u.flags |= uLoad
		if in.DMiss {
			u.flags |= uMiss
		}
	}
	if cls.IsMemWrite() {
		u.flags |= uStore
	}
	if cls == isa.Load || cls.IsMemWrite() {
		u.flags |= uMem
	}
	switch {
	case cls == isa.Prefetch:
		u.flags |= uPrefetch
		if in.PMiss {
			u.flags |= uMiss
		}
	case cls == isa.Branch:
		u.flags |= uBranch
		if in.Mispred {
			u.flags |= uMispred
		}
	case cls.IsSerializing():
		u.flags |= uSerial
	}
	if in.IMiss {
		u.flags |= uIMiss
	}
	return u
}

// gang runs one member per config over one decode of a stream: a timer
// for each config with unlimited MSHRs, a stepping pipeline for each
// config with a finite MSHR file.
type gang struct {
	win     window
	timers  []timer
	pipes   []pipeline
	results []Result
	live    int
}

// newGang validates every config (panicking on an invalid one, like New)
// and allocates all the run's state: the steady state allocates nothing.
// stepAll puts every config on the stepping pipeline, the timers' oracle.
func newGang(src core.AnnotatedSource, cfgs []Config, stepAll bool) *gang {
	g := &gang{
		timers:  make([]timer, 0, len(cfgs)),
		pipes:   make([]pipeline, 0, len(cfgs)),
		results: make([]Result, len(cfgs)),
		live:    len(cfgs),
	}
	maxFetch := 0
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
		if cfg.MSHRs > 0 || stepAll {
			g.pipes = append(g.pipes, newPipeline(cfg, i))
		} else {
			g.timers = append(g.timers, newTimer(cfg, i))
		}
		maxFetch = max(maxFetch, cfg.FetchWidth)
		g.win.limit = max(g.win.limit, instLimit(cfg))
	}
	g.win.binder = core.NewBinder(src, g.win.limit)
	n := ringCap(blockInsts + maxFetch)
	g.win.ops = make([]uop, n)
	g.win.mask = int64(n) - 1
	return g
}

// run runs every member to completion and returns the results in config
// order. Each round decodes one block; every live timer then times the
// whole block, and every live pipeline steps until it finishes or pauses
// at the block's end, trailing the decoder by less than one fetch group.
// Members never share mutable state.
func (g *gang) run() []Result {
	for g.live > 0 {
		g.win.decode()
		for i := range g.timers {
			t := &g.timers[i]
			if !t.done && t.advance(&g.win) {
				t.done = true
				g.results[t.slot] = t.result()
				g.live--
			}
		}
		for i := range g.pipes {
			p := &g.pipes[i]
			if !p.done && p.advance(&g.win) {
				p.done = true
				g.results[p.slot] = p.result()
				g.live--
			}
		}
	}
	return g.results
}

// RunGang runs one cycle-level simulation per config over a single
// decode of src and returns their results in config order, each
// bit-identical to New(src', cfg).Run() over its own copy of the stream.
// Configs may differ in every field, MaxInstructions included. It panics
// on an invalid config.
func RunGang(src core.AnnotatedSource, cfgs []Config) []Result {
	return newGang(src, cfgs, false).run()
}
