package cyclesim

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/core"
	"mlpsim/internal/isa"
)

// blockInsts is how many instructions the gang decodes and binds before
// it steps the pipelines through them.
const blockInsts = 1024

// inPlaceSource is the optional fetch fast path (mirroring the core
// engine): sources that can decode directly into a caller-provided Inst
// (e.g. atrace.Replay) skip the by-value copies of Next.
type inPlaceSource interface {
	NextInto(*annotate.Inst) bool
}

// window is the gang's shared decode: a ring of uops keyed by absolute
// stream position, holding [lowest live fetch position, end). Each
// instruction is decoded and bound here once, whatever the gang's size.
//
// Binding is what a lone simulator's dispatch stage did: register
// producers and the last store to each 8-byte word (in a
// core.StoreTable, with its clear-at-64K rule). Both fetch and dispatch
// run in program order over the same stream, so a binding made at decode
// is the binding dispatch would have made.
type window struct {
	src     core.AnnotatedSource
	srcInto inPlaceSource
	// scratch is the decode target. It lives on the window so the
	// pointer handed to the source does not escape per instruction.
	scratch annotate.Inst

	ops  []uop
	mask int64
	end  int64 // instructions decoded
	// limit is the most any pipeline fetches: the source is never read
	// past it, exactly as far as the hungriest lone simulator would.
	limit int64
	eof   bool // the source ended at end

	producers [isa.NumRegs]int64
	lastStore *core.StoreTable
}

// decode appends the next block of the stream. The pipelines pause
// before fetching past end, at most FetchWidth short of it, so a ring
// of blockInsts + FetchWidth entries never overwrites a position a live
// pipeline still has to fetch.
func (w *window) decode() {
	stop := w.end + blockInsts
	if stop > w.limit {
		stop = w.limit
	}
	for w.end < stop {
		in := &w.scratch
		var ok bool
		if w.srcInto != nil {
			ok = w.srcInto.NextInto(in)
		} else {
			var ai annotate.Inst
			if ai, ok = w.src.Next(); ok {
				*in = ai
			}
		}
		if !ok {
			w.eof = true
			return
		}
		w.ops[w.end&w.mask] = w.bind(in)
		w.end++
	}
}

// bind builds the uop of the instruction at position w.end.
func (w *window) bind(in *annotate.Inst) uop {
	j := w.end
	u := uop{prod1: -1, prod2: -1, memProd: -1, doneAt: notIssued}
	if in.Src1 != isa.NoReg && in.Src1 != isa.RegZero {
		u.prod1 = w.producers[in.Src1]
	}
	if in.Src2 != isa.NoReg && in.Src2 != isa.RegZero {
		u.prod2 = w.producers[in.Src2]
	}
	cls := in.Class
	if cls.IsMemRead() && cls != isa.Prefetch {
		u.flags |= uLoad
		if in.DMiss {
			u.flags |= uMiss
		}
		if p, ok := w.lastStore.Get(in.EA >> 3); ok {
			u.memProd = p
		}
	}
	if cls.IsMemWrite() {
		u.flags |= uStore
		w.lastStore.Put(in.EA>>3, j)
	}
	if in.HasDst() {
		w.producers[in.Dst] = j
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

// gang steps one pipeline per config over one decode of a stream.
type gang struct {
	win     window
	pipes   []pipeline
	results []Result
	live    int
}

// newGang validates every config (panicking on an invalid one, like New)
// and allocates all the run's state: the steady state allocates nothing.
func newGang(src core.AnnotatedSource, cfgs []Config) *gang {
	g := &gang{
		win:     window{src: src, lastStore: core.NewStoreTable()},
		pipes:   make([]pipeline, len(cfgs)),
		results: make([]Result, len(cfgs)),
		live:    len(cfgs),
	}
	g.win.srcInto, _ = src.(inPlaceSource)
	for i := range g.win.producers {
		g.win.producers[i] = -1
	}
	maxFetch := 0
	for i, cfg := range cfgs {
		g.pipes[i] = newPipeline(cfg)
		if cfg.FetchWidth > maxFetch {
			maxFetch = cfg.FetchWidth
		}
		if g.pipes[i].limit > g.win.limit {
			g.win.limit = g.pipes[i].limit
		}
	}
	n := ringCap(blockInsts + maxFetch)
	g.win.ops = make([]uop, n)
	g.win.mask = int64(n) - 1
	return g
}

// run steps every pipeline to completion and returns the results in
// config order. Each round decodes one block and then advances every
// live pipeline until it finishes or pauses at the block's end, so the
// pipelines trail the decoder by less than one fetch group and never
// share mutable state.
func (g *gang) run() []Result {
	for g.live > 0 {
		g.win.decode()
		for i := range g.pipes {
			p := &g.pipes[i]
			if !p.done && p.advance(&g.win) {
				p.done = true
				g.results[i] = p.result()
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
	return newGang(src, cfgs).run()
}
