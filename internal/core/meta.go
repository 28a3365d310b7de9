package core

import (
	"mlpsim/internal/annotate"
	"mlpsim/internal/isa"
	"mlpsim/internal/storeset"
	"mlpsim/internal/vpred"
)

// metaWord is the packed, config-independent summary of one decoded
// instruction: the annotation flags plus the class predicates the hot
// loops test. The gang ring computes it once per dynamic instruction at
// bind time; the stepper then runs entirely on meta words and links,
// never touching the 100-odd-byte annotate.Inst again. Per-engine
// rewrites (PerfectIFetch, PerfectBP, runahead) become a single and-not
// with the engine's metaClear mask, so the ring can stay read-only and
// shared.
type metaWord uint32

const (
	metaDMiss metaWord = 1 << iota
	metaPMiss
	metaIMiss
	metaSMiss
	metaMispred
	// metaBranch through metaMemWrite are the class predicates the epoch
	// model branches on, precomputed so the stepper never switches on
	// isa.Class.
	metaBranch
	metaSerializing
	// metaLoadLike: IsMemRead and not a prefetch — the instructions that
	// wait on store forwarding and the load-ordering policies.
	metaLoadLike
	metaMemWrite
	// metaMiss is DMiss|PMiss folded into one bit: "executing this slot
	// issues an off-chip data access".
	metaMiss
	// metaVPCorrect and metaVPWrong carry a missing load's value-
	// prediction outcome; metaDepViolation and metaDepFalse a load's
	// store-set outcome. Only engines configured for value prediction or
	// store-set disambiguation read them.
	metaVPCorrect
	metaVPWrong
	metaDepViolation
	metaDepFalse
)

// metaOffChip collects the bits of an instruction that goes off chip: a
// data or prefetch miss, an instruction-fetch miss or a store miss. The
// out-of-order stepper crosses the stretches between them in one step.
const metaOffChip = metaMiss | metaIMiss | metaSMiss

// packMeta summarizes a decoded, bound instruction. The flag bits carry
// the raw annotation; engines with perfect features clear bits via
// metaClear at read time, mirroring the pullSource rewrites.
func packMeta(ai *annotate.Inst) metaWord {
	var m metaWord
	if ai.DMiss {
		m |= metaDMiss | metaMiss
		switch ai.VPOutcome {
		case vpred.Correct:
			m |= metaVPCorrect
		case vpred.Wrong:
			m |= metaVPWrong
		}
	}
	if ai.PMiss {
		m |= metaPMiss | metaMiss
	}
	if ai.IMiss {
		m |= metaIMiss
	}
	if ai.SMiss {
		m |= metaSMiss
	}
	if ai.Mispred {
		m |= metaMispred
	}
	cls := ai.Class
	if cls == isa.Branch {
		m |= metaBranch
	}
	if cls.IsSerializing() {
		m |= metaSerializing
	}
	if cls.IsMemRead() && cls != isa.Prefetch {
		m |= metaLoadLike
	}
	if cls.IsMemWrite() {
		m |= metaMemWrite
	}
	switch ai.Dep {
	case storeset.DepViolation:
		m |= metaDepViolation
	case storeset.DepFalse:
		m |= metaDepFalse
	}
	return m
}

// metaClearFor returns the per-engine mask of bits a configuration
// erases from every fetched instruction: the flags its perfect features
// remove, and under out-of-order runahead the serializing and load-like
// class bits, whose every policy (pipeline drains, store forwarding, load
// ordering, non-oracle disambiguation) runahead lifts. The in-order
// disciplines ignore Runahead.
func metaClearFor(cfg Config) metaWord {
	var clear metaWord
	if cfg.PerfectIFetch {
		clear |= metaIMiss
	}
	if cfg.PerfectBP {
		clear |= metaMispred
	}
	if cfg.Runahead && cfg.Mode == OutOfOrder {
		clear |= metaSerializing | metaLoadLike
	}
	return clear
}
