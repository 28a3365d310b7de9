package core

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/isa"
	"mlpsim/internal/storeset"
	"mlpsim/internal/vpred"
)

// The fuzz input is a header byte (1 + b%4 configs), fuzzConfigBytes
// bytes per config, then fuzzInstBytes bytes per instruction. Every byte
// string decodes to valid configs and a well-formed stream: short input
// reads as zeros and out-of-range fields wrap.
const (
	fuzzConfigBytes = 6
	fuzzInstBytes   = 3
	fuzzMaxInsts    = 256
)

var (
	fuzzWindows      = [8]int{1, 2, 4, 16, 32, 64, 128, 256}
	fuzzFetchBuffers = [4]int{0, 1, 4, 32}
)

// decodeFuzzConfig reads one config:
//
//	b0: window size (bits 0-2), ROB multiplier 1/2/4/8 (bits 3-4), issue A-E (bits 5-7)
//	b1: MSHRs 0-8 (bits 0-3), store buffer 0-4 (bits 4-6), runahead (bit 7)
//	b2: MaxRunahead - 1 under runahead (otherwise the default stands)
//	b3: fetch buffer (bits 0-1), window mode (bits 2-3), ValuePredict,
//	    PerfectVP, PerfectBP, PerfectIFetch (bits 4-7)
//	b4: MaxInstructions (0 = unbounded)
//	b5: disambiguation mode (out of order only)
func decodeFuzzConfig(b []byte) Config {
	cfg := Default()
	cfg.IssueWindow = fuzzWindows[b[0]&7]
	cfg.ROB = cfg.IssueWindow << ((b[0] >> 3) & 3)
	cfg.Issue = IssueConfig((b[0] >> 5) % 5)
	cfg.MSHRs = int((b[1] & 15) % 9)
	cfg.StoreBuffer = int(((b[1] >> 4) & 7) % 5)
	if b[1]&0x80 != 0 {
		cfg.Runahead, cfg.MaxRunahead = true, 1+int(b[2])
	}
	cfg.FetchBuffer = fuzzFetchBuffers[b[3]&3]
	cfg.Mode = WindowMode(((b[3] >> 2) & 3) % 3)
	cfg.ValuePredict = b[3]&0x10 != 0
	cfg.PerfectVP = b[3]&0x20 != 0
	cfg.PerfectBP = b[3]&0x40 != 0
	cfg.PerfectIFetch = b[3]&0x80 != 0
	cfg.MaxInstructions = int64(b[4])
	if cfg.Mode == OutOfOrder {
		cfg.Disamb = DisambMode(b[5] % 3)
	}
	return cfg
}

// encodeFuzzConfig is decodeFuzzConfig's inverse for the configs it can
// express; OnEpoch is not encoded. ok is false for any other config.
func encodeFuzzConfig(cfg Config) (b []byte, ok bool) {
	w := -1
	for i, n := range fuzzWindows {
		if n == cfg.IssueWindow {
			w = i
		}
	}
	fb := -1
	for i, n := range fuzzFetchBuffers {
		if n == cfg.FetchBuffer {
			fb = i
		}
	}
	shift := 0
	for shift < 4 && cfg.IssueWindow<<shift != cfg.ROB {
		shift++
	}
	ra := cfg.MaxRunahead - 1
	if !cfg.Runahead {
		ra = 0
		if cfg.MaxRunahead != Default().MaxRunahead {
			return nil, false
		}
	}
	if w < 0 || fb < 0 || shift == 4 || cfg.MSHRs > 8 || cfg.StoreBuffer > 4 ||
		ra < 0 || ra > 255 || cfg.MaxInstructions > 255 {
		return nil, false
	}
	bit := func(v bool, mask byte) byte {
		if v {
			return mask
		}
		return 0
	}
	return []byte{
		byte(w) | byte(shift)<<3 | byte(cfg.Issue)<<5,
		byte(cfg.MSHRs) | byte(cfg.StoreBuffer)<<4 | bit(cfg.Runahead, 0x80),
		byte(ra),
		byte(fb) | byte(cfg.Mode)<<2 | bit(cfg.ValuePredict, 0x10) | bit(cfg.PerfectVP, 0x20) |
			bit(cfg.PerfectBP, 0x40) | bit(cfg.PerfectIFetch, 0x80),
		byte(cfg.MaxInstructions),
		byte(cfg.Disamb),
	}, true
}

// decodeFuzzInst reads one instruction over registers 0-7 (0 is the zero
// register) and four data addresses, so dependences are dense:
//
//	c0: class (bits 0-2), miss (bit 3: DMiss, PMiss or SMiss by class),
//	    IMiss (bit 4), Mispred (bit 5, branches), VP outcome (bits 6-7)
//	c1: src1 (bits 0-2), src2 (bits 3-5), CASA rather than MEMBAR (bit 6)
//	c2: dst (bits 0-2), address (bits 3-4), store-set outcome (bits 5-7)
func decodeFuzzInst(c []byte, i int) annotate.Inst {
	in := annotate.Inst{Index: int64(i)}
	in.PC = 0x1000 + uint64(i)*4
	in.Src1, in.Src2, in.Dst = isa.Reg(c[1]&7), isa.Reg((c[1]>>3)&7), isa.Reg(c[2]&7)
	in.EA = 0x2000 + uint64((c[2]>>3)&3)*8
	miss := c[0]&0x08 != 0
	switch c[0] & 7 {
	case 0, 1:
		in.Class = isa.ALU
	case 2, 3:
		in.Class = isa.Load
		in.Src2 = isa.NoReg
		in.DMiss = miss
	case 4:
		in.Class = isa.Store
		in.Dst = isa.NoReg
		in.SMiss = miss
	case 5:
		in.Class = isa.Prefetch
		in.Src2, in.Dst = isa.NoReg, isa.NoReg
		in.PMiss = miss
	case 6:
		in.Class = isa.Branch
		in.Src2, in.Dst = isa.NoReg, isa.NoReg
		in.Mispred = c[0]&0x20 != 0
	case 7:
		if c[1]&0x40 != 0 {
			in.Class = isa.CASA
			in.DMiss = miss
		} else {
			in.Class = isa.MemBar
			in.Src1, in.Src2, in.Dst = isa.NoReg, isa.NoReg, isa.NoReg
		}
	}
	in.IMiss = c[0]&0x10 != 0
	if in.DMiss {
		in.VPOutcome = vpred.Outcome((c[0] >> 6) % 3)
	}
	if in.Class.IsMemRead() && in.Class != isa.Prefetch {
		in.Dep = storeset.Outcome((c[2] >> 5) % 3)
	}
	return in
}

// decodeGangInput turns fuzz bytes into 1-4 configs and a stream.
func decodeGangInput(data []byte) ([]Config, []annotate.Inst) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	pos := 1
	cfgs := make([]Config, 1+int(at(0)%4))
	for i := range cfgs {
		var b [fuzzConfigBytes]byte
		for k := range b {
			b[k] = at(pos + k)
		}
		cfgs[i] = decodeFuzzConfig(b[:])
		pos += fuzzConfigBytes
	}
	var insts []annotate.Inst
	for ; pos+fuzzInstBytes <= len(data) && len(insts) < fuzzMaxInsts; pos += fuzzInstBytes {
		insts = append(insts, decodeFuzzInst(data[pos:pos+fuzzInstBytes], len(insts)))
	}
	return cfgs, insts
}

// FuzzGangMatchesEngine is the differential check of the gang stepper:
// for any stream and 1-4 configs across window/ROB sizes, issue
// policies, in-order modes, runahead, finite MSHR files and store
// buffers, value prediction, the perfect features, disambiguation modes
// and MaxInstructions, RunGang must equal the reference model run per
// config, and neither may panic. The seeds are the divergentGangs
// vectors, at most four configs each, over pseudo-random streams.
func FuzzGangMatchesEngine(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for gi, gang := range divergentGangs(nil) {
		for len(gang) > 0 {
			k := min(len(gang), 4)
			seed := []byte{byte(k - 1)}
			for _, cfg := range gang[:k] {
				b, ok := encodeFuzzConfig(cfg)
				if !ok || !reflect.DeepEqual(decodeFuzzConfig(b), cfg) {
					f.Fatalf("divergent gang %d: config %s does not round-trip its fuzz encoding", gi, cfg.Name())
				}
				seed = append(seed, b...)
			}
			stream := make([]byte, 200*fuzzInstBytes)
			rng.Read(stream)
			f.Add(append(seed, stream...))
			gang = gang[k:]
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfgs, insts := decodeGangInput(data)
		got := RunGang(&aiSource{insts: append([]annotate.Inst(nil), insts...)}, cfgs)
		for i, cfg := range cfgs {
			if want, _, _ := refRun(insts, cfg); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("config %d (%s) over %d instructions: gang result differs from the reference\ngang:      %+v\nreference: %+v",
					i, cfg.Name(), len(insts), got[i], want)
			}
		}
	})
}
