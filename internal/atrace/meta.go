package atrace

import (
	"encoding/binary"
	"fmt"

	"mlpsim/internal/annotate"
	"mlpsim/internal/prefetch"
)

// The meta blob carries a stream's geometry and captured-window
// statistics in every spill header (colfile.go): 22 uvarints led by the
// version number 2 — geometry, annotator stats, then the
// hardware-prefetcher statistics captured with the stream.
const (
	metaVersion = 2
	metaFields  = 22
)

func encodeMeta(s *Stream) []byte {
	var b []byte
	put := func(v uint64) { b = binary.AppendUvarint(b, v) }
	putBool := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	put(metaVersion)
	put(uint64(s.lineShift))
	put(uint64(s.firstIndex))
	put(uint64(s.n))
	st := s.stats
	for _, v := range []uint64{
		st.Instructions, st.DMisses, st.PMisses, st.IMisses, st.SMisses,
		st.Branches, st.Mispredicts, st.Prefetches, st.PrefetchUsed,
		st.VP.Correct, st.VP.Wrong, st.VP.NoPredict,
	} {
		put(v)
	}
	putBool(s.hasIPF)
	put(s.ipfStats.Issued)
	put(s.ipfStats.Useful)
	putBool(s.hasDPF)
	put(s.dpfStats.Issued)
	put(s.dpfStats.Useful)
	return b
}

// metaInfo is the decoded header metadata of a stream spill.
type metaInfo struct {
	lineShift          uint8
	firstIndex, n      int64
	stats              annotate.Stats
	ipfStats, dpfStats prefetch.Stats
	hasIPF, hasDPF     bool
}

// apply copies the decoded metadata that is not re-derivable from the
// records onto a stream.
func (m *metaInfo) apply(s *Stream) {
	s.stats = m.stats
	s.ipfStats, s.hasIPF = m.ipfStats, m.hasIPF
	s.dpfStats, s.hasDPF = m.dpfStats, m.hasDPF
}

func decodeMeta(b []byte) (metaInfo, error) {
	var m metaInfo
	vals := make([]uint64, 0, metaFields)
	for len(b) > 0 {
		v, sz := binary.Uvarint(b)
		if sz <= 0 {
			return m, fmt.Errorf("atrace: corrupt meta blob")
		}
		b = b[sz:]
		vals = append(vals, v)
	}
	if len(vals) != metaFields || vals[0] != metaVersion {
		return m, fmt.Errorf("atrace: meta blob has %d fields, want %d led by version %d", len(vals), metaFields, metaVersion)
	}
	if vals[1] > 63 {
		return m, fmt.Errorf("atrace: invalid line shift %d", vals[1])
	}
	m.lineShift = uint8(vals[1])
	m.firstIndex = int64(vals[2])
	m.n = int64(vals[3])
	m.stats = annotate.Stats{
		Instructions: vals[4], DMisses: vals[5], PMisses: vals[6],
		IMisses: vals[7], SMisses: vals[8], Branches: vals[9],
		Mispredicts: vals[10], Prefetches: vals[11], PrefetchUsed: vals[12],
	}
	m.stats.VP.Correct, m.stats.VP.Wrong, m.stats.VP.NoPredict = vals[13], vals[14], vals[15]
	m.stats.OffChip = m.stats.DMisses + m.stats.PMisses + m.stats.IMisses
	m.hasIPF = vals[16] != 0
	m.ipfStats = prefetch.Stats{Issued: vals[17], Useful: vals[18]}
	m.hasDPF = vals[19] != 0
	m.dpfStats = prefetch.Stats{Issued: vals[20], Useful: vals[21]}
	return m, nil
}
