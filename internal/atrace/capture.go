package atrace

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"mlpsim/internal/annotate"
)

// BuildSpec describes one annotation pass and how to capture it.
//
// Because workload generation is deterministic per seed, each capture
// worker can reconstruct the exact annotator state at any segment
// boundary by re-running generation+annotation from instruction 0 (a
// fresh annotator warmed over the full prefix). That keeps every segment
// bit-identical to the corresponding window of a single pass without
// sharing any mutable state between workers.
type BuildSpec struct {
	// NewAnnotator returns a fresh, unwarmed annotator positioned at
	// dynamic instruction 0. It must be safe to call from multiple
	// goroutines and every annotator it returns must be deterministic and
	// independent (fresh generator, fresh predictors).
	NewAnnotator func() *annotate.Annotator
	// Warmup instructions train the annotator before the first captured
	// one; Measure instructions are captured. Together they fix the
	// window, which must match the cache key.
	Warmup, Measure int64
	// SegmentInsts is the nominal per-segment instruction count; <= 0 or
	// >= Measure captures a single segment. Workers bounds the parallel
	// capture goroutines (<= 0 = GOMAXPROCS); each warms once, then
	// captures a contiguous run of segments. Cache.GetTrace sets both
	// from Cache.SetSegments.
	SegmentInsts int64
	Workers      int

	// publish, when set, is called once per completed segment (from the
	// worker that built it, in completion order across workers). It may
	// return a replacement stream — e.g. a memory-mapped reopen of the
	// published file — that the pending capture hands out instead of the
	// heap copy. A publish error is recorded (PublishErr) but does not
	// fail the capture: the heap segment stays usable.
	publish func(k int, s *Stream) (*Stream, error)
	// finish, when set, runs after every segment has resolved and the
	// aggregate SegStream validated, before Wait unblocks — the hook that
	// writes the manifest. Skipped when any publish call failed.
	finish func(ss *SegStream) error
}

func (spec BuildSpec) segmentCount() (segInsts int64, k int) {
	segInsts = spec.SegmentInsts
	if segInsts <= 0 || segInsts >= spec.Measure {
		return spec.Measure, 1
	}
	return segInsts, int((spec.Measure + segInsts - 1) / segInsts)
}

// PendingCapture is a segmented capture in flight. Consumers may stream
// instructions (Source) or block per segment (Segment) while later
// segments are still being built; Wait blocks until the whole window is
// captured and returns the assembled trace.
type PendingCapture struct {
	segInsts int64
	segN     []int64

	mu     sync.Mutex
	segs   []*Stream
	errs   []error
	ready  []chan struct{}
	pubErr error
	pval   any

	done     chan struct{}
	final    *SegStream
	finalErr error
}

// CaptureSegmented starts a parallel segmented capture of spec's window
// and returns immediately; segments become available as workers finish
// them.
func CaptureSegmented(spec BuildSpec) *PendingCapture {
	segInsts, count := spec.segmentCount()
	p := &PendingCapture{
		segInsts: segInsts,
		segN:     make([]int64, count),
		segs:     make([]*Stream, count),
		errs:     make([]error, count),
		ready:    make([]chan struct{}, count),
		done:     make(chan struct{}),
	}
	for k := range p.ready {
		p.ready[k] = make(chan struct{})
	}
	for k := 0; k < count; k++ {
		n := segInsts
		if rest := spec.Measure - int64(k)*segInsts; rest < n {
			n = rest
		}
		p.segN[k] = n
	}

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	// Contiguous split: worker w captures segments [lo, hi) from a single
	// annotator warmed once over the prefix before lo.
	lo := 0
	for w := 0; w < workers; w++ {
		hi := (count*(w+1) + workers - 1) / workers
		if hi > count {
			hi = count
		}
		go p.runWorker(spec, lo, hi)
		lo = hi
	}

	go func() {
		for _, ch := range p.ready {
			<-ch
		}
		p.finalize(spec)
		close(p.done)
	}()
	return p
}

func (p *PendingCapture) runWorker(spec BuildSpec, lo, hi int) {
	next := lo
	defer func() {
		pv := recover()
		p.mu.Lock()
		if pv != nil && p.pval == nil {
			p.pval = pv
		}
		p.mu.Unlock()
		// Resolve any segments this worker never delivered so waiters
		// do not hang.
		for k := next; k < hi; k++ {
			err := fmt.Errorf("atrace: capture worker failed before segment %d", k)
			if pv != nil {
				err = fmt.Errorf("atrace: capture worker panicked before segment %d: %v", k, pv)
			}
			p.deliver(&next, k, nil, err)
		}
	}()

	a := spec.NewAnnotator()
	skip := spec.Warmup + int64(lo)*p.segInsts
	if a.Warm(skip); a.Position() != skip {
		panic(fmt.Sprintf("atrace: source ended during warm-up (%d of %d instructions)", a.Position(), skip))
	}
	for k := lo; k < hi; k++ {
		if k > lo {
			// Segment boundary: statistics restart so each segment carries
			// its own delta; all cache/predictor training state carries over.
			a.ResetStats()
		}
		s := Capture(a, p.segN[k])
		var err error
		switch {
		case s.Len() != p.segN[k]:
			err = fmt.Errorf("atrace: segment %d captured %d instructions, want %d", k, s.Len(), p.segN[k])
		case s.Len() > 0 && s.FirstIndex() != spec.Warmup+int64(k)*p.segInsts:
			err = fmt.Errorf("atrace: segment %d starts at %d, want %d", k, s.FirstIndex(), spec.Warmup+int64(k)*p.segInsts)
		case spec.publish != nil:
			if rs, perr := spec.publish(k, s); perr != nil {
				p.mu.Lock()
				if p.pubErr == nil {
					p.pubErr = perr
				}
				p.mu.Unlock()
			} else if rs != nil {
				s = rs
			}
		}
		p.deliver(&next, k, s, err)
		if err != nil {
			// The annotator's position is unreliable after a short capture;
			// the deferred cleanup resolves this worker's remaining segments.
			return
		}
	}
}

func (p *PendingCapture) deliver(next *int, k int, s *Stream, err error) {
	p.mu.Lock()
	p.segs[k] = s
	p.errs[k] = err
	p.mu.Unlock()
	close(p.ready[k])
	*next = k + 1
}

func (p *PendingCapture) finalize(spec BuildSpec) {
	if p.pval != nil {
		p.finalErr = fmt.Errorf("atrace: capture panicked: %v", p.pval)
		return
	}
	for _, err := range p.errs {
		if err != nil {
			p.finalErr = err
			return
		}
	}
	ss, err := NewSegStream(p.segs, p.segInsts)
	if err != nil {
		p.finalErr = err
		return
	}
	if spec.finish != nil && p.pubErr == nil {
		if err := spec.finish(ss); err != nil {
			p.pubErr = err
		}
	}
	p.final = ss
}

// Segments returns the number of segments the capture was split into.
func (p *PendingCapture) Segments() int { return len(p.segN) }

// SegmentInsts returns the nominal per-segment instruction count.
func (p *PendingCapture) SegmentInsts() int64 { return p.segInsts }

// Segment blocks until segment k is captured (and, for disk-backed
// captures, published) and returns it.
func (p *PendingCapture) Segment(k int) (*Stream, error) {
	<-p.ready[k]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.segs[k], p.errs[k]
}

// Wait blocks until the whole window is captured and returns the
// assembled trace. A panic in a capture worker is re-raised here.
func (p *PendingCapture) Wait() (*SegStream, error) {
	<-p.done
	if p.pval != nil {
		panic(p.pval)
	}
	return p.final, p.finalErr
}

// PublishErr reports the first error hit while publishing segments or
// the manifest (nil while publication is still in progress or after a
// fully successful one). The captured trace itself stays usable — a
// publish failure only means the spill did not land on disk.
func (p *PendingCapture) PublishErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pubErr
}

// Source returns a streaming cursor over the capture: it yields segment
// 0's instructions as soon as that segment is published, blocking at
// each segment boundary until the next segment is ready — replay runs
// concurrently with the tail of the capture. The cursor stops early if a
// segment fails; use Wait to observe errors.
func (p *PendingCapture) Source() Source { return &pendingReplay{p: p} }

type pendingReplay struct {
	p   *PendingCapture
	k   int
	cur *Replay
}

func (r *pendingReplay) Next() (annotate.Inst, bool) {
	var out annotate.Inst
	ok := r.NextInto(&out)
	return out, ok
}

func (r *pendingReplay) NextInto(dst *annotate.Inst) bool {
	for {
		if r.cur != nil && r.cur.NextInto(dst) {
			return true
		}
		r.cur = nil
		if r.k >= r.p.Segments() {
			return false
		}
		s, err := r.p.Segment(r.k)
		r.k++
		if err != nil || s == nil {
			return false
		}
		r.cur = s.Replay()
	}
}

// CaptureSegmentedToFile runs a segmented capture that publishes each
// segment to "<base>.seg%04d" (temp file + atomic rename) the moment it
// completes, then writes the MLPCOLS2 manifest at base last — so a
// concurrent process sees either no trace or a complete one, while
// in-process consumers can stream segments as they land. Published
// segments are re-opened memory-mapped, keeping the builder's heap flat.
func CaptureSegmentedToFile(base string, spec BuildSpec) *PendingCapture {
	spec.publish = func(k int, s *Stream) (*Stream, error) {
		dst := segmentPath(base, k)
		_, err := writeAtomic(filepath.Dir(base), ".acol-tmp-*", dst, func(f *os.File) error {
			return writeColumnar(f, s)
		})
		if err != nil {
			return nil, err
		}
		ms, err := openColumnar(dst)
		if err != nil {
			// The published bytes are unreadable; treat as a publish
			// failure but keep the heap copy for the caller.
			return nil, err
		}
		return ms, nil
	}
	spec.finish = func(ss *SegStream) error {
		segBytes := make([]int64, ss.Segments())
		for k := range segBytes {
			fi, err := os.Stat(segmentPath(base, k))
			if err != nil {
				return err
			}
			segBytes[k] = fi.Size()
		}
		_, err := writeAtomic(filepath.Dir(base), ".acol-tmp-*", base, func(f *os.File) error {
			return writeManifest(f, ss, segBytes)
		})
		return err
	}
	return CaptureSegmented(spec)
}

// mustCapture runs spec's capture in the heap, re-raising any failure as
// a panic (a worker's own panic propagates as itself).
func mustCapture(spec BuildSpec) *SegStream {
	ss, err := CaptureSegmented(spec).Wait()
	if err != nil {
		panic(err)
	}
	return ss
}
