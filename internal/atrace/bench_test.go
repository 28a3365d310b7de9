package atrace

import (
	"runtime"
	"testing"

	"mlpsim/internal/annotate"
	"mlpsim/internal/workload"
)

// BenchmarkCaptureStream measures annotation plus columnar capture — the
// true per-key build cost.
func BenchmarkCaptureStream(b *testing.B) {
	w := workload.Presets(1)[0]
	a := annotate.New(workload.MustNew(w), annotate.Config{})
	a.Warm(100_000)
	bu := NewBuilder(6, int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, ok := a.Next()
		if !ok {
			b.Fatal("stream ended")
		}
		bu.Append(in)
	}
}

// BenchmarkCaptureFused measures the fused block path Capture actually
// runs (AnnotateInto staging + AppendBlock column transpose).
func BenchmarkCaptureFused(b *testing.B) {
	w := workload.Presets(1)[0]
	a := annotate.New(workload.MustNew(w), annotate.Config{})
	a.Warm(100_000)
	bu := NewBuilder(6, int64(b.N))
	buf := make([]annotate.Inst, captureBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; {
		want := len(buf)
		if left < want {
			want = left
		}
		got := a.AnnotateInto(buf[:want])
		if got < want {
			b.Fatal("stream ended")
		}
		bu.AppendBlock(buf[:got])
		left -= got
	}
}

// TestReplayAllocFree pins the zero-allocation property of the replay
// hot path.
func TestReplayAllocFree(t *testing.T) {
	w := workload.Presets(1)[0]
	a := annotate.New(workload.MustNew(w), annotate.Config{})
	a.Warm(10_000)
	s := Capture(a, 50_000)
	r := s.Replay()
	allocs := testing.AllocsPerRun(10_000, func() {
		if _, ok := r.Next(); !ok {
			r = s.Replay()
		}
	})
	if allocs > 0.01 {
		t.Errorf("replay allocates %.2f objects per instruction, want 0", allocs)
	}
}

// TestCaptureAllocsPerInst pins the capture fast path's steady state:
// annotation plus columnar encoding allocate nothing per instruction, so
// a whole capture pays only for its construction and column growth.
func TestCaptureAllocsPerInst(t *testing.T) {
	const n = 200_000
	w := workload.Presets(1)[0]
	a := annotate.New(workload.MustNew(w), annotate.Config{})
	a.Warm(100_000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := Capture(a, n)
	runtime.ReadMemStats(&m1)
	if s.Len() != n {
		t.Fatalf("captured %d instructions, want %d", s.Len(), n)
	}
	if per := float64(m1.Mallocs-m0.Mallocs) / n; per >= 0.01 {
		t.Errorf("capture allocates %.4f objects per instruction (%d over %d), want < 0.01", per, m1.Mallocs-m0.Mallocs, n)
	}
}
