// Package stats provides the small statistical toolkit the experiments
// need: means, histograms, and the inter-miss-distance CDFs of Figure 2
// (observed distribution vs the uniform/geometric reference).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Ratio returns num/den, or 0 when den is 0. It centralizes the guarded
// divisions that MLP-style averages need.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Histogram counts integer-valued observations in caller-defined buckets.
type Histogram struct {
	// bounds[i] is the inclusive upper bound of bucket i; a final implicit
	// overflow bucket catches everything larger.
	bounds []int64
	counts []uint64
	total  uint64
}

// NewHistogram builds a histogram with the given ascending inclusive upper
// bounds. It panics if bounds are empty or not strictly ascending.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}
}

// Add records one observation.
func (h *Histogram) Add(x int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return x <= h.bounds[i] })
	h.counts[i]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the count in bucket i (len(bounds) is the overflow bucket).
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// CDF returns, for each bound, the cumulative probability of an
// observation at or below that bound.
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.bounds))
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i]
		out[i] = Ratio(float64(cum), float64(h.total))
	}
	return out
}

// DistanceRecorder accumulates distances between consecutive events in an
// instruction stream (the inter-miss distances of §2.3 / Figure 2).
type DistanceRecorder struct {
	last      int64
	havePrev  bool
	distances []int64
}

// Observe records that an event occurred at instruction index idx; the
// distance from the previous event is accumulated.
func (d *DistanceRecorder) Observe(idx int64) {
	if d.havePrev {
		d.distances = append(d.distances, idx-d.last)
	}
	d.last = idx
	d.havePrev = true
}

// Distances returns the recorded inter-event distances.
func (d *DistanceRecorder) Distances() []int64 { return d.distances }

// MeanDistance returns the average inter-event distance, or 0 when fewer
// than two events were observed.
func (d *DistanceRecorder) MeanDistance() float64 {
	if len(d.distances) == 0 {
		return 0
	}
	var sum int64
	for _, x := range d.distances {
		sum += x
	}
	return float64(sum) / float64(len(d.distances))
}

// CDFAt returns the empirical cumulative probability that the next event
// occurs within n instructions, for each n in points.
func (d *DistanceRecorder) CDFAt(points []int64) []float64 {
	sorted := make([]int64, len(d.distances))
	copy(sorted, d.distances)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]float64, len(points))
	for i, p := range points {
		// count of distances <= p
		k := sort.Search(len(sorted), func(j int) bool { return sorted[j] > p })
		out[i] = Ratio(float64(k), float64(len(sorted)))
	}
	return out
}

// UniformCDFAt returns the Figure 2 reference curve: the cumulative
// probability of encountering the next event within n instructions if
// events were uniformly (geometrically) distributed with the given mean
// inter-event distance.
func UniformCDFAt(meanDistance float64, points []int64) []float64 {
	out := make([]float64, len(points))
	if meanDistance <= 0 {
		return out
	}
	p := 1.0 / meanDistance
	if p > 1 {
		p = 1
	}
	for i, n := range points {
		out[i] = 1 - math.Pow(1-p, float64(n))
	}
	return out
}

// LogSpacedPoints returns points 1, 2, 4, ..., up to max (inclusive of the
// first point >= max), used as the X axis of Figure 2.
func LogSpacedPoints(max int64) []int64 {
	if max < 1 {
		return nil
	}
	var pts []int64
	for p := int64(1); ; p *= 2 {
		pts = append(pts, p)
		if p >= max {
			break
		}
	}
	return pts
}

// Percent formats a fraction as a percentage string with one decimal.
func Percent(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Summary holds moment statistics for a sample of measurements (used to
// report multi-seed experiment stability).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
}

// Summarize computes sample statistics for xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs)}
	if len(xs) < 2 {
		return s
	}
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	return s
}

// CI95 returns the half-width of the ~95% confidence interval of the mean
// (normal approximation; fine for the n>=5 seed sweeps used here).
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// RelCI95 returns CI95 as a fraction of the mean (0 when the mean is 0).
func (s Summary) RelCI95() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.CI95() / s.Mean
}
