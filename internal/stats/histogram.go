package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bucket counting histogram for streaming samples
// whose full population cannot be retained (the telemetry plane's
// queue-depth and latency distributions). Bucket i counts samples in
// (bounds[i-1], bounds[i]]; a final implicit bucket counts samples
// above the last bound. All storage is allocated at construction, so
// Observe is allocation-free and safe on hot paths.
type Histogram struct {
	bounds []float64 // ascending upper bounds; len(counts) == len(bounds)+1
	counts []uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds. It panics on an empty or non-ascending bound list (a
// programmer error: bucket layouts are static).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram with no buckets")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not ascending at %d: %v <= %v", i, bounds[i], bounds[i-1]))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// ExpBuckets returns n ascending bounds start, start·factor, … for
// NewHistogram (factor > 1).
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	x := start
	for i := range out {
		out[i] = x
		x *= factor
	}
	return out
}

// Reset zeroes every count and the running aggregates, keeping the
// bucket layout. Load drivers use it to re-base a distribution at the
// end of a warmup phase without reallocating.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Observe records one sample. It never allocates.
func (h *Histogram) Observe(x float64) {
	if h.n == 0 || x < h.min {
		h.min = x
	}
	if h.n == 0 || x > h.max {
		h.max = x
	}
	h.n++
	h.sum += x
	h.counts[h.bucketOf(x)]++
}

// bucketOf returns the bucket index of x via binary search: the first
// bound >= x, or the overflow bucket.
func (h *Histogram) bucketOf(x float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Quantile estimates the q-quantile (0..1) from the bucket counts. It
// uses the same definition as the sample Quantile helper — the value
// at fractional rank q·(n−1) with linear interpolation — but, lacking
// the raw samples, it interpolates linearly inside the containing
// bucket between its bounds (clamped to the observed min/max, which
// also prices the unbounded overflow bucket). An empty histogram
// returns 0; q outside [0,1] panics, matching Quantile.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if h.n == 0 {
		return 0
	}
	// The extremes are known exactly; answering them directly also
	// keeps Quantile(1) on the max when the top occupied bucket holds a
	// single sample (interpolation would return that bucket's lower
	// edge).
	if q == 0 {
		return h.min
	}
	if q == 1 {
		return h.max
	}
	rank := q * float64(h.n-1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		// Bucket i spans fractional ranks [cum, cum+c).
		if rank < cum+float64(c) || i == len(h.counts)-1 || cum+float64(c) >= float64(h.n) {
			lo, hi := h.bucketSpan(i)
			if c == 1 {
				return lo
			}
			frac := (rank - cum) / float64(c-1)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum += float64(c)
	}
	return h.max
}

// bucketSpan returns the value range bucket i covers, clamped to the
// observed min/max so open-ended buckets stay finite.
func (h *Histogram) bucketSpan(i int) (lo, hi float64) {
	lo = math.Inf(-1)
	if i > 0 {
		lo = h.bounds[i-1]
	}
	hi = math.Inf(1)
	if i < len(h.bounds) {
		hi = h.bounds[i]
	}
	if lo < h.min {
		lo = h.min
	}
	if hi > h.max {
		hi = h.max
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Summary derives a Summary from the bucket counts: exact N/Min/Max/
// Mean, bucket-interpolated quantiles (see Quantile).
func (h *Histogram) Summary() Summary {
	if h.n == 0 {
		return Summary{}
	}
	return Summary{
		N:      int(h.n),
		Min:    h.min,
		Max:    h.max,
		Mean:   h.Mean(),
		Median: h.Quantile(0.5),
		P25:    h.Quantile(0.25),
		P75:    h.Quantile(0.75),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
	}
}
