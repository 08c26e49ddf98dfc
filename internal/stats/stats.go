// Package stats provides the small statistical toolkit the trace
// analysis uses: summaries (mean, median, quantiles) for the queue
// depth distributions of Figure 2 and counting histograms for the
// source/tag usage analysis of §IV.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample distribution.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	P25    float64
	P75    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
		Median: Quantile(s, 0.5),
		P25:    Quantile(s, 0.25),
		P75:    Quantile(s, 0.75),
		P95:    Quantile(s, 0.95),
		P99:    Quantile(s, 0.99),
	}
}

// Quantile returns the q-quantile (0..1) of an ascending-sorted sample
// using linear interpolation. It panics on an empty sample or q outside
// [0,1].
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.0f p25=%.0f med=%.0f mean=%.1f p75=%.0f p95=%.0f p99=%.0f max=%.0f",
		s.N, s.Min, s.P25, s.Median, s.Mean, s.P75, s.P95, s.P99, s.Max)
}

// Counter is a counting histogram over integer keys (e.g. tag values,
// source ranks).
type Counter struct {
	counts map[int]int
	total  int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{counts: make(map[int]int)} }

// Add increments key's count.
func (c *Counter) Add(key int) {
	c.counts[key]++
	c.total++
}

// Total returns the number of observations.
func (c *Counter) Total() int { return c.total }

// MaxShare returns the largest fraction of observations carried by a
// single key — the "tuple uniqueness" metric of Figure 6a (low is
// hash-friendly). It returns 0 for an empty counter.
func (c *Counter) MaxShare() float64 {
	if c.total == 0 {
		return 0
	}
	max := 0
	for _, n := range c.counts {
		if n > max {
			max = n
		}
	}
	return float64(max) / float64(c.total)
}
