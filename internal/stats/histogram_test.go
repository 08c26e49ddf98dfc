package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// linearBounds returns n ascending bounds start, start+width, ….
func linearBounds(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, x := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(x)
	}
	// (≤1): 0.5, 1 — (1,2]: 1.5, 2 — (2,4]: 3, 4 — overflow: 5, 100.
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if got := h.counts[i]; got != w {
			t.Errorf("bucket %d: count %d, want %d", i, got, w)
		}
	}
	if h.N() != 8 {
		t.Errorf("N = %d, want 8", h.N())
	}
	if h.Min() != 0.5 || h.Max() != 100 {
		t.Errorf("min/max = %v/%v, want 0.5/100", h.Min(), h.Max())
	}
	if got, want := h.sum, 0.5+1+1.5+2+3+4+5+100; got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram(linearBounds(1, 1, 64))
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := float64(i%50) + 0.5
		h.Observe(x)
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	// Bucket-interpolated quantiles must land within one bucket width of
	// the exact sample quantiles, and at the extremes exactly on min/max.
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		got, want := h.Quantile(q), Quantile(xs, q)
		if math.Abs(got-want) > 1 {
			t.Errorf("Quantile(%v) = %v, sample quantile %v (diff > bucket width)", q, got, want)
		}
	}
	if got := h.Quantile(0); got != 0.5 {
		t.Errorf("Quantile(0) = %v, want observed min 0.5", got)
	}
	if got := h.Quantile(1); got != 49.5 {
		t.Errorf("Quantile(1) = %v, want observed max 49.5", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		h := NewHistogram(ExpBuckets(1, 2, 8))
		for _, x := range raw {
			h.Observe(float64(x))
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if s := h.Summary(); s.N != 0 {
		t.Errorf("empty Summary = %+v, want zero", s)
	}
	h.Observe(7)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("single-sample Quantile(%v) = %v, want 7", q, got)
		}
	}
}

func TestHistogramObserveNoAlloc(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 16))
	allocs := testing.AllocsPerRun(100, func() { h.Observe(3.7) })
	if allocs != 0 {
		t.Errorf("Observe allocates %v per call, want 0", allocs)
	}
}

func TestHistogramSummaryMatchesP99(t *testing.T) {
	var xs []float64
	h := NewHistogram(linearBounds(0, 1, 128))
	for i := 0; i < 500; i++ {
		x := float64((i * 37) % 100)
		xs = append(xs, x)
		h.Observe(x)
	}
	exact := Summarize(xs)
	approx := h.Summary()
	if exact.P99 == 0 {
		t.Fatal("Summarize left P99 zero")
	}
	if math.Abs(approx.P99-exact.P99) > 1 {
		t.Errorf("histogram P99 %v vs sample P99 %v (diff > bucket width)", approx.P99, exact.P99)
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty bounds": func() { NewHistogram(nil) },
		"descending":   func() { NewHistogram([]float64{2, 1}) },
		"bad quantile": func() { NewHistogram([]float64{1}).Quantile(1.5) },
		"neg quantile": func() { NewHistogram([]float64{1}).Quantile(-0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestHistogramQuantileWithinRange is the property companion to the
// edge-case tests: for arbitrary samples, every quantile must land
// inside [Min, Max], q=0 exactly on Min, q=1 exactly on Max — the
// clamping contract the soak latency SLOs rely on when quantiles come
// from buckets instead of raw records.
func TestHistogramQuantileWithinRange(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram(ExpBuckets(0.125, 1.25, 40))
		for _, x := range raw {
			h.Observe(float64(x) / 7)
		}
		if len(raw) == 0 {
			return h.Quantile(0.5) == 0 // empty: defined as 0, no panic
		}
		if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
			return false
		}
		for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999} {
			v := h.Quantile(q)
			if v < h.Min() || v > h.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHistogramSingleSamplePerBucket: with exactly one sample in a
// bucket, interpolation must return that bucket's clamped lower edge
// rather than dividing by zero (c−1 == 0).
func TestHistogramSingleSamplePerBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, x := range []float64{1.5, 3, 6} { // one per bucket
		h.Observe(x)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1.5}, {0.5, 2}, {1, 6},
	} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
