package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Mean != 2.5 || s.Median != 2.5 {
		t.Errorf("mean/median = %v/%v, want 2.5/2.5", s.Mean, s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.125, 15},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []int32) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			xs = append(xs, float64(x))
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		ordered := s.Min <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 &&
			s.P75 <= s.P95 && s.P95 <= s.Max
		within := s.Mean >= s.Min && s.Mean <= s.Max
		return ordered && within
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileMatchesSortPosition(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		sort.Float64s(xs)
		return Quantile(xs, 0) == xs[0] && Quantile(xs, 1) == xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	if c.MaxShare() != 0 || c.Total() != 0 {
		t.Error("empty counter not zero")
	}
	for _, k := range []int{1, 1, 1, 2, 3} {
		c.Add(k)
	}
	if c.Total() != 5 {
		t.Errorf("total=%d, want 5", c.Total())
	}
	if got := c.MaxShare(); got != 0.6 {
		t.Errorf("MaxShare = %v, want 0.6", got)
	}
}

func TestSummaryString(t *testing.T) {
	if s := Summarize([]float64{1, 2, 3}).String(); s == "" {
		t.Error("empty String()")
	}
}
