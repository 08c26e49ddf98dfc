package coll

import (
	"math"
	"testing"

	"simtmp/internal/mpx"
)

func TestPersistentAllReduceMatchesPlain(t *testing.T) {
	for _, level := range levels {
		for _, op := range []Op{Sum, Max, Min} {
			rt := mpx.New(mpx.Config{Level: level, GPUs: 4})
			c, err := New(rt, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := c.NewPersistentAllReduce(op)
			if err != nil {
				t.Fatalf("%v/%v: %v", level, op, err)
			}
			for iter := 0; iter < 5; iter++ {
				vals := []float64{1.5 + float64(iter), -2, 8, 0.25}
				got := make([]float64, len(vals))
				if err := plan.RunInto(got, vals); err != nil {
					t.Fatalf("%v/%v iter %d: %v", level, op, iter, err)
				}
				want := vals[0]
				for _, v := range vals[1:] {
					want = op.apply(want, v)
				}
				for r, g := range got {
					if math.Abs(g-want) > 1e-12 {
						t.Fatalf("%v/%v iter %d rank %d: got %g, want %g", level, op, iter, r, g, want)
					}
				}
			}
			st := rt.Stats()
			if st.CacheHits == 0 || st.CacheSeals == 0 {
				t.Errorf("%v/%v: plan never sealed/re-fired: %+v", level, op, st)
			}
			plan.Free()
		}
	}
}

func TestPersistentAllReduceRunInto(t *testing.T) {
	rt := mpx.New(mpx.Config{Level: mpx.Unordered, GPUs: 4})
	c, err := New(rt, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.NewPersistentAllReduce(Sum)
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Free()
	out := make([]float64, 4)
	vals := []float64{1, 2, 3, 4}
	if err := plan.RunInto(out, vals); err != nil {
		t.Fatal(err)
	}
	for r, g := range out {
		if g != 10 {
			t.Fatalf("rank %d: got %g, want 10", r, g)
		}
	}
	if err := plan.RunInto(out[:1], vals); err == nil {
		t.Error("short result slice accepted")
	}
	if err := plan.RunInto(out, vals[:2]); err == nil {
		t.Error("short value slice accepted")
	}
}

func TestPersistentAllReduceValidation(t *testing.T) {
	rt := mpx.New(mpx.Config{GPUs: 3})
	c, err := New(rt, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewPersistentAllReduce(Sum); err == nil {
		t.Error("non-power-of-two GPU count accepted")
	}
	rt = mpx.New(mpx.Config{GPUs: 4})
	if c, err = New(rt, 0, 100); err != nil {
		t.Fatal(err)
	}
	plan, err := c.NewPersistentAllReduce(Sum)
	if err != nil {
		t.Fatal(err)
	}
	plan.Free()
	plan.Free() // idempotent
	if err := plan.RunInto(make([]float64, 4), []float64{1, 2, 3, 4}); err == nil {
		t.Error("RunInto on freed plan accepted")
	}
}
