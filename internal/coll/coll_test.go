package coll

import (
	"fmt"
	"math"
	"testing"

	"simtmp/internal/envelope"
	"simtmp/internal/mpx"
)

// levels lists every semantic contract the collectives must work on.
var levels = []mpx.Level{mpx.FullMPI, mpx.NoSourceWildcard, mpx.NoUnexpected, mpx.Unordered}

func newComm(t *testing.T, level mpx.Level, gpus int) *Comm {
	t.Helper()
	rt := mpx.New(mpx.Config{Level: level, GPUs: gpus})
	c, err := New(rt, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOpApplyAndString(t *testing.T) {
	if Sum.apply(2, 3) != 5 || Max.apply(2, 3) != 3 || Min.apply(2, 3) != 2 {
		t.Error("operator results wrong")
	}
	if Sum.String() != "sum" || Max.String() != "max" || Min.String() != "min" {
		t.Error("operator names wrong")
	}
	if Op(9).String() != "Op(9)" {
		t.Error("unknown operator name wrong")
	}
}

func TestNewTagBaseValidation(t *testing.T) {
	rt := mpx.New(mpx.Config{GPUs: 2})
	if _, err := New(rt, 0, envelope.MaxTag-5); err == nil {
		t.Error("tag base without room accepted")
	}
	if _, err := New(rt, 0, -1); err == nil {
		t.Error("negative tag base accepted")
	}
}

func TestBarrierAllLevelsAllSizes(t *testing.T) {
	for _, level := range levels {
		for _, p := range []int{2, 3, 4, 7, 8} {
			c := newComm(t, level, p)
			if err := c.Barrier(); err != nil {
				t.Errorf("level %v p=%d: %v", level, p, err)
			}
			// Barriers are reusable.
			if err := c.Barrier(); err != nil {
				t.Errorf("level %v p=%d second barrier: %v", level, p, err)
			}
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, level := range levels {
		for _, p := range []int{2, 3, 5, 8} {
			for _, root := range []int{0, p - 1} {
				c := newComm(t, level, p)
				data := []byte(fmt.Sprintf("payload-from-%d", root))
				have, err := c.Broadcast(root, data)
				if err != nil {
					t.Fatalf("level %v p=%d root=%d: %v", level, p, root, err)
				}
				for r := 0; r < p; r++ {
					if string(have[r]) != string(data) {
						t.Errorf("level %v p=%d root=%d: GPU %d has %q", level, p, root, r, have[r])
					}
				}
			}
		}
	}
}

func TestBroadcastRootValidation(t *testing.T) {
	c := newComm(t, mpx.FullMPI, 4)
	if _, err := c.Broadcast(9, nil); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestReduce(t *testing.T) {
	for _, level := range levels {
		for _, p := range []int{2, 3, 6, 8} {
			c := newComm(t, level, p)
			vals := make([]float64, p)
			want := 0.0
			for i := range vals {
				vals[i] = float64(i + 1)
				want += vals[i]
			}
			got, err := c.Reduce(0, vals, Sum)
			if err != nil {
				t.Fatalf("level %v p=%d: %v", level, p, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("level %v p=%d: sum = %v, want %v", level, p, got, want)
			}
		}
	}
}

func TestReduceNonZeroRootAndOps(t *testing.T) {
	c := newComm(t, mpx.FullMPI, 5)
	vals := []float64{3, -7, 12, 0.5, 9}
	if got, err := c.Reduce(3, vals, Max); err != nil || got != 12 {
		t.Errorf("Max at root 3 = %v, %v", got, err)
	}
	if got, err := c.Reduce(2, vals, Min); err != nil || got != -7 {
		t.Errorf("Min at root 2 = %v, %v", got, err)
	}
}

func TestReduceValidation(t *testing.T) {
	c := newComm(t, mpx.FullMPI, 4)
	if _, err := c.Reduce(0, []float64{1}, Sum); err == nil {
		t.Error("short value slice accepted")
	}
	if _, err := c.Reduce(-1, make([]float64, 4), Sum); err == nil {
		t.Error("bad root accepted")
	}
}

func TestAllReduce(t *testing.T) {
	for _, level := range levels {
		c := newComm(t, level, 6)
		vals := []float64{1, 2, 3, 4, 5, 6}
		out, err := c.AllReduce(vals, Sum)
		if err != nil {
			t.Fatalf("level %v: %v", level, err)
		}
		for r, v := range out {
			if v != 21 {
				t.Errorf("level %v: GPU %d got %v, want 21", level, r, v)
			}
		}
	}
}

func TestCollectivesAccumulateMatchingWork(t *testing.T) {
	rt := mpx.New(mpx.Config{Level: mpx.Unordered, GPUs: 8})
	c, err := New(rt, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 8)
	for i := range vals {
		vals[i] = 1
	}
	if _, err := c.AllReduce(vals, Sum); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Matches == 0 || st.SimSeconds <= 0 {
		t.Errorf("no matching work recorded: %+v", st)
	}
}
