package simt

import (
	"math/rand"
	"slices"
	"testing"
)

// The shaped primitives must bill exactly what the per-lane primitives
// bill for the same addresses, and move the same words. Each check runs
// both forms on twin warps over twin memories and compares counters,
// results and memory.

// shapeMemWords fits a 32-lane column at the matrix engine's padded
// stride of 129.
const shapeMemWords = 4224

// randomMask draws active masks biased toward the shapes kernels use:
// empty, full, prefixes, single lanes, uniform random holes, and random
// masks with a 16-lane gap (which can leave a segment in the middle of
// a span untouched).
func randomMask(rng *rand.Rand) uint32 {
	switch rng.Intn(6) {
	case 0:
		return []uint32{0, FullMask}[rng.Intn(2)]
	case 1:
		return PrefixMask(rng.Intn(LaneCount + 1))
	case 2:
		return LaneMask(rng.Intn(LaneCount))
	case 3:
		return rng.Uint32() &^ (0xFFFF << uint(rng.Intn(LaneCount/2+1)))
	default:
		return rng.Uint32()
	}
}

// twin is a pair of warps (shaped, per-lane) with equal masks over
// memories holding equal words.
type twin struct {
	rng             *rand.Rand
	pattern         []uint64
	shaped, lanes   *Warp
	sCtrs, lCtrs    Counters
	sMem, lMem      *Memory
	sDst, lDst, src [LaneCount]uint64
}

func newTwin(seed int64) *twin {
	tw := &twin{rng: rand.New(rand.NewSource(seed)), sMem: NewMemory(shapeMemWords), lMem: NewMemory(shapeMemWords)}
	tw.pattern = make([]uint64, 2*shapeMemWords)
	for i := range tw.pattern {
		tw.pattern[i] = tw.rng.Uint64()
	}
	tw.shaped, tw.lanes = NewWarp(0, &tw.sCtrs), NewWarp(0, &tw.lCtrs)
	return tw
}

// reset refills both memories with the same words, zeroes counters and
// loaded words, draws fresh store values and sets both masks.
func (tw *twin) reset(mask uint32) {
	off := tw.rng.Intn(shapeMemWords)
	copy(tw.sMem.words, tw.pattern[off:])
	copy(tw.lMem.words, tw.sMem.words)
	for i := range tw.src {
		tw.src[i] = tw.rng.Uint64()
	}
	tw.sDst, tw.lDst = [LaneCount]uint64{}, [LaneCount]uint64{}
	tw.sCtrs, tw.lCtrs = Counters{}, Counters{}
	tw.shaped.SetActive(mask)
	tw.lanes.SetActive(mask)
}

func (tw *twin) check(t *testing.T, what string) {
	t.Helper()
	if tw.sCtrs != tw.lCtrs {
		t.Fatalf("%s (mask %#08x): counters differ\nshaped   %+v\nper-lane %+v", what, tw.shaped.Active(), tw.sCtrs, tw.lCtrs)
	}
	if tw.sDst != tw.lDst {
		t.Fatalf("%s (mask %#08x): loaded words differ", what, tw.shaped.Active())
	}
	if !slices.Equal(tw.sMem.words, tw.lMem.words) {
		t.Fatalf("%s (mask %#08x): memories differ", what, tw.shaped.Active())
	}
}

// rank returns lane's position among the active lanes of mask.
func rank(mask uint32, lane int) int { return Popc(mask & (LaneMask(lane) - 1)) }

func TestShapedGlobalMatchesPerLane(t *testing.T) {
	tw := newTwin(1)
	rng := tw.rng
	for trial := 0; trial < 1500; trial++ {
		mask := randomMask(rng)
		// Bases around segment boundaries, so spans straddle them.
		base := rng.Intn(shapeMemWords/segmentWords-3)*segmentWords + []int{0, 1, 15, rng.Intn(segmentWords)}[rng.Intn(4)]

		tw.reset(mask)
		tw.shaped.LoadGlobalSpan(tw.sMem, base, &tw.sDst)
		tw.lanes.LoadGlobal(tw.lMem, func(l int) int { return base + l }, func(l int, v uint64) { tw.lDst[l] = v })
		tw.check(t, "LoadGlobalSpan")

		tw.reset(mask)
		tw.shaped.LoadGlobalSpan(tw.sMem, base, nil)
		tw.lanes.LoadGlobal(tw.lMem, func(l int) int { return base + l }, func(int, uint64) {})
		tw.check(t, "LoadGlobalSpan(nil)")

		tw.reset(mask)
		tw.shaped.StoreGlobalDense(tw.sMem, base, &tw.src)
		tw.lanes.StoreGlobal(tw.lMem, func(l int) int { return base + rank(mask, l) }, func(l int) uint64 { return tw.src[l] })
		tw.check(t, "StoreGlobalDense")
	}
}

// TestShapedSpanLengths loads spans of the lengths kernels produce — a
// partial warp, exactly one, one plus a lane, and two — warp by warp
// with prefix masks, at every alignment to a 128-byte segment.
func TestShapedSpanLengths(t *testing.T) {
	tw := newTwin(2)
	for _, n := range []int{1, 31, 32, 33, 63, 64} {
		for align := 0; align < segmentWords; align++ {
			base := 3*segmentWords + align
			tw.reset(0)
			for off := 0; off < n; off += LaneCount {
				mask := PrefixMask(n - off)
				tw.shaped.SetActive(mask)
				tw.lanes.SetActive(mask)
				tw.shaped.LoadGlobalSpan(tw.sMem, base+off, &tw.sDst)
				tw.lanes.LoadGlobal(tw.lMem, func(l int) int { return base + off + l }, func(l int, v uint64) { tw.lDst[l] = v })
				tw.shaped.StoreGlobalDense(tw.sMem, base+off, &tw.src)
				tw.lanes.StoreGlobal(tw.lMem, func(l int) int { return base + off + l }, func(l int) uint64 { return tw.src[l] })
				tw.check(t, "span")
			}
			// A span of n words starting at base touches exactly the
			// segments of its first and last word.
			want := uint64(0)
			for off := 0; off < n; off += LaneCount {
				last := base + off + min(n-off, LaneCount) - 1
				want += uint64(last/segmentWords - (base+off)/segmentWords + 1)
			}
			if got := tw.sCtrs.GMemTrans; got != 2*want {
				t.Fatalf("n=%d align=%d: %d transactions, want %d", n, align, got, 2*want)
			}
		}
	}
}

func TestShapedSharedMatchesPerLane(t *testing.T) {
	tw := newTwin(3)
	rng := tw.rng
	strides := []int{0, 1, 2, 3, 4, 8, 15, 16, 17, 31, 32, 33, 129}
	for trial := 0; trial < 1500; trial++ {
		mask := randomMask(rng)
		stride := strides[rng.Intn(len(strides))]
		base := rng.Intn(shapeMemWords - 31*stride)

		tw.reset(mask)
		tw.shaped.LoadSharedStride(tw.sMem, base, stride, &tw.sDst)
		tw.lanes.LoadShared(tw.lMem, func(l int) int { return base + l*stride }, func(l int, v uint64) { tw.lDst[l] = v })
		tw.check(t, "LoadSharedStride")

		tw.reset(mask)
		row := min(base, shapeMemWords-LaneCount)
		tw.shaped.StoreSharedSpan(tw.sMem, row, &tw.src)
		tw.lanes.StoreShared(tw.lMem, func(l int) int { return row + l }, func(l int) uint64 { return tw.src[l] })
		tw.check(t, "StoreSharedSpan")

		tw.reset(mask)
		var got uint64
		tw.lanes.LoadShared(tw.lMem, func(int) int { return base }, func(_ int, v uint64) { got = v })
		if v := tw.shaped.LoadSharedWord(tw.sMem, base); v != got {
			t.Fatalf("LoadSharedWord (mask %#08x) = %d, per-lane %d", mask, v, got)
		}
		tw.check(t, "LoadSharedWord")

		tw.reset(mask)
		tw.shaped.StoreSharedWord(tw.sMem, base, tw.src[0])
		tw.lanes.StoreShared(tw.lMem, func(int) int { return base }, func(int) uint64 { return tw.src[0] })
		tw.check(t, "StoreSharedWord")
	}
}

func TestIssueAndVoteMatchExecAndBallot(t *testing.T) {
	tw := newTwin(4)
	rng := tw.rng
	for trial := 0; trial < 1000; trial++ {
		mask, pred := randomMask(rng), rng.Uint32()
		n := rng.Intn(5)
		tw.reset(mask)
		tw.shaped.Issue(n)
		tw.lanes.Exec(n, func(int) {})
		got := tw.shaped.Vote(pred)
		want := tw.lanes.Ballot(func(l int) bool { return pred&LaneMask(l) != 0 })
		if got != want {
			t.Fatalf("Vote(%#08x) under %#08x = %#08x, Ballot %#08x", pred, mask, got, want)
		}
		tw.check(t, "Issue/Vote")
	}
	defer func() {
		if recover() == nil {
			t.Error("Issue(-1) did not panic")
		}
	}()
	NewWarp(0, new(Counters)).Issue(-1)
}

func TestPrefixMask(t *testing.T) {
	for n := -2; n <= LaneCount+2; n++ {
		var want uint32
		for l := 0; l < n && l < LaneCount; l++ {
			want |= LaneMask(l)
		}
		if got := PrefixMask(n); got != want {
			t.Fatalf("PrefixMask(%d) = %#08x, want %#08x", n, got, want)
		}
	}
}
