package queue

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"simtmp/internal/envelope"
	"simtmp/internal/simt"
)

func packedEnv(src, tag int) uint64 {
	return envelope.Envelope{Src: envelope.Rank(src), Tag: envelope.Tag(tag)}.Pack()
}

func TestPushAtLen(t *testing.T) {
	m := simt.NewMemory(64)
	q := New(m, 8, 16)
	if q.Cap() != 16 || q.Len() != 0 {
		t.Fatalf("fresh queue: cap=%d len=%d", q.Cap(), q.Len())
	}
	for i := 0; i < 16; i++ {
		if err := q.Push(packedEnv(i, 0)); err != nil {
			t.Fatalf("Push(%d): %v", i, err)
		}
	}
	if err := q.Push(packedEnv(99, 0)); err == nil {
		t.Error("Push on full queue succeeded")
	}
	if q.Len() != 16 {
		t.Errorf("Len = %d, want 16", q.Len())
	}
	e, ok := envelope.UnpackEnvelope(q.At(7))
	if !ok || e.Src != 7 {
		t.Errorf("At(7) = %v, %v", e, ok)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := simt.NewMemory(16)
	q := New(m, 0, 8)
	q.Push(packedEnv(1, 1))
	for _, i := range []int{-1, 1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			q.At(i)
		}()
	}
}

func TestNewBadRegionPanics(t *testing.T) {
	m := simt.NewMemory(16)
	defer func() {
		if recover() == nil {
			t.Error("New beyond memory did not panic")
		}
	}()
	New(m, 8, 16)
}

func TestClearLiveReset(t *testing.T) {
	m := simt.NewMemory(32)
	q := New(m, 0, 16)
	for i := 0; i < 10; i++ {
		q.Push(packedEnv(i, 0))
	}
	q.Clear(3)
	q.Clear(7)
	if q.Live() != 8 {
		t.Errorf("Live = %d, want 8", q.Live())
	}
	if q.Valid(3) || !q.Valid(4) {
		t.Error("Valid flags wrong after Clear")
	}
	q.Reset()
	if q.Len() != 0 || q.Live() != 0 {
		t.Error("Reset did not empty queue")
	}
}

func TestCompactHostPreservesOrder(t *testing.T) {
	m := simt.NewMemory(32)
	q := New(m, 0, 16)
	for i := 0; i < 10; i++ {
		q.Push(packedEnv(i, 0))
	}
	for _, i := range []int{0, 4, 9} {
		q.Clear(i)
	}
	n := q.CompactHost()
	if n != 7 || q.Len() != 7 {
		t.Fatalf("CompactHost = %d, len=%d, want 7", n, q.Len())
	}
	want := []int{1, 2, 3, 5, 6, 7, 8}
	for i, src := range want {
		e, _ := envelope.UnpackEnvelope(q.At(i))
		if int(e.Src) != src {
			t.Errorf("entry %d: src=%d, want %d", i, e.Src, src)
		}
	}
}

func TestCompactSIMTMatchesHost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300) + 1
		memA, memB := simt.NewMemory(n+8), simt.NewMemory(n+8)
		qa, qb := New(memA, 4, n), New(memB, 4, n)
		for i := 0; i < n; i++ {
			w := packedEnv(i, rng.Intn(100))
			qa.Push(w)
			qb.Push(w)
		}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				qa.Clear(i)
				qb.Clear(i)
			}
		}
		cta := simt.NewCTA(0, 128, 64)
		na := qa.Compact(cta)
		nb := qb.CompactHost()
		if na != nb {
			t.Fatalf("trial %d: SIMT compact len %d, host %d", trial, na, nb)
		}
		for i := 0; i < na; i++ {
			if qa.At(i) != qb.At(i) {
				t.Fatalf("trial %d: entry %d differs: %#x vs %#x", trial, i, qa.At(i), qb.At(i))
			}
		}
	}
}

func TestCompactSIMTBillsInstructions(t *testing.T) {
	m := simt.NewMemory(128)
	q := New(m, 0, 100)
	for i := 0; i < 100; i++ {
		q.Push(packedEnv(i, 0))
	}
	q.Clear(50)
	cta := simt.NewCTA(0, 1024, 64)
	q.Compact(cta)
	c := cta.Counters()
	if c.GMemLoad == 0 || c.GMemStore == 0 || c.Ballot == 0 || c.Sync == 0 {
		t.Errorf("compaction billed no work: %+v", c)
	}
}

func TestCompactSIMTAllBubbles(t *testing.T) {
	m := simt.NewMemory(64)
	q := New(m, 0, 32)
	for i := 0; i < 20; i++ {
		q.Push(packedEnv(i, 0))
	}
	for i := 0; i < 20; i++ {
		q.Clear(i)
	}
	cta := simt.NewCTA(0, 64, 8)
	if n := q.Compact(cta); n != 0 {
		t.Errorf("Compact of all-bubbles = %d, want 0", n)
	}
}

func TestCompactSIMTEmptyQueue(t *testing.T) {
	m := simt.NewMemory(16)
	q := New(m, 0, 8)
	cta := simt.NewCTA(0, 32, 4)
	if n := q.Compact(cta); n != 0 {
		t.Errorf("Compact of empty = %d, want 0", n)
	}
}

func TestCompactProperty(t *testing.T) {
	// Property: after Compact, Live == Len and the surviving
	// subsequence equals the pre-compaction live subsequence.
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%200 + 1
		m := simt.NewMemory(n + 4)
		q := New(m, 0, n)
		var live []uint64
		for i := 0; i < n; i++ {
			w := packedEnv(i, 0)
			q.Push(w)
		}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				q.Clear(i)
			} else {
				live = append(live, q.At(i))
			}
		}
		cta := simt.NewCTA(0, 96, 16)
		q.Compact(cta)
		if q.Len() != len(live) || q.Live() != len(live) {
			return false
		}
		for i, w := range live {
			if q.At(i) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInvariantsHoldThroughLifecycle(t *testing.T) {
	m := simt.NewMemory(64)
	q := New(m, 8, 16)
	check := func(stage string) {
		t.Helper()
		if err := q.Invariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	check("fresh")
	for i := 0; i < 12; i++ {
		q.Push(packedEnv(i, 0))
	}
	check("pushed")
	q.Clear(2)
	q.Clear(9)
	check("cleared")
	live := q.Live()
	q.CompactHost()
	check("compacted")
	if err := q.VerifyCompacted(live); err != nil {
		t.Fatal(err)
	}
	q.Reset()
	check("reset")
}

func TestInvariantsDetectCorruption(t *testing.T) {
	m := simt.NewMemory(32)
	q := New(m, 0, 16)
	q.Push(packedEnv(1, 1))
	// A header written past the logical count is a violation: the
	// matching kernels scan [0, Len) and would silently miss it.
	m.Store(q.base+5, packedEnv(9, 9))
	if err := q.Invariants(); err == nil {
		t.Error("stray header past count not detected")
	}
}

func TestVerifyCompactedDetectsViolations(t *testing.T) {
	m := simt.NewMemory(32)
	q := New(m, 0, 16)
	for i := 0; i < 6; i++ {
		q.Push(packedEnv(i, 0))
	}
	q.Clear(1)
	// Not compacted yet: a surviving bubble must be reported.
	if err := q.VerifyCompacted(5); err == nil {
		t.Error("surviving bubble not detected")
	}
	q.CompactHost()
	if err := q.VerifyCompacted(5); err != nil {
		t.Errorf("clean compaction rejected: %v", err)
	}
	// Wrong expected count: conservation violation.
	if err := q.VerifyCompacted(4); err == nil {
		t.Error("length-conservation violation not detected")
	}
}

func TestCompactSIMTConservesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(200) + 1
		m := simt.NewMemory(n + 8)
		q := New(m, 0, n)
		for i := 0; i < n; i++ {
			q.Push(packedEnv(i, rng.Intn(50)))
		}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				q.Clear(i)
			}
		}
		live := q.Live()
		cta := simt.NewCTA(0, 256, 16)
		q.Compact(cta)
		if err := q.VerifyCompacted(live); err != nil {
			t.Fatalf("trial %d (n=%d live=%d): %v", trial, n, live, err)
		}
	}
}

// compactPerLane is the compaction kernel as it was written on the
// per-lane warp primitives (callbacks for every address and predicate,
// per-tile buffers on the heap). It is the reference that Compact's
// shaped primitives must reproduce: same queue, same counters.
func compactPerLane(q *Queue, cta *simt.CTA) int {
	warps := cta.Warps()
	tile := len(warps) * simt.LaneCount
	writeBase := 0
	for tileStart := 0; tileStart < q.count; tileStart += tile {
		words := make([][simt.LaneCount]uint64, len(warps))
		masks := make([]uint32, len(warps))
		for wi, w := range warps {
			start := tileStart + wi*simt.LaneCount
			inRange := func(lane int) bool { return start+lane < q.count }
			valid := w.Ballot(inRange)
			w.WithMask(valid, func() {
				w.LoadGlobal(q.mem,
					func(lane int) int { return q.base + start + lane },
					func(lane int, v uint64) { words[wi][lane] = v })
			})
			masks[wi] = w.Ballot(func(lane int) bool {
				return inRange(lane) && words[wi][lane] != 0
			})
		}
		cta.SyncThreads()

		w0 := warps[0]
		nw := len(warps)
		warpOffsets := make([]int, nw)
		w0.WithMask(simt.FullMask>>(uint(simt.LaneCount-min(nw, simt.LaneCount))), func() {
			w0.Exec(2, func(lane int) {
				if lane < nw {
					sum := 0
					for i := 0; i < lane; i++ {
						sum += simt.Popc(masks[i])
					}
					warpOffsets[lane] = sum
				}
			})
			if cta.Shared.Len() > 0 {
				w0.StoreShared(cta.Shared,
					func(lane int) int { return lane % cta.Shared.Len() },
					func(lane int) uint64 { return uint64(warpOffsets[lane]) })
			}
		})
		cta.SyncThreads()

		for wi, w := range warps {
			mask := masks[wi]
			w.WithMask(mask, func() {
				w.Exec(2, func(lane int) {})
				w.StoreGlobal(q.mem,
					func(lane int) int {
						prefix := simt.Popc(mask & (simt.LaneMask(lane) - 1))
						return q.base + writeBase + warpOffsets[wi] + prefix
					},
					func(lane int) uint64 { return words[wi][lane] })
			})
		}
		cta.SyncThreads()

		kept := 0
		for _, m := range masks {
			kept += simt.Popc(m)
		}
		writeBase += kept
	}
	q.mem.Fill(q.base+writeBase, q.count-writeBase, 0)
	q.count = writeBase
	return writeBase
}

// TestCompactMatchesPerLaneKernel runs Compact and the per-lane
// reference on twin queues with random bubbles, across queue lengths
// around warp and tile boundaries and across CTA shapes (a full CTA,
// a partial last warp, a single warp), and requires identical queues,
// shared memory and counters.
func TestCompactMatchesPerLaneKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ threads, shared int }{{1024, 32}, {96, 16}, {40, 2}, {32, 1}}
	for _, n := range []int{0, 1, 31, 32, 33, 1023, 1024, 1025, 2500} {
		for _, sh := range shapes {
			for _, density := range []float64{0, 0.1, 0.5, 0.9, 1} {
				const base = 5
				ma, mb := simt.NewMemory(n+base+3), simt.NewMemory(n+base+3)
				qa, qb := New(ma, base, n), New(mb, base, n)
				for i := 0; i < n; i++ {
					v := uint64(i) + 1
					qa.Push(v) //nolint:errcheck
					qb.Push(v) //nolint:errcheck
					if rng.Float64() >= density {
						qa.Clear(i)
						qb.Clear(i)
					}
				}
				ca, cb := simt.NewCTA(0, sh.threads, sh.shared), simt.NewCTA(0, sh.threads, sh.shared)
				na, nb := qa.Compact(ca), compactPerLane(qb, cb)
				if na != nb || qa.Len() != qb.Len() {
					t.Fatalf("n=%d cta=%v density=%v: Compact kept %d, per-lane %d", n, sh, density, na, nb)
				}
				if ca.Counters() != cb.Counters() {
					t.Fatalf("n=%d cta=%v density=%v: counters differ\nshaped   %+v\nper-lane %+v",
						n, sh, density, ca.Counters(), cb.Counters())
				}
				if !slices.Equal(ma.Slice(0, ma.Len()), mb.Slice(0, mb.Len())) {
					t.Fatalf("n=%d cta=%v density=%v: queue memories differ", n, sh, density)
				}
				if !slices.Equal(ca.Shared.Slice(0, sh.shared), cb.Shared.Slice(0, sh.shared)) {
					t.Fatalf("n=%d cta=%v density=%v: shared memories differ", n, sh, density)
				}
			}
		}
	}
}

func TestCompactRejectsUndersizedShared(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Compact with fewer shared words than warps did not panic")
		}
	}()
	q := New(simt.NewMemory(8), 0, 8)
	q.Compact(simt.NewCTA(0, 64, 1))
}
