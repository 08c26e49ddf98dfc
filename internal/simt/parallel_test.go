package simt

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"simtmp/internal/arch"
)

func TestParallelForCoversAllIterations(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		ParallelFor(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: iteration %d ran %d times, want 1", workers, i, got)
			}
		}
	}
	ParallelFor(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

func TestParallelForPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	ParallelFor(100, 4, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

// TestParallelForFirstPanicInIterationOrder makes several iterations
// panic and requires the lowest one to be re-raised, whichever worker
// ran it.
func TestParallelForFirstPanicInIterationOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		func() {
			defer func() {
				if s, _ := recover().(string); !strings.Contains(s, "iteration 11 panicked: boom 11") {
					t.Fatalf("trial %d: got panic %q, want iteration 11", trial, s)
				}
			}()
			ParallelFor(64, 4, func(i int) {
				if i == 11 || i == 12 || i == 40 || i == 63 {
					panic(fmt.Sprintf("boom %d", i))
				}
			})
		}()
	}
	// The pool survives panicking iterations.
	var hits atomic.Int32
	ParallelFor(100, 4, func(int) { hits.Add(1) })
	if hits.Load() != 100 {
		t.Fatalf("after panics: %d iterations ran, want 100", hits.Load())
	}
}

// TestParallelForSurvivesGoexit ends iterations with runtime.Goexit,
// as t.FailNow does: whichever goroutine ran them, the call must not
// hang, and later calls must still cover every iteration.
func TestParallelForSurvivesGoexit(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ParallelFor(32, 2, func(i int) {
				if i%8 == 3 {
					runtime.Goexit()
				}
			})
		}()
		<-done
	}
	var hits atomic.Int32
	ParallelFor(100, 2, func(int) { hits.Add(1) })
	if hits.Load() != 100 {
		t.Fatalf("after Goexit: %d iterations ran, want 100", hits.Load())
	}
}

// TestParallelForNested runs ParallelFor inside ParallelFor iterations,
// deeper than the helper pool is wide: inner calls that find no idle
// helper run on their caller, so every level completes.
func TestParallelForNested(t *testing.T) {
	const outer, inner = 16, 16
	var hits [outer * inner * 4]atomic.Int32
	ParallelFor(outer, 4, func(i int) {
		ParallelFor(inner, 4, func(j int) {
			ParallelFor(4, 2, func(k int) { hits[(i*inner+j)*4+k].Add(1) })
		})
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("iteration %d ran %d times, want 1", i, got)
		}
	}
}

// TestParallelForWarmDoesNotAllocate checks the steady state the
// engines rely on: once the helpers exist, a call with a persistent fn
// allocates nothing. Explicit workers matter here, because AllocsPerRun
// pins GOMAXPROCS to 1 and workers <= 0 would resolve to the plain loop.
func TestParallelForWarmDoesNotAllocate(t *testing.T) {
	var sum atomic.Int64
	fn := func(i int) { sum.Add(int64(i)) }
	for _, workers := range []int{2, 4} {
		ParallelFor(64, workers, fn) // start the helpers
		if allocs := testing.AllocsPerRun(100, func() { ParallelFor(64, workers, fn) }); allocs != 0 {
			t.Errorf("workers=%d: ParallelFor allocates %.1f per call, want 0", workers, allocs)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(1) != 1 || Workers(5) != 5 {
		t.Fatal("explicit worker counts must pass through")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("defaulted worker count must be at least 1")
	}
}

// countingKernel is a grid whose CTAs are independent: each CTA writes
// a deterministic mix of per-lane values into its own disjoint global
// region, exercising every counter class.
func countingKernel(seed int64) (Kernel, int) {
	const perCTA = 64
	return func(c *CTA, g *Memory) {
		rng := rand.New(rand.NewSource(seed + int64(c.ID)))
		base := c.ID * perCTA
		for _, w := range c.Warps() {
			mix := rng.Uint64()
			w.Issue(2)
			vote := w.Ballot(func(lane int) bool { return mix>>uint(lane)&1 == 1 })
			w.StoreShared(c.Shared, func(lane int) int { return lane % 8 }, func(lane int) uint64 { return mix })
			w.LoadShared(c.Shared, func(lane int) int { return lane % 8 }, func(lane int, v uint64) {})
			w.WithMask(vote, func() {
				w.StoreGlobal(g, func(lane int) int { return base + w.ID*LaneCount + lane },
					func(lane int) uint64 { return mix ^ uint64(lane) })
			})
			w.LoadGlobal(g, func(lane int) int { return base + (lane*7)%perCTA }, func(lane int, v uint64) {})
			w.AtomicAdd(g, func(lane int) int { return base }, func(lane int) uint64 { return 1 }, func(int, uint64) {})
		}
		c.SyncThreads()
	}, perCTA
}

// TestLaunchParallelDeterministic runs the same independent-CTA kernel
// via Launch and LaunchParallel across seeds and asserts bit-identical
// global memory, per-CTA counters, and totals.
func TestLaunchParallelDeterministic(t *testing.T) {
	a := arch.PascalGTX1080()
	for seed := int64(0); seed < 5; seed++ {
		kernel, perCTA := countingKernel(seed)
		const ctas = 12
		seq := NewDevice(a, ctas*perCTA)
		seqStats := seq.Launch(ctas, 64, 8, 16, kernel)

		for _, workers := range []int{2, 4, 16} {
			par := NewDevice(a, ctas*perCTA)
			parStats := par.LaunchParallel(ctas, 64, 8, 16, workers, kernel)

			if len(parStats.PerCTA) != len(seqStats.PerCTA) {
				t.Fatalf("seed %d: PerCTA length %d != %d", seed, len(parStats.PerCTA), len(seqStats.PerCTA))
			}
			for i := range seqStats.PerCTA {
				if parStats.PerCTA[i] != seqStats.PerCTA[i] {
					t.Fatalf("seed %d workers %d: CTA %d counters differ:\npar %+v\nseq %+v",
						seed, workers, i, parStats.PerCTA[i], seqStats.PerCTA[i])
				}
			}
			if parStats.Total() != seqStats.Total() {
				t.Fatalf("seed %d workers %d: totals differ", seed, workers)
			}
			if parStats.Footprint != seqStats.Footprint {
				t.Fatalf("seed %d workers %d: footprints differ", seed, workers)
			}
			for addr := 0; addr < ctas*perCTA; addr++ {
				if par.Global.Load(addr) != seq.Global.Load(addr) {
					t.Fatalf("seed %d workers %d: global[%d] = %d, want %d",
						seed, workers, addr, par.Global.Load(addr), seq.Global.Load(addr))
				}
			}
		}
	}
}

// Reference implementations of the coalescing and bank-conflict models,
// kept as the specification the alloc-free versions must match.
func refTransactions(addrs []int) uint64 {
	if len(addrs) == 0 {
		return 0
	}
	seen := make(map[int]struct{}, len(addrs))
	for _, a := range addrs {
		seen[a/segmentWords] = struct{}{}
	}
	return uint64(len(seen))
}

func refBankConflicts(addrs []int) uint64 {
	var perBank [bankCount]map[int]struct{}
	worst := 1
	for _, a := range addrs {
		b := a % bankCount
		if perBank[b] == nil {
			perBank[b] = make(map[int]struct{}, 2)
		}
		perBank[b][a] = struct{}{}
		if n := len(perBank[b]); n > worst {
			worst = n
		}
	}
	return uint64(worst - 1)
}

func TestMemoryModelCountersMatchReferenceAndDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]int{
		{}, {0}, {0, 0, 0}, {0, 16, 32, 48}, {5, 5, 37, 69, 5},
	}
	for i := 0; i < 200; i++ {
		n := rng.Intn(LaneCount + 1)
		addrs := make([]int, n)
		for j := range addrs {
			addrs[j] = rng.Intn(300)
		}
		cases = append(cases, addrs)
	}
	for _, addrs := range cases {
		if got, want := transactions(addrs), refTransactions(addrs); got != want {
			t.Fatalf("transactions(%v) = %d, want %d", addrs, got, want)
		}
		if got, want := bankConflicts(addrs), refBankConflicts(addrs); got != want {
			t.Fatalf("bankConflicts(%v) = %d, want %d", addrs, got, want)
		}
	}
	big := cases[len(cases)-1]
	if allocs := testing.AllocsPerRun(100, func() {
		transactions(big)
		bankConflicts(big)
	}); allocs != 0 {
		t.Fatalf("memory-model counters allocate %.1f times per access, want 0", allocs)
	}
}

func TestCTAResetMatchesFresh(t *testing.T) {
	used := NewCTA(0, 100, 64)
	kernel, _ := countingKernel(3)
	// Dirty the CTA thoroughly, then reset.
	g := NewMemory(64 * 12)
	kernel(used, g)
	used.Warp(0).SetActive(0x5)
	used.Reset()

	fresh := NewCTA(0, 100, 64)
	if used.Counters() != fresh.Counters() {
		t.Fatalf("reset counters %+v != fresh %+v", used.Counters(), fresh.Counters())
	}
	if len(used.Warps()) != len(fresh.Warps()) {
		t.Fatalf("reset warps %d != fresh %d", len(used.Warps()), len(fresh.Warps()))
	}
	for i := range used.Warps() {
		if used.Warp(i).Active() != fresh.Warp(i).Active() {
			t.Fatalf("warp %d mask %#x != fresh %#x", i, used.Warp(i).Active(), fresh.Warp(i).Active())
		}
	}
	for a := 0; a < 64; a++ {
		if used.Shared.Load(a) != 0 {
			t.Fatalf("shared[%d] = %d after Reset, want 0", a, used.Shared.Load(a))
		}
	}
}

func TestCTACacheReusesByShape(t *testing.T) {
	var cc CTACache
	a := cc.Get(0, 1024, 128)
	b := cc.Get(3, 1024, 128)
	if a != b {
		t.Fatal("same shape must reuse the CTA")
	}
	if b.ID != 3 {
		t.Fatalf("reused CTA ID = %d, want 3", b.ID)
	}
	if c := cc.Get(0, 64, 128); c == a {
		t.Fatal("different thread count must not reuse")
	}
	if c := cc.Get(0, 1024, 16); c == a {
		t.Fatal("different shared size must not reuse")
	}
	if allocs := testing.AllocsPerRun(50, func() { cc.Get(1, 1024, 128) }); allocs != 0 {
		t.Fatalf("cache hit allocates %.1f, want 0", allocs)
	}
}
