package simt

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestFfs(t *testing.T) {
	cases := []struct {
		x    uint32
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{0x80000000, 32},
		{0xFFFFFFFF, 1},
		{0b1010_0000, 6},
	}
	for _, c := range cases {
		if got := Ffs(c.x); got != c.want {
			t.Errorf("Ffs(%#x) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestFfsMatchesBits(t *testing.T) {
	f := func(x uint32) bool {
		got := Ffs(x)
		if x == 0 {
			return got == 0
		}
		return got == bits.TrailingZeros32(x)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPopcClz(t *testing.T) {
	if got := Popc(0b1011); got != 3 {
		t.Errorf("Popc(0b1011) = %d, want 3", got)
	}
}

func TestLaneMask(t *testing.T) {
	if got := LaneMask(0); got != 1 {
		t.Errorf("LaneMask(0) = %#x, want 1", got)
	}
	if got := LaneMask(31); got != 0x80000000 {
		t.Errorf("LaneMask(31) = %#x, want 0x80000000", got)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	m := NewMemory(16)
	if m.Len() != 16 {
		t.Fatalf("Len = %d, want 16", m.Len())
	}
	m.Store(3, 42)
	if got := m.Load(3); got != 42 {
		t.Errorf("Load(3) = %d, want 42", got)
	}
}

func TestMemoryCAS(t *testing.T) {
	m := NewMemory(4)
	m.Store(0, 7)
	prev, ok := m.CAS(0, 7, 9)
	if !ok || prev != 7 {
		t.Errorf("CAS match: prev=%d ok=%v, want 7 true", prev, ok)
	}
	prev, ok = m.CAS(0, 7, 11)
	if ok || prev != 9 {
		t.Errorf("CAS mismatch: prev=%d ok=%v, want 9 false", prev, ok)
	}
}

func TestMemoryAtomics(t *testing.T) {
	m := NewMemory(2)
	if prev := m.AtomicAdd(0, 5); prev != 0 {
		t.Errorf("AtomicAdd prev = %d, want 0", prev)
	}
	if got := m.Load(0); got != 5 {
		t.Errorf("after AtomicAdd: %d, want 5", got)
	}
}

func TestMemoryFillSlice(t *testing.T) {
	m := NewMemory(10)
	m.Fill(2, 3, 9)
	s := m.Slice(1, 5)
	want := []uint64{0, 9, 9, 9, 0}
	for i, v := range want {
		if s[i] != v {
			t.Errorf("Slice[%d] = %d, want %d", i, s[i], v)
		}
	}
	s[0] = 77 // aliases underlying storage
	if m.Load(1) != 77 {
		t.Error("Slice does not alias memory")
	}
}

func TestMemoryNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMemory(-1) did not panic")
		}
	}()
	NewMemory(-1)
}

func TestTransactionsCoalescing(t *testing.T) {
	// 32 sequential words span exactly two 16-word segments.
	seq := make([]int, 32)
	for i := range seq {
		seq[i] = i
	}
	if got := transactions(seq); got != 2 {
		t.Errorf("sequential access: %d transactions, want 2", got)
	}
	// Strided by a full segment: one transaction per lane.
	strided := make([]int, 32)
	for i := range strided {
		strided[i] = i * segmentWords
	}
	if got := transactions(strided); got != 32 {
		t.Errorf("strided access: %d transactions, want 32", got)
	}
	// Broadcast: a single transaction.
	if got := transactions([]int{5, 5, 5, 5}); got != 1 {
		t.Errorf("broadcast access: %d transactions, want 1", got)
	}
	if got := transactions(nil); got != 0 {
		t.Errorf("empty access: %d transactions, want 0", got)
	}
}

func newTestWarp() (*Warp, *Counters) {
	var c Counters
	return NewWarp(0, &c), &c
}

func TestBallot(t *testing.T) {
	w, c := newTestWarp()
	v := w.Ballot(func(lane int) bool { return lane%2 == 0 })
	if v != 0x55555555 {
		t.Errorf("Ballot(even lanes) = %#x, want 0x55555555", v)
	}
	if c.Ballot != 1 {
		t.Errorf("Ballot counter = %d, want 1", c.Ballot)
	}
}

func TestBallotRespectsMask(t *testing.T) {
	w, _ := newTestWarp()
	w.SetActive(0x0000000F)
	v := w.Ballot(func(lane int) bool { return true })
	if v != 0x0000000F {
		t.Errorf("Ballot under mask = %#x, want 0xF", v)
	}
}

func TestAnyAll(t *testing.T) {
	w, _ := newTestWarp()
	if !w.Any(func(lane int) bool { return lane == 17 }) {
		t.Error("Any(lane==17) = false, want true")
	}
	if w.All(func(lane int) bool { return lane == 17 }) {
		t.Error("All(lane==17) = true, want false")
	}
	w.SetActive(0)
	if !w.All(func(lane int) bool { return false }) {
		t.Error("All on empty mask should be vacuously true")
	}
}

func TestExecVisitsActiveLanesInOrder(t *testing.T) {
	w, c := newTestWarp()
	w.SetActive(0b1010)
	var visited []int
	w.Exec(3, func(lane int) { visited = append(visited, lane) })
	if len(visited) != 2 || visited[0] != 1 || visited[1] != 3 {
		t.Errorf("visited = %v, want [1 3]", visited)
	}
	if c.ALU != 3 {
		t.Errorf("ALU counter = %d, want 3", c.ALU)
	}
}

func TestExecNegativePanics(t *testing.T) {
	w, _ := newTestWarp()
	defer func() {
		if recover() == nil {
			t.Error("Exec(-1) did not panic")
		}
	}()
	w.Exec(-1, func(int) {})
}

func TestWithMask(t *testing.T) {
	w, c := newTestWarp()
	w.SetActive(0x0000FFFF)
	ran := false
	w.WithMask(0x000000FF, func() {
		ran = true
		if w.Active() != 0x000000FF {
			t.Errorf("inner mask = %#x, want 0xFF", w.Active())
		}
	})
	if !ran {
		t.Error("body not run")
	}
	if w.Active() != 0x0000FFFF {
		t.Errorf("mask not restored: %#x", w.Active())
	}
	// Disjoint mask: body must be skipped.
	w.WithMask(0xFFFF0000, func() { t.Error("body run with empty mask") })
	if c.Branch != 2 {
		t.Errorf("Branch counter = %d, want 2", c.Branch)
	}
}

func TestDiverge(t *testing.T) {
	w, _ := newTestWarp()
	var thenLanes, elseLanes int
	w.Diverge(func(lane int) bool { return lane < 8 },
		func() { thenLanes = Popc(w.Active()) },
		func() { elseLanes = Popc(w.Active()) })
	if thenLanes != 8 || elseLanes != 24 {
		t.Errorf("then=%d else=%d, want 8/24", thenLanes, elseLanes)
	}
	if w.Active() != FullMask {
		t.Errorf("mask not restored after Diverge: %#x", w.Active())
	}
}

func TestShfl(t *testing.T) {
	w, c := newTestWarp()
	var out [LaneCount]uint64
	// Rotate-by-one shuffle.
	w.Shfl(
		func(lane int) uint64 { return uint64(lane * 10) },
		func(lane int) int { return (lane + 1) % LaneCount },
		func(lane int, v uint64) { out[lane] = v },
	)
	if out[0] != 10 || out[31] != 0 {
		t.Errorf("Shfl rotate: out[0]=%d out[31]=%d, want 10, 0", out[0], out[31])
	}
	if c.Shfl != 1 {
		t.Errorf("Shfl counter = %d, want 1", c.Shfl)
	}
}

func TestShflOutOfRangePanics(t *testing.T) {
	w, _ := newTestWarp()
	defer func() {
		if recover() == nil {
			t.Error("Shfl with bad source lane did not panic")
		}
	}()
	w.Shfl(func(int) uint64 { return 0 }, func(int) int { return 99 }, func(int, uint64) {})
}

func TestLoadStoreGlobalAndCoalescing(t *testing.T) {
	w, c := newTestWarp()
	m := NewMemory(1024)
	w.StoreGlobal(m, func(lane int) int { return lane }, func(lane int) uint64 { return uint64(lane + 1) })
	if c.GMemStore != 1 {
		t.Errorf("GMemStore = %d, want 1", c.GMemStore)
	}
	if c.GMemTrans != 2 { // 32 sequential words = 2 segments
		t.Errorf("GMemTrans after sequential store = %d, want 2", c.GMemTrans)
	}
	var sum uint64
	w.LoadGlobal(m, func(lane int) int { return lane }, func(lane int, v uint64) { sum += v })
	if sum != 32*33/2 {
		t.Errorf("sum = %d, want %d", sum, 32*33/2)
	}
	// Fully strided gather: one transaction per lane.
	before := c.GMemTrans
	w.LoadGlobal(m, func(lane int) int { return lane * segmentWords }, func(int, uint64) {})
	if got := c.GMemTrans - before; got != 32 {
		t.Errorf("strided gather transactions = %d, want 32", got)
	}
}

func TestStoreGlobalSameAddressLaneOrder(t *testing.T) {
	w, _ := newTestWarp()
	m := NewMemory(4)
	w.StoreGlobal(m, func(lane int) int { return 0 }, func(lane int) uint64 { return uint64(lane) })
	if got := m.Load(0); got != 31 {
		t.Errorf("last-lane-wins store = %d, want 31", got)
	}
}

func TestAtomicCASContention(t *testing.T) {
	w, c := newTestWarp()
	m := NewMemory(1)
	winners := 0
	w.AtomicCAS(m,
		func(lane int) int { return 0 },
		func(lane int) uint64 { return 0 },
		func(lane int) uint64 { return uint64(lane + 1) },
		func(lane int, prev uint64, swapped bool) {
			if swapped {
				winners++
			}
		})
	if winners != 1 {
		t.Errorf("CAS winners = %d, want exactly 1", winners)
	}
	if got := m.Load(0); got != 1 { // lane 0 executes first
		t.Errorf("CAS result = %d, want 1", got)
	}
	if c.Atomic != 1 {
		t.Errorf("Atomic counter = %d, want 1", c.Atomic)
	}
}

func TestAtomicAddWarpSum(t *testing.T) {
	w, _ := newTestWarp()
	m := NewMemory(1)
	w.AtomicAdd(m, func(int) int { return 0 }, func(int) uint64 { return 1 }, func(int, uint64) {})
	if got := m.Load(0); got != 32 {
		t.Errorf("atomic sum = %d, want 32", got)
	}
}

func TestSharedMemoryOps(t *testing.T) {
	w, c := newTestWarp()
	sm := NewMemory(64)
	w.StoreShared(sm, func(lane int) int { return lane }, func(lane int) uint64 { return uint64(lane * lane) })
	got := uint64(0)
	w.LoadShared(sm, func(lane int) int { return lane }, func(lane int, v uint64) {
		if lane == 5 {
			got = v
		}
	})
	if got != 25 {
		t.Errorf("shared roundtrip = %d, want 25", got)
	}
	if c.SMemLoad != 1 || c.SMemStore != 1 {
		t.Errorf("SMem counters = %d/%d, want 1/1", c.SMemLoad, c.SMemStore)
	}
}

func TestCountersAddAndTotals(t *testing.T) {
	a := Counters{ALU: 1, Ballot: 2, Shfl: 3, SMemLoad: 4, SMemStore: 5,
		GMemLoad: 6, GMemStore: 7, GMemTrans: 8, Atomic: 9, Sync: 10, Branch: 11}
	var b Counters
	b.Add(a)
	b.Add(a)
	if b.ALU != 2 || b.Branch != 22 {
		t.Errorf("Add: got %+v", b)
	}
	// Instructions excludes transactions.
	if got, want := a.Instructions(), uint64(1+2+3+4+5+6+7+9+10+11); got != want {
		t.Errorf("Instructions() = %d, want %d", got, want)
	}
	if got, want := a.MemoryInstructions(), uint64(6+7+9); got != want {
		t.Errorf("MemoryInstructions() = %d, want %d", got, want)
	}
}

func TestCTAConstruction(t *testing.T) {
	threads := func(c *CTA) int {
		n := 0
		for _, w := range c.Warps() {
			n += Popc(w.Active())
		}
		return n
	}
	c := NewCTA(0, 1024, 128)
	if len(c.Warps()) != 32 || threads(c) != 1024 {
		t.Errorf("warps/threads = %d/%d, want 32/1024", len(c.Warps()), threads(c))
	}
	// Partial last warp.
	c = NewCTA(1, 100, 0)
	if len(c.Warps()) != 4 || threads(c) != 100 {
		t.Errorf("warps/threads(100 threads) = %d/%d, want 4/100", len(c.Warps()), threads(c))
	}
	if got := Popc(c.Warp(3).Active()); got != 4 {
		t.Errorf("last warp active lanes = %d, want 4", got)
	}
}

func TestCTABadThreadCountPanics(t *testing.T) {
	for _, n := range []int{0, -5, 1025} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCTA with %d threads did not panic", n)
				}
			}()
			NewCTA(0, n, 0)
		}()
	}
}

func TestSyncThreadsBillsPerWarp(t *testing.T) {
	c := NewCTA(0, 256, 0)
	c.SyncThreads()
	c.SyncThreads()
	if got := c.Counters().Sync; got != 16 {
		t.Errorf("Sync counter = %d, want 16", got)
	}
	c.ResetCounters()
	if got := c.Counters().Sync; got != 0 {
		t.Errorf("Sync after reset = %d, want 0", got)
	}
}

func TestGlobalLane(t *testing.T) {
	var ctrs Counters
	w := NewWarp(3, &ctrs)
	if got := w.GlobalLane(5); got != 101 {
		t.Errorf("GlobalLane = %d, want 101", got)
	}
}

func TestNestedWithMask(t *testing.T) {
	w, c := newTestWarp()
	w.SetActive(0x0000FFFF)
	depth2 := uint32(0)
	w.WithMask(0x000000FF, func() {
		w.WithMask(0x0000000F, func() {
			depth2 = w.Active()
		})
		if w.Active() != 0x000000FF {
			t.Errorf("inner restore = %#x", w.Active())
		}
	})
	if depth2 != 0x0000000F {
		t.Errorf("nested mask = %#x, want 0xF", depth2)
	}
	if w.Active() != 0x0000FFFF {
		t.Errorf("outer restore = %#x", w.Active())
	}
	if c.Branch != 2 {
		t.Errorf("Branch = %d, want 2", c.Branch)
	}
}

func TestDivergeNested(t *testing.T) {
	// A 2-level divergent tree must partition the warp into exactly 4
	// disjoint quadrants covering all 32 lanes.
	w, _ := newTestWarp()
	var seen [4]uint32
	w.Diverge(func(lane int) bool { return lane < 16 },
		func() {
			w.Diverge(func(lane int) bool { return lane%2 == 0 },
				func() { seen[0] = w.Active() },
				func() { seen[1] = w.Active() })
		},
		func() {
			w.Diverge(func(lane int) bool { return lane%2 == 0 },
				func() { seen[2] = w.Active() },
				func() { seen[3] = w.Active() })
		})
	union := uint32(0)
	for i, m := range seen {
		if m == 0 {
			t.Fatalf("quadrant %d empty", i)
		}
		if union&m != 0 {
			t.Fatalf("quadrant %d overlaps", i)
		}
		union |= m
	}
	if union != FullMask {
		t.Errorf("quadrants cover %#x, want full warp", union)
	}
}
