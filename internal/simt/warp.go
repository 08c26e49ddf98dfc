package simt

import (
	"fmt"
	"math/bits"
)

// LaneCount is the number of lanes in a warp (CUDA warpSize).
const LaneCount = 32

// FullMask is the active mask with all 32 lanes enabled.
const FullMask uint32 = 0xFFFFFFFF

// Ffs returns the 1-based position of the least significant set bit of
// x, or 0 if x is zero — the semantics of CUDA's __ffs used throughout
// the paper's reduce phase.
func Ffs(x uint32) int {
	if x == 0 {
		return 0
	}
	return bits.TrailingZeros32(x) + 1
}

// Popc returns the number of set bits in x (CUDA __popc).
func Popc(x uint32) int { return bits.OnesCount32(x) }

// LaneMask returns a mask with only the given lane's bit set.
func LaneMask(lane int) uint32 { return 1 << uint(lane) }

// PrefixMask returns the mask of lanes [0, n), clamped to the warp:
// 0 for n <= 0 and FullMask for n >= 32.
func PrefixMask(n int) uint32 {
	switch {
	case n <= 0:
		return 0
	case n >= LaneCount:
		return FullMask
	}
	return FullMask >> uint(LaneCount-n)
}

// Warp is a group of 32 lanes executing in lock step. Each primitive
// bills the warp's instruction counters exactly once regardless of how
// many lanes are active (SIMT issue semantics). Irregular per-lane work
// is expressed as callbacks invoked for each active lane; regular work
// uses the callback-free primitives (Issue, Vote and the shaped memory
// operations of shape.go), which bill the same counters from the shape
// of the access.
type Warp struct {
	// ID is the warp index within its CTA.
	ID     int
	active uint32
	ctrs   *Counters

	// scratch address buffer reused across memory operations to avoid
	// per-call allocation on the simulator hot path.
	addrBuf []int
}

// NewWarp returns a warp with all lanes active, billing into ctrs.
func NewWarp(id int, ctrs *Counters) *Warp {
	return &Warp{ID: id, active: FullMask, ctrs: ctrs, addrBuf: make([]int, 0, LaneCount)}
}

// Active returns the current active mask.
func (w *Warp) Active() uint32 { return w.active }

// SetActive replaces the active mask. A zero mask is permitted (the
// warp is fully predicated off); subsequent primitives still bill
// issue slots, as on hardware where the instruction is fetched and
// issued but all lanes are masked.
func (w *Warp) SetActive(mask uint32) { w.active = mask }

// Counters returns the warp's counter sink.
func (w *Warp) Counters() *Counters { return w.ctrs }

// GlobalLane returns the device-wide linear thread id of the given
// lane assuming this warp's CTA-relative numbering.
func (w *Warp) GlobalLane(lane int) int { return w.ID*LaneCount + lane }

// forEachActive invokes f for each active lane in ascending lane order.
func (w *Warp) forEachActive(f func(lane int)) {
	m := w.active
	for m != 0 {
		lane := bits.TrailingZeros32(m)
		m &^= 1 << uint(lane)
		f(lane)
	}
}

// Exec issues n ALU instructions and applies f once per active lane.
// Use it for register-to-register computation; n should approximate the
// number of machine instructions the lane body compiles to.
func (w *Warp) Exec(n int, f func(lane int)) {
	w.Issue(n)
	w.forEachActive(f)
}

// Issue bills n ALU instructions without running any lane code: the
// callback-free form of Exec for kernels whose register work the host
// has already done (or that has no functional effect).
func (w *Warp) Issue(n int) {
	if n < 0 {
		panic(fmt.Sprintf("simt: negative instruction count %d", n))
	}
	w.ctrs.ALU += uint64(n)
}

// Vote is the callback-free Ballot: bits holds every lane's predicate,
// computed by the host in a plain loop, and Vote bills one ballot and
// returns bits restricted to the active lanes.
func (w *Warp) Vote(bits uint32) uint32 {
	w.ctrs.Ballot++
	return bits & w.active
}

// Ballot evaluates pred on every active lane and returns the 32-bit
// vote vector: bit i is set iff lane i is active and pred(i) is true
// (CUDA __ballot).
func (w *Warp) Ballot(pred func(lane int) bool) uint32 {
	w.ctrs.Ballot++
	var v uint32
	w.forEachActive(func(lane int) {
		if pred(lane) {
			v |= 1 << uint(lane)
		}
	})
	return v
}

// Any reports whether pred holds on any active lane (CUDA __any).
func (w *Warp) Any(pred func(lane int) bool) bool {
	w.ctrs.Ballot++
	found := false
	w.forEachActive(func(lane int) {
		if pred(lane) {
			found = true
		}
	})
	return found
}

// All reports whether pred holds on every active lane (CUDA __all).
// It is vacuously true when no lane is active.
func (w *Warp) All(pred func(lane int) bool) bool {
	w.ctrs.Ballot++
	ok := true
	w.forEachActive(func(lane int) {
		if !pred(lane) {
			ok = false
		}
	})
	return ok
}

// Shfl implements an indexed warp shuffle: every active lane receives
// the value produced by the source lane src(lane). Values from inactive
// source lanes are undefined on hardware; here they read as produced by
// val for determinism. The result is delivered via sink.
func (w *Warp) Shfl(val func(lane int) uint64, src func(lane int) int, sink func(lane int, v uint64)) {
	w.ctrs.Shfl++
	var vals [LaneCount]uint64
	for lane := 0; lane < LaneCount; lane++ {
		vals[lane] = val(lane)
	}
	w.forEachActive(func(lane int) {
		s := src(lane)
		if s < 0 || s >= LaneCount {
			panic(fmt.Sprintf("simt: shfl source lane %d out of range", s))
		}
		sink(lane, vals[s])
	})
}

// WithMask runs body with the active mask narrowed to mask∩active,
// restoring the previous mask afterwards and billing a branch
// instruction — the idiom for a divergent if. If the narrowed mask is
// empty the body is skipped (the hardware would not issue the path).
func (w *Warp) WithMask(mask uint32, body func()) {
	w.ctrs.Branch++
	prev := w.active
	narrowed := prev & mask
	if narrowed == 0 {
		return
	}
	w.active = narrowed
	body()
	w.active = prev
}

// Diverge evaluates pred on active lanes and executes then under the
// true mask and els under the false mask, modeling both sides of a
// divergent branch being serialized. Either body may be nil.
func (w *Warp) Diverge(pred func(lane int) bool, then, els func()) {
	taken := w.Ballot(pred)
	if then != nil {
		w.WithMask(taken, then)
	}
	if els != nil {
		w.WithMask(^taken, els)
	}
}

// LoadGlobal issues one global load: each active lane loads the word at
// addr(lane) from m and receives it via sink. Coalescing is modeled by
// billing one transaction per distinct 128-byte segment.
func (w *Warp) LoadGlobal(m *Memory, addr func(lane int) int, sink func(lane int, v uint64)) {
	w.ctrs.GMemLoad++
	w.addrBuf = w.addrBuf[:0]
	w.forEachActive(func(lane int) {
		a := addr(lane)
		w.addrBuf = append(w.addrBuf, a)
		sink(lane, m.Load(a))
	})
	w.ctrs.GMemTrans += transactions(w.addrBuf)
}

// StoreGlobal issues one global store: each active lane writes
// val(lane) to addr(lane). Lanes storing to the same address resolve in
// ascending lane order (an arbitrary but fixed tie-break, as on
// hardware where one lane wins).
func (w *Warp) StoreGlobal(m *Memory, addr func(lane int) int, val func(lane int) uint64) {
	w.ctrs.GMemStore++
	w.addrBuf = w.addrBuf[:0]
	w.forEachActive(func(lane int) {
		a := addr(lane)
		w.addrBuf = append(w.addrBuf, a)
		m.Store(a, val(lane))
	})
	w.ctrs.GMemTrans += transactions(w.addrBuf)
}

// AtomicCAS issues one warp-wide compare-and-swap: each active lane
// attempts CAS(addr(lane), old(lane), new(lane)); lanes execute in
// ascending lane order, so intra-warp contention on one address behaves
// like hardware serialization. Results arrive via sink.
func (w *Warp) AtomicCAS(m *Memory, addr func(lane int) int, old, new func(lane int) uint64, sink func(lane int, prev uint64, swapped bool)) {
	w.ctrs.Atomic++
	w.addrBuf = w.addrBuf[:0]
	w.forEachActive(func(lane int) {
		a := addr(lane)
		w.addrBuf = append(w.addrBuf, a)
		prev, ok := m.CAS(a, old(lane), new(lane))
		sink(lane, prev, ok)
	})
	w.ctrs.GMemTrans += transactions(w.addrBuf)
}

// CASIntent is one lane's deferred compare-and-swap, staged by
// StageCAS and executed by ApplyCAS. Staging separates the expensive
// per-lane work (address/operand computation, instruction billing) from
// the order-sensitive memory mutation, so warps can stage concurrently
// while the apply step serializes in thread order — the host-parallel
// equivalent of the sequential interleaving.
type CASIntent struct {
	Addr     int
	Old, New uint64
	Lane     int
	// Prev and Swapped are filled by ApplyCAS.
	Prev    uint64
	Swapped bool
}

// StageCAS bills one warp-wide compare-and-swap exactly as AtomicCAS
// would (one atomic instruction plus the coalescing transactions of the
// active lanes' addresses) and appends each active lane's operation to
// buf in ascending lane order, without touching memory. The returned
// slice must be passed to ApplyCAS before its results are read.
func (w *Warp) StageCAS(buf []CASIntent, addr func(lane int) int, old, new func(lane int) uint64) []CASIntent {
	w.ctrs.Atomic++
	w.addrBuf = w.addrBuf[:0]
	w.forEachActive(func(lane int) {
		a := addr(lane)
		w.addrBuf = append(w.addrBuf, a)
		buf = append(buf, CASIntent{Addr: a, Old: old(lane), New: new(lane), Lane: lane})
	})
	w.ctrs.GMemTrans += transactions(w.addrBuf)
	return buf
}

// ApplyCAS executes staged intents against m in slice order, recording
// each operation's outcome in place. Applying per-warp intent buffers
// in warp-id order reproduces exactly the interleaving of sequential
// warp execution, because within one staged instruction lanes always
// resolve in ascending lane order (as AtomicCAS does).
func ApplyCAS(m *Memory, intents []CASIntent) {
	for i := range intents {
		in := &intents[i]
		in.Prev, in.Swapped = m.CAS(in.Addr, in.Old, in.New)
	}
}

// AtomicAdd issues one warp-wide atomic add; each active lane adds
// delta(lane) at addr(lane) and receives the previous value via sink.
func (w *Warp) AtomicAdd(m *Memory, addr func(lane int) int, delta func(lane int) uint64, sink func(lane int, prev uint64)) {
	w.ctrs.Atomic++
	w.addrBuf = w.addrBuf[:0]
	w.forEachActive(func(lane int) {
		a := addr(lane)
		w.addrBuf = append(w.addrBuf, a)
		sink(lane, m.AtomicAdd(a, delta(lane)))
	})
	w.ctrs.GMemTrans += transactions(w.addrBuf)
}

// bankCount is the number of shared-memory banks (NVIDIA: 32 banks,
// one word wide each).
const bankCount = 32

// bankConflicts returns the serialization degree minus one of a warp
// shared-memory access: the worst bank's count of DISTINCT addresses
// (same-address lanes broadcast and do not conflict). At most 32
// addresses arrive, so duplicates are found by a linear rescan and the
// per-bank tallies live in a stack array — no allocation on a path that
// runs once per simulated shared-memory instruction.
func bankConflicts(addrs []int) uint64 {
	var cnt [bankCount]uint8
	worst := uint8(1)
	for i, a := range addrs {
		dup := false
		for _, b := range addrs[:i] {
			if b == a {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		bank := a % bankCount
		cnt[bank]++
		if cnt[bank] > worst {
			worst = cnt[bank]
		}
	}
	return uint64(worst - 1)
}

// LoadShared issues one shared-memory load per active lane. Lanes
// hitting the same bank with different addresses serialize; the extra
// passes are billed as SMemConflict cycles (same-address lanes
// broadcast for free).
func (w *Warp) LoadShared(m *Memory, addr func(lane int) int, sink func(lane int, v uint64)) {
	w.ctrs.SMemLoad++
	w.addrBuf = w.addrBuf[:0]
	w.forEachActive(func(lane int) {
		a := addr(lane)
		w.addrBuf = append(w.addrBuf, a)
		sink(lane, m.Load(a))
	})
	w.ctrs.SMemConflict += bankConflicts(w.addrBuf)
}

// StoreShared issues one shared-memory store per active lane. Lanes
// writing the same address resolve in ascending lane order; bank
// conflicts are billed as for LoadShared.
func (w *Warp) StoreShared(m *Memory, addr func(lane int) int, val func(lane int) uint64) {
	w.ctrs.SMemStore++
	w.addrBuf = w.addrBuf[:0]
	w.forEachActive(func(lane int) {
		a := addr(lane)
		w.addrBuf = append(w.addrBuf, a)
		m.Store(a, val(lane))
	})
	w.ctrs.SMemConflict += bankConflicts(w.addrBuf)
}
