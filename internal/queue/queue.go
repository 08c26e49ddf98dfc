// Package queue implements the GPU-resident message and receive-request
// queues of the paper's §V: contiguous arrays of packed 64-bit headers
// in simulated device global memory, with the UMQ at the head of the
// message queue and the PRQ at the head of the request queue. Matched
// entries are cleared in place (bubbles); Compact removes the bubbles
// with a warp-parallel stream compaction (ballot + popcount prefix sum
// followed by a scatter), the step whose ~10% cost the paper measures.
package queue

import (
	"fmt"
	"math/bits"

	"simtmp/internal/simt"
)

// Queue is a dense, ordered array of packed headers in device memory.
// Index 0 is the oldest entry; matching order follows indices.
type Queue struct {
	mem   *simt.Memory
	base  int
	cap   int
	count int
}

// New creates a queue over mem[base, base+capacity). The region is
// zeroed (all slots invalid).
func New(mem *simt.Memory, base, capacity int) *Queue {
	if capacity < 0 || base < 0 || base+capacity > mem.Len() {
		panic(fmt.Sprintf("queue: region [%d,%d) outside memory of %d words", base, base+capacity, mem.Len()))
	}
	mem.Fill(base, capacity, 0)
	return &Queue{mem: mem, base: base, cap: capacity}
}

// Cap returns the queue capacity in entries.
func (q *Queue) Cap() int { return q.cap }

// Len returns the number of entries (including cleared bubbles not yet
// compacted).
func (q *Queue) Len() int { return q.count }

// Push appends a packed header at the tail. It reports an error when
// the queue is full — the flow-control condition a real receiver must
// handle.
func (q *Queue) Push(word uint64) error {
	if q.count == q.cap {
		return fmt.Errorf("queue: full (%d entries)", q.cap)
	}
	q.mem.Store(q.base+q.count, word)
	q.count++
	return nil
}

// At returns the packed word of entry i (host-side readout).
func (q *Queue) At(i int) uint64 {
	if i < 0 || i >= q.count {
		panic(fmt.Sprintf("queue: index %d out of range [0,%d)", i, q.count))
	}
	return q.mem.Load(q.base + i)
}

// Clear invalidates entry i in place, leaving a bubble.
func (q *Queue) Clear(i int) {
	if i < 0 || i >= q.count {
		panic(fmt.Sprintf("queue: index %d out of range [0,%d)", i, q.count))
	}
	q.mem.Store(q.base+i, 0)
}

// Reset empties the queue.
func (q *Queue) Reset() {
	q.mem.Fill(q.base, q.count, 0)
	q.count = 0
}

// Valid reports whether entry i holds a live header.
func (q *Queue) Valid(i int) bool { return q.At(i) != 0 }

// Live returns the number of non-bubble entries (host-side scan).
func (q *Queue) Live() int {
	n := 0
	for i := 0; i < q.count; i++ {
		if q.Valid(i) {
			n++
		}
	}
	return n
}

// Invariants checks the queue's structural consistency: the entry
// count within [0, capacity] and every slot past the count zeroed
// (no header may live outside the logical queue). The conformance
// harness asserts it around every mutation; it is cheap enough for
// production assertions too.
func (q *Queue) Invariants() error {
	if q.count < 0 || q.count > q.cap {
		return fmt.Errorf("queue: count %d outside [0,%d]", q.count, q.cap)
	}
	for i := q.count; i < q.cap; i++ {
		if q.mem.Load(q.base+i) != 0 {
			return fmt.Errorf("queue: slot %d past count %d holds %#x", i, q.count, q.mem.Load(q.base+i))
		}
	}
	return nil
}

// VerifyCompacted checks the length-conservation contract of a
// completed compaction: exactly liveBefore entries remain, all of them
// valid headers (no bubbles survive), and the structural invariants
// hold. liveBefore is the Live() count captured before compacting.
func (q *Queue) VerifyCompacted(liveBefore int) error {
	if err := q.Invariants(); err != nil {
		return err
	}
	if q.count != liveBefore {
		return fmt.Errorf("queue: compaction kept %d entries, %d were live", q.count, liveBefore)
	}
	for i := 0; i < q.count; i++ {
		if !q.Valid(i) {
			return fmt.Errorf("queue: bubble at %d survived compaction", i)
		}
	}
	return nil
}

// CompactHost removes bubbles preserving order, host-side (the
// reference the SIMT kernel is tested against). It returns the new
// length.
func (q *Queue) CompactHost() int {
	w := 0
	for i := 0; i < q.count; i++ {
		v := q.mem.Load(q.base + i)
		if v != 0 {
			q.mem.Store(q.base+w, v)
			w++
		}
	}
	q.mem.Fill(q.base+w, q.count-w, 0)
	q.count = w
	return w
}

// Compact removes bubbles with a warp-parallel stream compaction
// executed on the given CTA, billing SIMT instructions: each tile of
// CTA-threads entries is loaded, per-warp ballots yield keep masks,
// popcount prefix sums produce scatter offsets (warp-local via ballot,
// cross-warp via a shared-memory scan by warp 0), and survivors are
// scattered forward. Order is preserved. It returns the new length.
// Every access is a regular shape (stride-1 tile loads, a stride-1
// offset store, dense scatters), so the kernel runs on the
// callback-free warp primitives and allocates nothing.
//
// The CTA's shared memory must hold at least one word per warp.
func (q *Queue) Compact(cta *simt.CTA) int {
	warps := cta.Warps()
	nw := len(warps)
	if cta.Shared.Len() < nw {
		panic(fmt.Sprintf("queue: compaction CTA has %d shared words for %d warps", cta.Shared.Len(), nw))
	}
	tile := nw * simt.LaneCount
	// Per-lane loaded words and keep masks, indexed [warp][lane]. Only
	// the lanes a tile loads are read back, so the buffers need no
	// clearing between tiles.
	var (
		words       [simt.MaxWarpsPerCTA][simt.LaneCount]uint64
		masks       [simt.MaxWarpsPerCTA]uint32
		warpOffsets [simt.LaneCount]uint64
	)
	writeBase := 0
	for tileStart := 0; tileStart < q.count; tileStart += tile {
		for wi, w := range warps {
			start := tileStart + wi*simt.LaneCount
			valid := w.Vote(simt.PrefixMask(q.count - start))
			w.WithMask(valid, func() { w.LoadGlobalSpan(q.mem, q.base+start, &words[wi]) })
			var keep uint32
			for a := valid; a != 0; a &= a - 1 {
				lane := bits.TrailingZeros32(a)
				if words[wi][lane] != 0 {
					keep |= simt.LaneMask(lane)
				}
			}
			masks[wi] = w.Vote(keep)
		}
		cta.SyncThreads()

		// Warp 0 computes exclusive prefix sums of per-warp keep counts
		// in shared memory (a ≤32-element scan: one warp suffices).
		w0 := warps[0]
		w0.WithMask(simt.PrefixMask(nw), func() {
			w0.Issue(2)
			sum := 0
			for wi := 0; wi < nw; wi++ {
				warpOffsets[wi] = uint64(sum)
				sum += simt.Popc(masks[wi])
			}
			w0.StoreSharedSpan(cta.Shared, 0, &warpOffsets)
		})
		cta.SyncThreads()

		// Scatter survivors: lane offset = warp offset + popc of lower
		// keep bits (the ballot-prefix idiom), a dense span per warp.
		for wi, w := range warps {
			w.WithMask(masks[wi], func() {
				w.Issue(2) // offset computation (popc + add)
				w.StoreGlobalDense(q.mem, q.base+writeBase+int(warpOffsets[wi]), &words[wi])
			})
		}
		cta.SyncThreads()

		kept := 0
		for _, m := range masks[:nw] {
			kept += simt.Popc(m)
		}
		writeBase += kept
	}
	q.mem.Fill(q.base+writeBase, q.count-writeBase, 0)
	q.count = writeBase
	return writeBase
}
