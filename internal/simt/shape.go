package simt

import "math/bits"

// Shaped memory operations: the callback-free form of the warp memory
// primitives for accesses whose addresses follow a regular shape — a
// stride-1 span, a dense (compacted) span, a broadcast, or a strided
// column. Each bills exactly what the per-lane primitive bills for the
// same addresses, but derives the transaction and bank-conflict counts
// from the shape in closed form instead of collecting and deduplicating
// 32 addresses. Irregular addresses (hash probes, gathers) keep the
// per-lane primitives of warp.go.

// spanTransactions returns the 128-byte segments touched when every
// active lane l accesses word base+l. The active lanes span [lo, hi],
// which touches hi/16 − lo/16 + 1 segments; a warp covers at most 32
// words, so only a third segment lying strictly inside the span can be
// left untouched, by a hole in the mask.
func spanTransactions(base int, active uint32) uint64 {
	if active == 0 {
		return 0
	}
	lo := base + bits.TrailingZeros32(active)
	hi := base + LaneCount - 1 - bits.LeadingZeros32(active)
	n := hi/segmentWords - lo/segmentWords + 1
	if n == 3 {
		mid := (lo/segmentWords+1)*segmentWords - base
		if active>>uint(mid)&(1<<segmentWords-1) == 0 {
			n--
		}
	}
	return uint64(n)
}

// denseTransactions returns the segments touched by k lanes accessing
// the contiguous words [base, base+k).
func denseTransactions(base, k int) uint64 {
	if k == 0 {
		return 0
	}
	return uint64((base+k-1)/segmentWords - base/segmentWords + 1)
}

// strideConflicts returns the bank conflicts of the active lanes
// accessing words base+l*stride. A broadcast (stride 0) and any odd
// stride are conflict-free: an odd stride is invertible modulo the 32
// banks, so at most 32 lanes land on distinct banks. Other even strides
// fall back to counting the lanes' addresses.
func strideConflicts(base, stride int, active uint32) uint64 {
	if stride == 0 || stride&1 != 0 {
		return 0
	}
	var addrs [LaneCount]int
	n := 0
	for a := active; a != 0; a &= a - 1 {
		addrs[n] = base + bits.TrailingZeros32(a)*stride
		n++
	}
	return bankConflicts(addrs[:n])
}

// LoadGlobalSpan issues one stride-1 global load: every active lane l
// reads word base+l into dst[l]. dst may be nil when the words are not
// needed; the load is billed either way.
func (w *Warp) LoadGlobalSpan(m *Memory, base int, dst *[LaneCount]uint64) {
	w.ctrs.GMemLoad++
	w.ctrs.GMemTrans += spanTransactions(base, w.active)
	if w.active == FullMask {
		src := m.words[base : base+LaneCount]
		if dst != nil {
			copy(dst[:], src)
		}
		return
	}
	for a := w.active; a != 0; a &= a - 1 {
		lane := bits.TrailingZeros32(a)
		v := m.words[base+lane]
		if dst != nil {
			dst[lane] = v
		}
	}
}

// StoreGlobalDense issues one global store whose active lanes write to
// consecutive words in lane order: the k-th active lane writes
// src[lane] to word base+k. It is the scatter of a stream compaction
// (each lane's offset is the popcount of the lower keep bits), so the
// addresses form the contiguous span [base, base+popc(active)).
func (w *Warp) StoreGlobalDense(m *Memory, base int, src *[LaneCount]uint64) {
	w.ctrs.GMemStore++
	k := 0
	for a := w.active; a != 0; a &= a - 1 {
		m.words[base+k] = src[bits.TrailingZeros32(a)]
		k++
	}
	w.ctrs.GMemTrans += denseTransactions(base, k)
}

// LoadSharedStride issues one shared load in which every active lane l
// reads word base+l*stride into dst[l]: stride 1 is a row, an odd
// stride a column of a padded matrix.
func (w *Warp) LoadSharedStride(m *Memory, base, stride int, dst *[LaneCount]uint64) {
	w.ctrs.SMemLoad++
	w.ctrs.SMemConflict += strideConflicts(base, stride, w.active)
	for a := w.active; a != 0; a &= a - 1 {
		lane := bits.TrailingZeros32(a)
		dst[lane] = m.words[base+lane*stride]
	}
}

// StoreSharedSpan issues one stride-1 shared store: every active lane
// l writes src[l] to word base+l. Consecutive words sit in distinct
// banks, so the store has no bank conflict.
func (w *Warp) StoreSharedSpan(m *Memory, base int, src *[LaneCount]uint64) {
	w.ctrs.SMemStore++
	for a := w.active; a != 0; a &= a - 1 {
		lane := bits.TrailingZeros32(a)
		m.words[base+lane] = src[lane]
	}
}

// LoadSharedWord issues one broadcast shared load: every active lane
// reads the word at addr (no bank conflict). It returns the word, or 0
// when no lane is active.
func (w *Warp) LoadSharedWord(m *Memory, addr int) uint64 {
	w.ctrs.SMemLoad++
	if w.active == 0 {
		return 0
	}
	return m.words[addr]
}

// StoreSharedWord issues one shared store in which every active lane
// writes v to the word at addr (no bank conflict).
func (w *Warp) StoreSharedWord(m *Memory, addr int, v uint64) {
	w.ctrs.SMemStore++
	if w.active != 0 {
		m.words[addr] = v
	}
}
