package simt

import "fmt"

// Memory is a word-addressed (64-bit) memory, used for both simulated
// global device memory and per-CTA shared memory. Addresses are word
// indices. Accesses out of range panic, mirroring a device-side fault.
type Memory struct {
	words []uint64
}

// NewMemory allocates a zeroed memory of the given number of 64-bit
// words.
func NewMemory(words int) *Memory {
	if words < 0 {
		panic(fmt.Sprintf("simt: negative memory size %d", words))
	}
	return &Memory{words: make([]uint64, words)}
}

// Wrap returns a Memory view over an existing word slice without
// copying; stores through the view mutate the slice. Useful to expose
// host-prepared data as device global memory.
func Wrap(words []uint64) *Memory { return &Memory{words: words} }

// Rebind repoints a wrapped view at a new word slice without
// allocating, so long-lived views can track reusable host buffers.
func (m *Memory) Rebind(words []uint64) { m.words = words }

// Len returns the memory size in words.
func (m *Memory) Len() int { return len(m.words) }

// Load returns the word at addr.
func (m *Memory) Load(addr int) uint64 { return m.words[addr] }

// Store writes v to addr.
func (m *Memory) Store(addr int, v uint64) { m.words[addr] = v }

// CAS performs a compare-and-swap at addr: if the current value equals
// old, it stores new and reports true; otherwise it reports false. It
// returns the value observed before the operation either way.
func (m *Memory) CAS(addr int, old, new uint64) (prev uint64, swapped bool) {
	prev = m.words[addr]
	if prev == old {
		m.words[addr] = new
		return prev, true
	}
	return prev, false
}

// AtomicAdd adds delta to the word at addr and returns the previous
// value.
func (m *Memory) AtomicAdd(addr int, delta uint64) (prev uint64) {
	prev = m.words[addr]
	m.words[addr] = prev + delta
	return prev
}

// Fill sets words [addr, addr+n) to v.
func (m *Memory) Fill(addr, n int, v uint64) {
	for i := 0; i < n; i++ {
		m.words[addr+i] = v
	}
}

// Zero clears the whole memory (compiles to a memclr; used by CTA.Reset
// so a reused CTA is indistinguishable from a fresh one).
func (m *Memory) Zero() {
	for i := range m.words {
		m.words[i] = 0
	}
}

// Slice exposes words [addr, addr+n) as a Go slice aliasing the
// underlying storage. It is intended for host-side setup and result
// readout, not for kernel code (kernel code must go through warp
// accessors so accesses are billed).
func (m *Memory) Slice(addr, n int) []uint64 { return m.words[addr : addr+n] }

// segmentWords is the size of one memory transaction in words: 128
// bytes, i.e. 16 64-bit words, matching NVIDIA's L1/L2 line granularity
// that the coalescer works at.
const segmentWords = 16

// transactions returns the number of distinct 128-byte segments touched
// by the given word addresses — the coalescing model: a fully
// sequential warp access costs 1-2 transactions, a random gather costs
// up to one per lane. addrs holds at most one entry per lane (32), so
// the quadratic distinct-count is cheap and, unlike a map, allocates
// nothing — this runs once per simulated memory instruction and used to
// dominate the simulator's allocation profile.
func transactions(addrs []int) uint64 {
	n := uint64(0)
	for i, a := range addrs {
		seg := a / segmentWords
		dup := false
		for _, b := range addrs[:i] {
			if b/segmentWords == seg {
				dup = true
				break
			}
		}
		if !dup {
			n++
		}
	}
	return n
}
