package simt

import (
	"fmt"

	"simtmp/internal/arch"
)

// CTA is a cooperative thread array: up to 32 warps sharing a
// scratch-pad memory and a barrier. Warps within a CTA are executed
// sequentially and deterministically by kernel code; SyncThreads marks
// barrier points for the timing model.
//
// Each warp bills into its own counter sink, so kernel code may run
// warps of one CTA on concurrent host goroutines (the scan phase of the
// matrix matcher does) without racing on the accounting; Counters sums
// the sinks in warp-id order, which is bit-identical to a shared sink
// because counter merging is integer addition.
type CTA struct {
	// ID is the CTA index within its grid.
	ID int
	// Shared is the CTA's scratch-pad memory.
	Shared *Memory

	threads int
	warps   []*Warp
	ctrs    Counters // CTA-level billing (barriers)
}

// MaxWarpsPerCTA is the hardware limit the paper leans on: "so far all
// NVIDIA GPUs only support 32 warps per CTA", which caps the vote
// matrix height at 32.
const MaxWarpsPerCTA = 32

// NewCTA creates a CTA with the given number of threads (rounded up to
// whole warps, max 1024) and a shared memory of sharedWords 64-bit
// words.
func NewCTA(id, threads, sharedWords int) *CTA {
	if threads <= 0 || threads > MaxWarpsPerCTA*LaneCount {
		panic(fmt.Sprintf("simt: CTA thread count %d out of range (1..%d)", threads, MaxWarpsPerCTA*LaneCount))
	}
	nWarps := (threads + LaneCount - 1) / LaneCount
	c := &CTA{ID: id, Shared: NewMemory(sharedWords), threads: threads}
	c.warps = make([]*Warp, nWarps)
	for i := range c.warps {
		c.warps[i] = NewWarp(i, new(Counters))
	}
	c.resetMasks()
	return c
}

// resetMasks restores every warp's initial active mask (all lanes, with
// the last warp partially masked when threads is not a multiple of 32).
func (c *CTA) resetMasks() {
	for i, w := range c.warps {
		w.SetActive(FullMask)
		if i == len(c.warps)-1 {
			if rem := c.threads % LaneCount; rem != 0 {
				w.SetActive(FullMask >> uint(LaneCount-rem))
			}
		}
	}
}

// Reset returns the CTA to its freshly constructed state without
// reallocating: counters zeroed, active masks restored, shared memory
// cleared. It is the reuse hook the matchers' zero-allocation hot paths
// rely on; a Reset CTA behaves bit-identically to a new one.
func (c *CTA) Reset() {
	c.ResetCounters()
	c.resetMasks()
	c.Shared.Zero()
}

// Warps returns the CTA's warps in id order.
func (c *CTA) Warps() []*Warp { return c.warps }

// Warp returns warp i.
func (c *CTA) Warp(i int) *Warp { return c.warps[i] }

// SyncThreads marks a CTA-wide barrier: every warp bills one sync
// instruction. Kernel code already executes warps in program order, so
// the barrier has no functional effect — only a timing one.
func (c *CTA) SyncThreads() {
	c.ctrs.Sync += uint64(len(c.warps))
}

// Counters returns the CTA's accumulated counters: the CTA-level
// (barrier) billing plus every warp's sink, summed in warp-id order.
func (c *CTA) Counters() Counters {
	t := c.ctrs
	for _, w := range c.warps {
		t.Add(*w.ctrs)
	}
	return t
}

// ResetCounters zeroes the CTA's counters (useful for phase-separated
// accounting).
func (c *CTA) ResetCounters() {
	c.ctrs = Counters{}
	for _, w := range c.warps {
		*w.ctrs = Counters{}
	}
}

// ctaShape keys CTA reuse by construction parameters.
type ctaShape struct{ threads, sharedWords int }

// CTACache reuses CTA instances by shape, resetting them on every Get,
// so steady-state kernel loops allocate nothing. The cache is NOT safe
// for concurrent use: give each worker goroutine its own cache (the
// engines hold one per matcher instance).
type CTACache struct {
	ctas map[ctaShape]*CTA
}

// Get returns a reset CTA of the given shape, creating it on first use.
func (cc *CTACache) Get(id, threads, sharedWords int) *CTA {
	key := ctaShape{threads, sharedWords}
	if c, ok := cc.ctas[key]; ok {
		c.ID = id
		c.Reset()
		return c
	}
	if cc.ctas == nil {
		cc.ctas = make(map[ctaShape]*CTA)
	}
	c := NewCTA(id, threads, sharedWords)
	cc.ctas[key] = c
	return c
}

// Kernel is a CTA program: it is invoked once per CTA of a launch with
// the CTA and the device's global memory.
type Kernel func(c *CTA, global *Memory)

// LaunchStats reports what a grid launch executed, for consumption by
// the timing model.
type LaunchStats struct {
	// PerCTA holds each CTA's instruction counters, indexed by CTA id.
	PerCTA []Counters
	// Footprint is the per-CTA resource footprint used for occupancy.
	Footprint arch.KernelFootprint
}

// Total returns the sum of all per-CTA counters.
func (s *LaunchStats) Total() Counters {
	var t Counters
	for i := range s.PerCTA {
		t.Add(s.PerCTA[i])
	}
	return t
}

// Device is a simulated GPU: an architecture plus global memory.
type Device struct {
	Arch   *arch.Arch
	Global *Memory
	// AfterLaunch, when set, is invoked at the end of every Launch and
	// LaunchParallel with the finished stats — a launch-boundary hook.
	// The telemetry plane uses it to pump the flight recorder's live
	// streamer at kernel ends, so streamed runs only need the ring to
	// hold one launch's emissions. Called on the launching goroutine
	// after all CTAs complete; it must not launch kernels itself.
	AfterLaunch func(*LaunchStats)
}

// NewDevice creates a device of the given architecture with a global
// memory of globalWords 64-bit words.
func NewDevice(a *arch.Arch, globalWords int) *Device {
	return &Device{Arch: a, Global: NewMemory(globalWords)}
}

// archFootprint builds the occupancy footprint of a launch.
func archFootprint(threadsPerCTA, regsPerThread, sharedWords int) arch.KernelFootprint {
	return arch.KernelFootprint{
		ThreadsPerCTA:   threadsPerCTA,
		RegsPerThread:   regsPerThread,
		SharedMemPerCTA: sharedWords * 8,
	}
}

// Launch runs kernel on a grid of ctas CTAs, each with threadsPerCTA
// threads and sharedWords words of shared memory. CTAs execute
// sequentially in id order (deterministic); hardware concurrency and
// serialization beyond the occupancy limit are recovered analytically
// by the timing model from the returned stats. LaunchParallel runs the
// same grid across host cores for kernels whose CTAs are independent.
func (d *Device) Launch(ctas, threadsPerCTA, sharedWords int, regsPerThread int, kernel Kernel) *LaunchStats {
	if ctas <= 0 {
		panic(fmt.Sprintf("simt: launch with %d CTAs", ctas))
	}
	stats := &LaunchStats{
		PerCTA:    make([]Counters, ctas),
		Footprint: archFootprint(threadsPerCTA, regsPerThread, sharedWords),
	}
	for i := 0; i < ctas; i++ {
		c := NewCTA(i, threadsPerCTA, sharedWords)
		kernel(c, d.Global)
		stats.PerCTA[i] = c.Counters()
	}
	if d.AfterLaunch != nil {
		d.AfterLaunch(stats)
	}
	return stats
}
