package match

import (
	"fmt"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/queue"
	"simtmp/internal/simt"
	"simtmp/internal/telemetry"
	"simtmp/internal/timing"
)

// DefaultWindow is the number of receive requests scanned per pass.
// The vote matrix (32 warps × window votes, one 64-bit shared word per
// vote) plus the request prefetch buffer must fit the 48 KiB per-CTA
// shared memory budget: 128 columns → 32 KiB matrix + 1 KiB buffer,
// leaving the occupancy at the 2 resident CTAs the paper reports.
const DefaultWindow = 128

// fusedLimit is the message-block size below which the single-warp
// fused path runs instead of the matrix ("queues with less than 64
// elements are scanned by a single warp and no matrix is generated").
const fusedLimit = 64

// MatrixConfig configures the MPI-compliant GPU matcher.
type MatrixConfig struct {
	// Arch selects the simulated GPU (default Pascal GTX1080).
	Arch *arch.Arch
	// Window is the number of requests scanned per pass (default
	// DefaultWindow).
	Window int
	// MaxCTAs bounds the CTAs used per round; message blocks beyond
	// MaxCTAs*1024 are processed in additional rounds (default 1,
	// the single-CTA setup of Figure 4).
	MaxCTAs int
	// Compact runs the queue-compaction kernel after matching,
	// the ~10% overhead the paper measures in §VI-B.
	Compact bool
	// SMs is the number of streaming multiprocessors dedicated to the
	// communication kernel (default 1, the paper's setup: "one
	// communication kernel running on a single GPU SM"). More SMs run
	// CTA waves in parallel — the linear scaling §VI-A predicts — at
	// the cost of resources taken from the application.
	SMs int
	// Workers bounds the host goroutines simulating the scan phase's
	// warps in parallel (0 = GOMAXPROCS, 1 = sequential). Host
	// parallelism changes wall-clock only: warps write disjoint vote
	// rows and bill private counters, so results, counters and
	// simulated cycles are bit-identical to the sequential path.
	Workers int
	// Recorder receives per-pass telemetry (nil = disabled, the
	// default; emission is nil-safe and allocation-free).
	Recorder *telemetry.Recorder
	// Track is the recorder timeline events land on (the owning GPU).
	Track int
}

func (c *MatrixConfig) withDefaults() MatrixConfig {
	out := *c
	if out.Arch == nil {
		out.Arch = arch.PascalGTX1080()
	}
	if out.Window <= 0 {
		out.Window = DefaultWindow
	}
	if out.MaxCTAs <= 0 {
		out.MaxCTAs = 1
	}
	if out.SMs <= 0 {
		out.SMs = 1
	}
	return out
}

// MatrixMatcher implements the paper's fully MPI-compliant matching
// algorithm (§V): a multi-warp scan builds a vote matrix (Algorithm 1),
// then a single warp reduces each column, resolving the ordering
// dependencies with ballots, find-first-set and a per-row message mask
// (Algorithm 2). Wildcards and ordering are fully honored.
type MatrixMatcher struct {
	cfg   MatrixConfig
	model timing.Model
	// noFused disables the single-warp fused path; the partitioned
	// matcher sets it because each partition runs the scan/reduce on
	// its own warp share regardless of block size.
	noFused bool

	// Reusable scratch, grown monotonically so the steady-state Match
	// path allocates nothing. A matcher is consequently NOT safe for
	// concurrent Match calls; concurrent workers each get their own
	// instance (see PartitionedMatcher).
	scratch matrixScratch
}

// matrixScratch holds the per-call buffers of the matrix kernel.
type matrixScratch struct {
	packedReqs []uint64
	packedMsgs []uint64
	msgRegs    [][simt.LaneCount]uint64
	masks      []uint32
	waveCycles []float64
	ctas       simt.CTACache

	// fused is the single warp of the small-queue path.
	fused struct {
		warp   *simt.Warp
		ctrs   simt.Counters
		shared *simt.Memory
	}
	// compactQ is the compaction kernel's queue.
	compactQ *queue.Queue

	// scan carries the per-window state of the parallel scan so the
	// worker body can be one persistent method value: a fresh closure
	// per window would escape to the heap (ParallelFor hands it to
	// goroutines) and break the zero-allocation steady state.
	scan struct {
		warps        []*simt.Warp
		cta          *simt.CTA
		wStart, wEnd int
		stride       int
	}
	scanFn func(int)
}

// NewMatrixMatcher returns a matcher with the given configuration.
func NewMatrixMatcher(cfg MatrixConfig) *MatrixMatcher {
	c := cfg.withDefaults()
	return &MatrixMatcher{cfg: c, model: timing.NewModel(c.Arch)}
}

// growU64 returns buf resized to n, reusing its backing array when
// large enough.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// ensureAssignment returns a length-n assignment initialized to
// NoMatch, reusing a's backing array when large enough.
func ensureAssignment(a Assignment, n int) Assignment {
	if cap(a) < n {
		a = make(Assignment, n)
	}
	a = a[:n]
	for i := range a {
		a[i] = NoMatch
	}
	return a
}

// Name implements Matcher.
func (m *MatrixMatcher) Name() string {
	return fmt.Sprintf("gpu-matrix(%s)", m.cfg.Arch.Generation)
}

// Contract implements Contractor: the matrix algorithm is the paper's
// fully MPI-compliant engine.
func (m *MatrixMatcher) Contract() Contract { return fullMPIContract() }

// footprint is the matrix kernel's per-CTA resource usage: 1024
// threads, 32 registers/thread, and the vote matrix + request buffer in
// shared memory.
func (m *MatrixMatcher) footprint() arch.KernelFootprint {
	return arch.KernelFootprint{
		ThreadsPerCTA:   1024,
		RegsPerThread:   32,
		SharedMemPerCTA: (simt.MaxWarpsPerCTA*(m.cfg.Window+1) + m.cfg.Window) * 8,
	}
}

// Match implements Matcher with full MPI semantics.
func (m *MatrixMatcher) Match(msgs []envelope.Envelope, reqs []envelope.Request) (*Result, error) {
	res := &Result{}
	if err := m.MatchInto(res, msgs, reqs); err != nil {
		return nil, err
	}
	return res, nil
}

// MatchInto implements ReusableMatcher: it runs Match but recycles the
// caller-owned Result (and the matcher's internal scratch), so the
// steady-state hot path performs zero heap allocations.
func (m *MatrixMatcher) MatchInto(res *Result, msgs []envelope.Envelope, reqs []envelope.Request) error {
	if err := validateInputs(msgs, reqs); err != nil {
		return err
	}
	res.reset(len(reqs))
	if len(msgs) == 0 || len(reqs) == 0 {
		return nil
	}

	packedReqs := growU64(m.scratch.packedReqs, len(reqs))
	for i, r := range reqs {
		packedReqs[i] = r.Pack()
	}
	m.scratch.packedReqs = packedReqs
	packedMsgs := growU64(m.scratch.packedMsgs, len(msgs))
	for i, e := range msgs {
		packedMsgs[i] = e.Pack()
	}
	m.scratch.packedMsgs = packedMsgs

	const blockSize = simt.MaxWarpsPerCTA * simt.LaneCount // 1024 messages per CTA
	chunk := m.cfg.MaxCTAs * blockSize

	occ := m.cfg.Arch.Occupancy(m.footprint())
	if occ < 1 {
		occ = 1
	}

	rec := m.cfg.Recorder
	base := rec.Clock()
	emitQueueDepths(rec, m.cfg.Track, len(msgs), len(reqs))

	var totalCycles float64
	var totalCtrs simt.Counters

	for round := 0; round*chunk < len(msgs); round++ {
		roundStart := round * chunk
		roundEnd := roundStart + chunk
		if roundEnd > len(msgs) {
			roundEnd = len(msgs)
		}
		// CTAs of this round, processed in message order (earlier CTA =
		// earlier messages = higher matching priority). CTAs beyond the
		// occupancy limit serialize into waves.
		waveCycles := m.scratch.waveCycles[:0]
		for blockStart := roundStart; blockStart < roundEnd; blockStart += blockSize {
			blockEnd := blockStart + blockSize
			if blockEnd > roundEnd {
				blockEnd = roundEnd
			}
			cycles, ctrs := m.matchBlock(packedMsgs, packedReqs, blockStart, blockEnd, res.Assignment)
			waveCycles = append(waveCycles, cycles)
			totalCtrs.Add(ctrs)
		}
		m.scratch.waveCycles = waveCycles
		roundCycles := m.combineWaves(waveCycles, occ)
		rec.Span(m.cfg.Track, evMatchPass,
			base+m.model.Seconds(totalCycles), m.model.Seconds(roundCycles),
			argRound, int64(round), argMsgs, int64(roundEnd-roundStart))
		totalCycles += roundCycles
		res.Iterations++
	}
	totalCycles += m.model.P.LaunchOverhead

	if m.cfg.Compact {
		totalCycles += m.compactionCycles(packedMsgs, res.Assignment)
	}

	res.SimSeconds = m.model.Seconds(totalCycles)
	res.Counters = totalCtrs
	emitKernelStats(rec, m.cfg.Track, base, base+res.SimSeconds, occ, totalCtrs)
	return nil
}

// combineWaves serializes CTA cycle counts into occupancy-sized waves
// on each of the configured SMs; SMs run their waves in parallel (the
// linear multi-SM scaling of §VI-A), CTAs within a wave run
// concurrently: the longest dominates and the others add a small
// interference term (they compete for issue slots and the memory
// pipeline but their dependent chains run on different warps). CTA i
// runs on SM i mod SMs.
func (m *MatrixMatcher) combineWaves(ctaCycles []float64, occ int) float64 {
	sms := m.cfg.SMs
	if sms > m.cfg.Arch.SMCount {
		sms = m.cfg.Arch.SMCount
	}
	if sms < 1 {
		sms = 1
	}
	worst := 0.0
	for sm := 0; sm < sms; sm++ {
		if t := serializeWaves(ctaCycles, sm, sms, occ); t > worst {
			worst = t
		}
	}
	return worst
}

// serializeWaves runs one SM's CTAs — ctaCycles[first], then every
// step-th after it — in occupancy-sized waves.
func serializeWaves(ctaCycles []float64, first, step, occ int) float64 {
	const interference = 0.25
	total := 0.0
	for start := first; start < len(ctaCycles); start += occ * step {
		max, sum := 0.0, 0.0
		for i, k := start, 0; i < len(ctaCycles) && k < occ; i, k = i+step, k+1 {
			c := ctaCycles[i]
			sum += c
			if c > max {
				max = c
			}
		}
		total += max + interference*(sum-max)
	}
	return total
}

// matchBlock runs one CTA over messages [blockStart, blockEnd),
// filling assignment entries for still-unmatched requests. It returns
// the CTA's simulated cycles and counters.
func (m *MatrixMatcher) matchBlock(msgs, reqs []uint64, blockStart, blockEnd int, assign Assignment) (float64, simt.Counters) {
	blockLen := blockEnd - blockStart
	if blockLen <= fusedLimit && !m.noFused {
		return m.fusedBlock(msgs, reqs, blockStart, blockEnd, assign)
	}

	msgWarps := (blockLen + simt.LaneCount - 1) / simt.LaneCount
	window := m.cfg.Window
	// The vote matrix is padded to an odd row stride (the classic +1
	// padding) so the reduce's column reads spread across the 32
	// shared-memory banks instead of serializing 32-way.
	stride := window + 1
	sharedWords := simt.MaxWarpsPerCTA*stride + window
	cta := m.scratch.ctas.Get(0, msgWarps*simt.LaneCount, sharedWords)
	warps := cta.Warps()

	// Each warp loads its 32 message headers once (coalesced). The
	// scratch registers must be zeroed: lanes past blockEnd are skipped
	// by the masked load but still read by the scan's full-warp ballots,
	// which rely on the zero sentinel to mean "no message".
	if cap(m.scratch.msgRegs) < msgWarps {
		m.scratch.msgRegs = make([][simt.LaneCount]uint64, msgWarps)
	}
	msgRegs := m.scratch.msgRegs[:msgWarps]
	for i := range msgRegs {
		msgRegs[i] = [simt.LaneCount]uint64{}
	}
	gmsgs, greqs := globalOf(msgs), globalOf(reqs)
	for wi, w := range warps {
		start := blockStart + wi*simt.LaneCount
		valid := w.Vote(simt.PrefixMask(blockEnd - start))
		w.WithMask(valid, func() { w.LoadGlobalSpan(gmsgs, start, &msgRegs[wi]) })
	}
	loadCtrs := cta.Counters()
	cta.ResetCounters()

	// Per-row (warp) message masks persist across windows: bit i of
	// masks[w] is set while message w*32+i is unclaimed.
	if cap(m.scratch.masks) < msgWarps {
		m.scratch.masks = make([]uint32, msgWarps)
	}
	masks := m.scratch.masks[:msgWarps]
	for i := range masks {
		masks[i] = simt.FullMask
	}

	var scanCtrs, reduceCtrs simt.Counters
	matchedInBlock := 0
	reqBase := simt.MaxWarpsPerCTA * stride

	windows := 0
	for wStart := 0; wStart < len(reqs) && matchedInBlock < blockLen; wStart += window {
		wEnd := wStart + window
		if wEnd > len(reqs) {
			wEnd = len(reqs)
		}
		windows++

		// Prefetch the request window into shared memory (coalesced
		// loads by the first warps).
		for off := 0; off < wEnd-wStart; off += simt.LaneCount {
			w := warps[(off/simt.LaneCount)%len(warps)]
			inWin := w.Vote(simt.PrefixMask(wEnd - wStart - off))
			w.WithMask(inWin, func() {
				var tmp [simt.LaneCount]uint64
				w.LoadGlobalSpan(greqs, wStart+off, &tmp)
				w.StoreSharedSpan(cta.Shared, reqBase+off, &tmp)
			})
		}
		cta.SyncThreads()

		// Scan (Algorithm 1): every warp votes for every request of the
		// window; votes land in the shared-memory matrix. The warps are
		// independent here — each reads the (now frozen) request buffer
		// and its own message registers, writes its own matrix row, and
		// bills its own counter sink — so the host may simulate them
		// concurrently with bit-identical results.
		sc := &m.scratch
		sc.scan.warps, sc.scan.cta, sc.scan.stride = warps, cta, stride
		sc.scan.wStart, sc.scan.wEnd = wStart, wEnd
		if sc.scanFn == nil {
			sc.scanFn = m.scanWarp
		}
		simt.ParallelFor(len(warps), m.cfg.Workers, sc.scanFn)
		sc.scan.warps, sc.scan.cta = nil, nil
		cta.SyncThreads()
		scanCtrs.Add(cta.Counters())
		cta.ResetCounters()

		// Reduce (Algorithm 2): warp 0, lane l owning matrix row l,
		// resolves each column to the earliest unclaimed message.
		w0 := warps[0]
		rowMask := simt.PrefixMask(msgWarps)
		for i := wStart; i < wEnd; i++ {
			col := i - wStart
			// Skip columns already claimed by an earlier CTA or round.
			w0.Issue(1)
			if assign[i] != NoMatch {
				continue
			}
			var colVotes [simt.LaneCount]uint64
			w0.WithMask(rowMask, func() { w0.LoadSharedStride(cta.Shared, col, stride, &colVotes) })
			w0.Issue(1) // vote & mask
			var bid uint32
			for lane := 0; lane < msgWarps; lane++ {
				if uint32(colVotes[lane])&masks[lane] != 0 {
					bid |= simt.LaneMask(lane)
				}
			}
			bidders := w0.Vote(bid)
			if bidders == 0 {
				continue
			}
			// Lowest warp row wins (earlier messages), then the lowest
			// set bit within its masked vote.
			winner := simt.Ffs(bidders) - 1
			w0.WithMask(simt.LaneMask(winner), func() {
				w0.Issue(3) // ffs, mask clear, index math
				bit := simt.Ffs(uint32(colVotes[winner])&masks[winner]) - 1
				masks[winner] &^= 1 << uint(bit)
				assign[i] = blockStart + winner*simt.LaneCount + bit
				matchedInBlock++
				w0.StoreSharedWord(cta.Shared, winner*stride+col, uint64(assign[i]))
			})
			// Early exit: once every message of the block is claimed
			// the remaining columns cannot match here (§V-B: this is
			// why a reversed receive queue degrades performance while
			// an ordered one does not).
			if matchedInBlock == blockLen {
				w0.Issue(1)
				break
			}
		}
		cta.SyncThreads()
		reduceCtrs.Add(cta.Counters())
		cta.ResetCounters()
	}

	scanCtrs.Add(loadCtrs)
	return m.blockCycles(scanCtrs, reduceCtrs, msgWarps, windows), sum3(scanCtrs, reduceCtrs, cta.Counters())
}

// scanWarp is the parallel scan body for one warp: it votes the warp's
// messages against every request of the current window (state in
// m.scratch.scan). It is installed once as a persistent method value;
// see matrixScratch.scan.
func (m *MatrixMatcher) scanWarp(wi int) {
	sc := &m.scratch.scan
	w := sc.warps[wi]
	cta, stride := sc.cta, sc.stride
	regs := &m.scratch.msgRegs[wi]
	reqBase := simt.MaxWarpsPerCTA * stride
	for i := sc.wStart; i < sc.wEnd; i++ {
		col := i - sc.wStart
		req := w.LoadSharedWord(cta.Shared, reqBase+col)
		w.Issue(2) // header compare ALU work
		vote := w.Vote(voteBits(req, regs))
		w.StoreSharedWord(cta.Shared, wi*stride+col, uint64(vote))
	}
}

// voteBits evaluates one request against a warp's message registers
// word-parallel: bit l is set iff lane l holds a message that matches
// req (an empty register, 0, matches nothing).
func voteBits(req uint64, regs *[simt.LaneCount]uint64) uint32 {
	want, mask := envelope.MatchKey(req)
	var bits uint32
	for lane, v := range regs {
		if v&mask == want {
			bits |= simt.LaneMask(lane)
		}
	}
	return bits
}

// blockCycles combines the scan and reduce phases of one CTA: when the
// message block leaves warps free (fewer than 32 scan warps), the two
// phases pipeline and the longer one hides the shorter (§V-A). At the
// full 1024 messages all warps scan and the reduce serializes — the
// knee visible in Figure 4.
func (m *MatrixMatcher) blockCycles(scan, reduce simt.Counters, msgWarps, windows int) float64 {
	scanCycles := m.model.PhaseCycles(timing.Phase{Kind: timing.Throughput, Ctrs: scan, ResidentWarps: msgWarps})
	reduceCycles := m.model.PhaseCycles(timing.Phase{Kind: timing.Dependent, Ctrs: reduce})
	if msgWarps < simt.MaxWarpsPerCTA {
		// Pipelined: one window of the shorter phase fills the pipe.
		fill := 0.0
		if windows > 0 {
			fill = minf(scanCycles, reduceCycles) / float64(windows)
		}
		return timing.Overlap(scanCycles, reduceCycles) + fill
	}
	return scanCycles + reduceCycles
}

// fusedBlock is the small-queue path: a single warp both votes and
// resolves each request without materializing a matrix. Each lane holds
// up to two messages (blocks of at most 64). The warp needs no CTA: it
// bills a private counter sink and stages requests through a private
// 32-word shared buffer.
func (m *MatrixMatcher) fusedBlock(msgs, reqs []uint64, blockStart, blockEnd int, assign Assignment) (float64, simt.Counters) {
	blockLen := blockEnd - blockStart
	f := &m.scratch.fused
	if f.warp == nil {
		f.warp = simt.NewWarp(0, &f.ctrs)
		f.shared = simt.NewMemory(simt.LaneCount)
	}
	f.ctrs = simt.Counters{}
	w := f.warp
	gmsgs, greqs := globalOf(msgs), globalOf(reqs)

	// Lanes past the block clamp their address to blockStart and drop
	// the word. For the first 32 messages that address lies inside the
	// span, so the load touches exactly the in-block span and is billed
	// as the stride-1 load of the in-block lanes. For the second 32 it
	// lies outside: an irregular access, left to the per-lane load.
	var lo, hi [simt.LaneCount]uint64
	w.SetActive(simt.PrefixMask(blockLen))
	w.LoadGlobalSpan(gmsgs, blockStart, &lo)
	w.SetActive(simt.FullMask)
	if blockLen > simt.LaneCount {
		w.LoadGlobal(gmsgs, func(lane int) int {
			if blockStart+simt.LaneCount+lane < blockEnd {
				return blockStart + simt.LaneCount + lane
			}
			return blockStart
		}, func(lane int, v uint64) {
			if blockStart+simt.LaneCount+lane < blockEnd {
				hi[lane] = v
			}
		})
	}
	maskLo, maskHi := simt.FullMask, simt.FullMask
	matched := 0
	var zero [simt.LaneCount]uint64

	for i := range reqs {
		if matched == blockLen {
			break
		}
		// Request fetch (staged through shared memory by the same warp)
		// plus loop bookkeeping — the single warp pays the full
		// dependency latency of each step, which is why the fused path
		// is not dramatically faster than the matrix (Figure 4 is
		// roughly flat across queue lengths).
		if i%simt.LaneCount == 0 {
			w.SetActive(simt.PrefixMask(len(reqs) - i)) // clamped like the message loads
			w.LoadGlobalSpan(greqs, i, nil)
			w.SetActive(simt.FullMask)
			w.StoreSharedSpan(f.shared, 0, &zero)
		}
		w.LoadSharedWord(f.shared, i%simt.LaneCount)
		w.Issue(2)
		if assign[i] != NoMatch {
			continue
		}
		req := reqs[i]
		w.Issue(2) // compares
		if vote := w.Vote(voteBits(req, &lo) & maskLo); vote != 0 {
			bit := simt.Ffs(vote) - 1
			w.WithMask(simt.LaneMask(bit), func() { w.Issue(2) })
			maskLo &^= 1 << uint(bit)
			assign[i] = blockStart + bit
			matched++
			continue
		}
		if blockLen <= simt.LaneCount {
			continue
		}
		if vote := w.Vote(voteBits(req, &hi) & maskHi); vote != 0 {
			bit := simt.Ffs(vote) - 1
			w.WithMask(simt.LaneMask(bit), func() { w.Issue(2) })
			maskHi &^= 1 << uint(bit)
			assign[i] = blockStart + simt.LaneCount + bit
			matched++
		}
	}
	cycles := m.model.PhaseCycles(timing.Phase{Kind: timing.Dependent, Ctrs: f.ctrs})
	return cycles, f.ctrs
}

// compactionCycles runs the stream-compaction kernel over a message
// queue holding the unmatched residue and returns its cycle cost (the
// step the paper measures at roughly 10% of the matching rate). The
// queue, its memory and the CTA are matcher scratch, reused across
// calls.
func (m *MatrixMatcher) compactionCycles(msgs []uint64, assign Assignment) float64 {
	q := m.scratch.compactQ
	if q == nil || q.Cap() < len(msgs) {
		q = queue.New(simt.NewMemory(len(msgs)+1), 0, len(msgs))
		m.scratch.compactQ = q
	}
	q.Reset()
	for _, w := range msgs {
		q.Push(w) //nolint:errcheck // capacity suffices
	}
	for _, mi := range assign {
		if mi != NoMatch {
			q.Clear(mi)
		}
	}
	cta := m.scratch.ctas.Get(0, 1024, simt.MaxWarpsPerCTA)
	q.Compact(cta)
	// Both the message and the request queue are compacted; beyond the
	// header prefix-scan, full descriptors move and head/tail pointers
	// are maintained (CompactPerEntry), plus a separate kernel launch.
	entries := float64(len(msgs) + len(assign))
	return m.model.PhaseCycles(timing.Phase{
		Kind: timing.Throughput, Ctrs: cta.Counters(), ResidentWarps: simt.MaxWarpsPerCTA,
	})*2 + entries*m.model.P.CompactPerEntry + m.model.P.LaunchOverhead
}

// globalOf wraps a host slice as device global memory for kernel loads.
// The copy-free view keeps simulation fast while still billing real
// addresses for coalescing.
func globalOf(words []uint64) *simt.Memory { return simt.Wrap(words) }

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func sum3(a, b, c simt.Counters) simt.Counters {
	var t simt.Counters
	t.Add(a)
	t.Add(b)
	t.Add(c)
	return t
}
