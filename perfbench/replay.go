package main

import (
	"runtime"
	"time"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/gas"
	"simtmp/internal/match"
	"simtmp/internal/mpx"
	"simtmp/internal/queue"
	"simtmp/internal/ring"
	"simtmp/internal/simt"
)

// replayer re-runs each traced round's inputs through the public
// functions of the layers under mpx, one span per layer, so the trace
// attributes host time to layers the benchmark cannot see inside
// Drain. It owns its own engines, cluster and memories: the runtime
// under test is never touched.
type replayer struct {
	ms  runtime.MemStats
	tot replayTotals

	// match: one engine per GPU, as the runtime builds them.
	engines    []match.ReusableMatcher
	res        match.Result
	msgs, left []envelope.Envelope
	used       []bool
	reqs       []envelope.Request

	// simt: one 1024-thread ballot CTA per launch, and one warp's
	// stride-1 shared loads and ballots.
	dev    *simt.Device
	kernel simt.Kernel
	cta    *simt.CTA
	pred   func(lane int) bool
	addr   func(lane int) int
	sink   func(lane int, v uint64)
	acc    uint64

	// queue: compaction of a backlog-sized queue, half bubbles.
	qmem *simt.Memory
	qcta *simt.CTA

	words, reqWords []uint64

	cluster *gas.Cluster
	seq     uint64
	ring    *ring.Ring
}

// replayTotals accumulates each replay's time (ns), operations and
// heap allocations.
type replayTotals struct {
	matchCalls, matchNs             int64
	matchInstr, matchAllocs         uint64
	matchSim                        float64
	launches, launchNs              int64
	launchAllocs                    uint64
	sharedOps, sharedNs             int64
	ballots, ballotNs               int64
	compacts, compactNs             int64
	compactAllocs                   uint64
	envOps, matchPackedOps          int64
	packNs, unpackNs, matchPackedNs int64
	gasMsgs, putNs, drainNs         int64
	gasAllocs                       uint64
	ringOps, ringNs                 int64
}

const (
	replayCap         = 4096 // ring, queue and cluster capacity
	simtCallsPerRound = 32
)

func newReplayer(level mpx.Level) *replayer {
	a := arch.PascalGTX1080()
	r := &replayer{}
	for g := 0; g < gpus; g++ {
		var e match.ReusableMatcher
		switch level {
		case mpx.NoSourceWildcard:
			e = match.NewPartitionedMatcher(match.PartitionedConfig{Arch: a, Queues: 8, Compact: true})
		case mpx.Unordered:
			e = match.MustHashMatcher(match.HashConfig{Arch: a})
		default:
			e = match.NewMatrixMatcher(match.MatrixConfig{Arch: a, Compact: true})
		}
		r.engines = append(r.engines, e)
	}
	r.pred = func(lane int) bool { return lane&1 == 0 }
	r.addr = func(lane int) int { return lane }
	r.sink = func(_ int, v uint64) { r.acc += v }
	r.kernel = func(c *simt.CTA, _ *simt.Memory) {
		for _, w := range c.Warps() {
			w.Ballot(r.pred)
		}
	}
	r.dev = simt.NewDevice(a, 64)
	r.cta = simt.NewCTA(0, 1024, 1024)
	r.qmem = simt.NewMemory(replayCap)
	r.qcta = simt.NewCTA(0, 1024, 32)
	r.cluster = gas.NewCluster(gpus, a, replayCap)
	r.ring = ring.New(simt.NewMemory(ring.Words(replayCap)), 0, replayCap)
	return r
}

func (r *replayer) mallocs() uint64 {
	runtime.ReadMemStats(&r.ms)
	return r.ms.Mallocs
}

// replay runs every layer replay for one round. engineRan says whether
// the runtime ran its matching engine this round (a fully cached
// persistent round does not); backlog is the round's unexpected-queue
// load. Replay inconsistencies count as failures in tl.
func (r *replayer) replay(tr *tracer, t *traffic, engineRan bool, backlog int, tl *tally) {
	if engineRan {
		sp := tr.begin(lMatch)
		n := r.replayMatch(t)
		tr.end(sp, n)
	}
	sp := tr.begin(lSimt)
	r.replaySimt()
	tr.end(sp, 1+2*simtCallsPerRound)
	if backlog > 0 {
		sp = tr.begin(lQueue)
		r.replayQueue(backlog)
		tr.end(sp, 1)
	}
	sp = tr.begin(lEnvelope)
	r.replayEnvelope(t, tl)
	tr.end(sp, len(t.envs))
	sp = tr.begin(lGas)
	r.replayGas(t, tl)
	tr.end(sp, len(t.envs))
	sp = tr.begin(lRing)
	r.replayRing()
	tr.end(sp, len(t.envs))
}

// replayMatch rebuilds the batches the runtime's engines saw on a
// lossless wire: per destination, every message against the receives
// posted before the sends; then, if receives were posted late, the
// unmatched remainder against the unmatched early and the late
// receives. It returns the number of MatchInto calls.
func (r *replayer) replayMatch(t *traffic) int {
	a0 := r.mallocs()
	t0 := time.Now()
	calls := 0
	for g := 0; g < gpus; g++ {
		r.msgs = r.msgs[:0]
		for i, d := range t.dsts {
			if d == g {
				r.msgs = append(r.msgs, t.envs[i])
			}
		}
		r.reqs = r.reqs[:0]
		for i := 0; i < t.early; i++ {
			if t.reqDst[i] == g {
				r.reqs = append(r.reqs, t.reqs[i])
			}
		}
		r.matchOne(g, r.msgs, r.reqs)
		calls++
		if t.early == len(t.reqs) {
			continue
		}
		r.used = append(r.used[:0], make([]bool, len(r.msgs))...)
		used := r.used
		keep := r.reqs[:0]
		for ri, mi := range r.res.Assignment {
			if mi == match.NoMatch {
				keep = append(keep, r.reqs[ri])
			} else {
				used[mi] = true
			}
		}
		r.left = r.left[:0]
		for i, e := range r.msgs {
			if !used[i] {
				r.left = append(r.left, e)
			}
		}
		for i := t.early; i < len(t.reqs); i++ {
			if t.reqDst[i] == g {
				keep = append(keep, t.reqs[i])
			}
		}
		r.matchOne(g, r.left, keep)
		calls++
	}
	r.tot.matchNs += int64(time.Since(t0))
	r.tot.matchAllocs += r.mallocs() - a0
	r.tot.matchCalls += int64(calls)
	return calls
}

func (r *replayer) matchOne(g int, msgs []envelope.Envelope, reqs []envelope.Request) {
	if err := r.engines[g].MatchInto(&r.res, msgs, reqs); err != nil {
		panic("perfbench: replayed batch rejected: " + err.Error())
	}
	r.tot.matchInstr += r.res.Counters.Instructions()
	r.tot.matchSim += r.res.SimSeconds
}

func (r *replayer) replaySimt() {
	a0 := r.mallocs()
	t0 := time.Now()
	r.dev.LaunchParallel(1, 1024, 32, 32, 0, r.kernel)
	r.tot.launchNs += int64(time.Since(t0))
	r.tot.launchAllocs += r.mallocs() - a0
	r.tot.launches++

	w := r.cta.Warp(0)
	t0 = time.Now()
	for i := 0; i < simtCallsPerRound; i++ {
		w.LoadShared(r.cta.Shared, r.addr, r.sink)
	}
	r.tot.sharedNs += int64(time.Since(t0))
	r.tot.sharedOps += simtCallsPerRound

	t0 = time.Now()
	for i := 0; i < simtCallsPerRound; i++ {
		w.Ballot(r.pred)
	}
	r.tot.ballotNs += int64(time.Since(t0))
	r.tot.ballots += simtCallsPerRound
	r.cta.ResetCounters()
}

func (r *replayer) replayQueue(backlog int) {
	n := min(backlog, replayCap)
	q := queue.New(r.qmem, 0, n)
	for i := 0; i < n; i++ {
		if err := q.Push(uint64(i) + 1); err != nil {
			panic("perfbench: queue replay: " + err.Error())
		}
	}
	for i := 1; i < n; i += 2 {
		q.Clear(i)
	}
	a0 := r.mallocs()
	t0 := time.Now()
	q.Compact(r.qcta)
	r.tot.compactNs += int64(time.Since(t0))
	r.tot.compactAllocs += r.mallocs() - a0
	r.tot.compacts++
	r.qcta.ResetCounters()
}

func (r *replayer) replayEnvelope(t *traffic, tl *tally) {
	n := len(t.envs)
	if cap(r.words) < n {
		r.words = make([]uint64, n)
	}
	r.words = r.words[:n]
	if cap(r.reqWords) < len(t.reqs) {
		r.reqWords = make([]uint64, len(t.reqs))
	}
	r.reqWords = r.reqWords[:len(t.reqs)]
	for i, q := range t.reqs {
		r.reqWords[i] = q.Pack()
	}

	t0 := time.Now()
	for i, e := range t.envs {
		r.words[i] = envelope.Seal(e.Pack())
	}
	t1 := time.Now()
	bad := 0
	for i, w := range r.words {
		e, ok := envelope.UnpackEnvelope(w)
		if !envelope.ChecksumOK(w) || !ok || e != t.envs[i] {
			bad++
		}
	}
	t2 := time.Now()
	for i, m := range t.reqMsg {
		if !envelope.MatchesPacked(r.reqWords[i], r.words[m]) {
			bad++
		}
	}
	t3 := time.Now()
	r.tot.packNs += int64(t1.Sub(t0))
	r.tot.unpackNs += int64(t2.Sub(t1))
	r.tot.matchPackedNs += int64(t3.Sub(t2))
	r.tot.envOps += int64(n)
	r.tot.matchPackedOps += int64(len(t.reqMsg))
	if bad > 0 {
		tl.fail("envelope replay: %d packed headers failed to round-trip or match their receive", bad)
	}
}

func (r *replayer) replayGas(t *traffic, tl *tally) {
	a0 := r.mallocs()
	t0 := time.Now()
	for i, e := range t.envs {
		r.seq++
		if err := r.cluster.PutStream(t.dsts[i], e, t.payloads[i], r.seq, r.seq, 0); err != nil {
			tl.fail("gas replay: PutStream: %v", err)
		}
	}
	t1 := time.Now()
	got := 0
	for g := 0; g < gpus; g++ {
		got += len(r.cluster.Drain(g))
	}
	t2 := time.Now()
	r.tot.gasAllocs += r.mallocs() - a0
	r.tot.putNs += int64(t1.Sub(t0))
	r.tot.drainNs += int64(t2.Sub(t1))
	r.tot.gasMsgs += int64(len(t.envs))
	if got != len(t.envs) {
		tl.fail("gas replay: drained %d of %d frames", got, len(t.envs))
	}
}

func (r *replayer) replayRing() {
	t0 := time.Now()
	for i, w := range r.words {
		if err := r.ring.Push(w | 1); err != nil {
			panic("perfbench: ring replay: " + err.Error())
		}
		r.ring.Pop()
		if i%256 == 255 {
			r.ring.ReturnCredits()
		}
	}
	r.ring.ReturnCredits()
	r.tot.ringNs += int64(time.Since(t0))
	r.tot.ringOps += int64(len(r.words))
}
