package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"simtmp/internal/fault"
	"simtmp/internal/mpx"
)

const (
	setupRepeats = 15  // set-ups per end-to-end run, spread over it; setup_s is their median
	digestRounds = 32  // timed rounds the simulated digest covers
	allocRounds  = 256 // rounds of the allocation window after the timed ones
)

// setup builds the workload's runtime and channels and runs its
// warm-up rounds; the returned time covers exactly that (input
// generation excluded).
func setup(s spec, seed int64, measureAllocs bool, tl *tally) (workload, time.Duration, error) {
	w := s.build(seed)
	runtime.GC()
	t0 := time.Now()
	if err := w.init(measureAllocs); err != nil {
		return nil, 0, err
	}
	for r := 0; r < w.warmup(); r++ {
		w.prepare(r)
		if err := w.round(r, nil, tl); err != nil {
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, time.Since(t0), nil
}

// phase is one stretch of timed rounds on one runtime.
type phase struct {
	durs       []int64 // wall time of each round, ns
	next       int     // the round after the last timed one
	msgs       int     // messages delivered and verified
	wildcards  int     // wildcard receives verified
	st0, st1   mpx.Stats
	inj0, inj1 fault.Counters
	gcs        uint32
	gcCPU, cpu float64
	digest     mpx.Stats // Stats after digestRounds timed rounds
}

func (p *phase) rounds() int { return len(p.durs) }

func (p *phase) wall() float64 {
	var s int64
	for _, d := range p.durs {
		s += d
	}
	return float64(s) / 1e9
}

// rate is delivered-and-verified messages per wall second of rounds.
func (p *phase) rate() float64 { return float64(p.msgs) / p.wall() }

// msgs_per_s leaves out the slowest trimShare of a run's rounds.
// Interference from outside the process only ever slows rounds down,
// and the hosts this runs on go through spells in which rounds stall
// for 4–13 ms, up to several in a hundred. A rate over every round
// moves with how much of the run such a spell covered; leaving out the
// slowest tenth removes the stalls and keeps everything a regression
// that slows more than a tenth of the rounds does.
const (
	trimShare = 0.10
	// minLateRate is the lowest ratio of the median round time of the
	// run's first quarter to that of its last quarter that the host's
	// speed states explain (they are at most 1.8× apart). Below it the
	// per-round cost grew with the run.
	minLateRate = 0.4
)

// roundStats summarises a phase's round times.
type roundStats struct {
	rate     float64 // msg/s over all but the slowest trimShare of the rounds
	allRate  float64 // msg/s over every round
	p50, p99 int64   // round time quantiles over every round, ns
	beyond   int     // rounds beyond p99
	late     float64 // first quarter's median round time over the last quarter's
}

func (p *phase) stats() roundStats {
	n := len(p.durs)
	sorted := sortedCopy(p.durs)
	kept := n - int(float64(n)*trimShare)
	var wall int64
	for _, d := range sorted[:kept] {
		wall += d
	}
	msgsPerRound := float64(p.msgs) / float64(n)
	s := roundStats{rate: msgsPerRound * float64(kept) / (float64(wall) / 1e9), allRate: p.rate(), late: 1}
	s.p50, _ = quantile(sorted, 0.5)
	s.p99, s.beyond = quantile(sorted, 0.99)
	if q := n / 4; q > 0 {
		first, _ := quantile(sortedCopy(p.durs[:q]), 0.5)
		last, _ := quantile(sortedCopy(p.durs[n-q:]), 0.5)
		s.late = float64(first) / float64(last)
	}
	return s
}

// delta returns the counters the phase's rounds added.
func (p *phase) delta() mpx.Stats {
	a, b := p.st0, p.st1
	return mpx.Stats{
		Matches: b.Matches - a.Matches, PrePostedMsgs: b.PrePostedMsgs - a.PrePostedMsgs,
		Sends: b.Sends - a.Sends, Retries: b.Retries - a.Retries, Acks: b.Acks - a.Acks,
		Duplicates: b.Duplicates - a.Duplicates, Drops: b.Drops - a.Drops,
		CreditStalls: b.CreditStalls - a.CreditStalls, ProgressSteps: b.ProgressSteps - a.ProgressSteps,
		Iterations: b.Iterations - a.Iterations, DrainAllocs: b.DrainAllocs - a.DrainAllocs,
		CacheHits: b.CacheHits - a.CacheHits, CacheMisses: b.CacheMisses - a.CacheMisses,
		PersistentRecvs: b.PersistentRecvs - a.PersistentRecvs,
	}
}

// injected sums the fault plane's injections during the phase.
func (p *phase) injected() int {
	a, b := p.inj0, p.inj1
	return (b.Drops - a.Drops) + (b.Duplicates - a.Duplicates) + (b.Corrupts - a.Corrupts) +
		(b.Delays - a.Delays) + (b.AckDrops - a.AckDrops) + (b.Stalls - a.Stalls) +
		(b.Pauses - a.Pauses) + (b.CreditStarves - a.CreditStarves) + (b.Slows - a.Slows)
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	for i, s := range cpuSamples {
		v := 0.0
		if s.Value.Kind() == metrics.KindFloat64 {
			v = s.Value.Float64()
		}
		if i == 0 {
			gc = v
		} else {
			total = v
		}
	}
	return gc, total
}

func injectorCounters(rt *mpx.Runtime) fault.Counters {
	if in := rt.Injector(); in != nil {
		return in.Counters()
	}
	return fault.Counters{}
}

// runPhase runs closed-loop rounds from round first until budget has
// passed (and at least through the digest round). With a tracer, each
// round is also replayed through the lower layers, outside its timing.
// A non-nil pause runs between rounds setupRepeats-1 times, evenly
// spread over the budget, outside the rounds' timing.
func runPhase(w workload, first int, budget time.Duration, tr *tracer, rp *replayer, pause func(), tl *tally) (*phase, error) {
	rt := w.runtime()
	p := &phase{durs: make([]int64, 0, 1<<17)}
	digestAt := w.warmup() + digestRounds
	var m runtime.MemStats
	runtime.GC()
	p.st0, p.inj0 = rt.Stats(), injectorCounters(rt)
	runtime.ReadMemStats(&m)
	p.gcs = m.NumGC
	gc0, cpu0 := readCPU()
	wild0 := tl.wildcards

	start := time.Now()
	deadline := start.Add(budget)
	pauses := 0
	for r := first; ; r++ {
		if pause != nil && pauses < setupRepeats-1 &&
			time.Since(start) >= budget*time.Duration(pauses+1)/setupRepeats {
			pause()
			pauses++
		}
		w.prepare(r)
		var before mpx.Stats
		if tr != nil {
			before = rt.Stats()
		}
		rs := tr.beginRound()
		t0 := time.Now()
		err := w.round(r, tr, tl)
		d := time.Since(t0)
		if err != nil {
			tr.endRound(rs, 0)
			return nil, err
		}
		if tr != nil {
			after := rt.Stats()
			engineRan := after.Iterations > before.Iterations || after.CacheMisses > before.CacheMisses
			backlog := (after.Matches - after.PrePostedMsgs) - (before.Matches - before.PrePostedMsgs)
			rp.replay(tr, w.traffic(r), engineRan, backlog, tl)
		}
		tr.endRound(rs, w.msgsPerRound())
		p.durs = append(p.durs, int64(d))
		p.msgs += w.msgsPerRound()
		if r+1 == digestAt {
			p.digest = rt.Stats()
		}
		if r+1 >= digestAt && !time.Now().Before(deadline) {
			p.next = r + 1
			break
		}
	}

	gc1, cpu1 := readCPU()
	runtime.ReadMemStats(&m)
	p.gcs = m.NumGC - p.gcs
	p.gcCPU, p.cpu = gc1-gc0, cpu1-cpu0
	p.st1, p.inj1 = rt.Stats(), injectorCounters(rt)
	p.wildcards = tl.wildcards - wild0
	return p, nil
}

// allocs is what the runtime allocated over the allocation window.
type allocs struct {
	rounds, msgs   int
	mallocs, bytes uint64
}

func (a allocs) perMsg() float64      { return float64(a.mallocs) / float64(a.msgs) }
func (a allocs) bytesPerMsg() float64 { return float64(a.bytes) / float64(a.msgs) }

// allocWindow runs allocRounds untimed rounds from round first and
// counts the heap allocations they make. Nothing else allocates in the
// window (the timed rounds' log and the CPU metrics stay outside it), so
// the counts are the runtime's own.
func allocWindow(w workload, first int, tl *tally) (allocs, error) {
	a := allocs{rounds: allocRounds, msgs: allocRounds * w.msgsPerRound()}
	// Finish any collection of the timed rounds' garbage first, so none
	// runs inside the window.
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.mallocs, a.bytes = m.Mallocs, m.TotalAlloc
	for r := first; r < first+allocRounds; r++ {
		w.prepare(r)
		if err := w.round(r, nil, tl); err != nil {
			return a, fmt.Errorf("allocation window: %w", err)
		}
	}
	runtime.ReadMemStats(&m)
	a.mallocs, a.bytes = m.Mallocs-a.mallocs, m.TotalAlloc-a.bytes
	return a, nil
}

// quantile returns the q-quantile of sorted (nearest rank) and the
// number of samples above it.
func quantile(sorted []int64, q float64) (int64, int) {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i], len(sorted) - 1 - i
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMiB is the heap in use after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
