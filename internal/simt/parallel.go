package simt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count configuration value: n <= 0 selects
// GOMAXPROCS (use every host core the runtime is allowed), any other
// value is returned as-is. Engine configs use 0 for "parallel by
// default" and 1 for "force sequential".
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ParallelFor runs fn(i) for every i in [0, n) across up to workers
// goroutines and returns when all calls completed. workers <= 0 selects
// GOMAXPROCS; workers == 1 (or n == 1) degenerates to a plain loop with
// no goroutine or channel traffic, so the sequential path stays the
// zero-overhead baseline.
//
// Determinism contract: iterations must be independent — fn(i) may
// write only state owned by iteration i (its result slot, its CTA, its
// partition). Under that contract the outcome is bit-identical to the
// sequential loop regardless of scheduling, because no iteration
// observes another's writes. Iterations are handed out by an atomic
// counter, so work stays balanced when per-iteration cost is skewed.
//
// A panic in any iteration is re-raised on the caller's goroutine
// after all workers have stopped (first panic in iteration order wins,
// so failures are reproducible).
//
// The caller runs iterations itself, helped by persistent helper
// goroutines: a call offers its work to helpers that are parked idle
// and never waits for one to become free, so nested ParallelFor calls
// cannot deadlock (an inner call that finds every helper busy runs on
// its caller). Helpers are started on first demand, up to the largest
// helper count any call asked for, and then stay parked for the life of
// the process, so a steady-state call allocates nothing.
func ParallelFor(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	j := getJob()
	j.fn, j.n, j.panicked, j.panicVal = fn, int64(n), -1, nil
	j.next.Store(0)
	for h := 1; h < workers; h++ {
		j.helpers.Add(1)
		if !offer(j, workers-1) {
			j.helpers.Done()
			break
		}
	}
	j.run()
	j.helpers.Wait()
	panicked, panicVal := j.panicked, j.panicVal
	j.fn, j.panicVal = nil, nil
	putJob(j)
	if panicked >= 0 {
		panic(fmt.Sprintf("simt: ParallelFor iteration %d panicked: %v", panicked, panicVal))
	}
}

// forJob is one ParallelFor call's shared state. Jobs are recycled
// through jobFree, so a call allocates nothing once warm.
type forJob struct {
	fn      func(i int)
	n       int64
	next    atomic.Int64
	helpers sync.WaitGroup // helpers that accepted the job

	panicMu  sync.Mutex
	panicked int
	panicVal any
}

var (
	// idle hands a job to a parked helper. It is unbuffered, so a
	// non-blocking send succeeds only when a helper is waiting on it.
	idle = make(chan *forJob)
	// helpers counts the started helper goroutines.
	helpers atomic.Int64
	// jobFree recycles forJobs. Each call in flight holds one, so the
	// list needs one slot per nesting level per concurrent caller; 64
	// covers every caller in this module with room to spare, and a call
	// that finds it empty allocates a job.
	jobFree = make(chan *forJob, 64)
)

func getJob() *forJob {
	select {
	case j := <-jobFree:
		return j
	default:
		return new(forJob)
	}
}

func putJob(j *forJob) {
	select {
	case jobFree <- j:
	default:
	}
}

// offer hands j to an idle helper, or starts a new one while fewer than
// want helpers exist. It reports false when neither is possible: the
// caller then runs the remaining iterations with the helpers it has.
func offer(j *forJob, want int) bool {
	select {
	case idle <- j:
		return true
	default:
	}
	for {
		h := helpers.Load()
		if h >= int64(want) {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			go helper(j)
			return true
		}
	}
}

// helper runs jobs until the process exits, parking on idle between
// them. An iteration that calls runtime.Goexit (a test's t.FailNow)
// ends the helper; it then releases its job and its pool slot, so the
// caller does not wait forever and a later call may start a
// replacement.
func helper(j *forJob) {
	defer func() {
		helpers.Add(-1)
		j.helpers.Done()
	}()
	for {
		j.run()
		j.helpers.Done()
		j = <-idle
	}
}

// run executes iterations of j until none is left.
func (j *forJob) run() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.call(int(i))
	}
}

// call runs iteration i, recording its panic if it is the earliest so
// far in iteration order.
func (j *forJob) call(i int) {
	defer func() {
		if r := recover(); r != nil {
			j.panicMu.Lock()
			if j.panicked < 0 || i < j.panicked {
				j.panicked, j.panicVal = i, r
			}
			j.panicMu.Unlock()
		}
	}()
	j.fn(i)
}

// LaunchParallel is Launch with the CTA loop spread across a
// GOMAXPROCS-bounded worker pool (workers <= 0 selects GOMAXPROCS).
// Each CTA still executes its own warps sequentially and
// deterministically; only whole CTAs run concurrently, and per-CTA
// counters land in stats.PerCTA indexed by CTA id, so the merged
// LaunchStats — and therefore the timing model's cycle accounting — is
// bit-identical to the sequential Launch.
//
// The kernel must honor CTA independence, the same property the
// hardware grid model guarantees nothing beyond: CTAs may read shared
// global memory freely but must write only disjoint regions, and must
// not communicate through global atomics whose outcome the result
// depends on. Kernels needing cross-CTA atomics (the hash matcher's
// shared tables) belong on Launch, where the sequential CTA order makes
// the interleaving reproducible.
func (d *Device) LaunchParallel(ctas, threadsPerCTA, sharedWords, regsPerThread, workers int, kernel Kernel) *LaunchStats {
	if ctas <= 0 {
		panic(fmt.Sprintf("simt: launch with %d CTAs", ctas))
	}
	stats := &LaunchStats{
		PerCTA:    make([]Counters, ctas),
		Footprint: archFootprint(threadsPerCTA, regsPerThread, sharedWords),
	}
	ParallelFor(ctas, workers, func(i int) {
		c := NewCTA(i, threadsPerCTA, sharedWords)
		kernel(c, d.Global)
		stats.PerCTA[i] = c.Counters()
	})
	if d.AfterLaunch != nil {
		d.AfterLaunch(stats)
	}
	return stats
}
