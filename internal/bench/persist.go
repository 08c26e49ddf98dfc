// Persistent-channel benchmarks: how much does the sealed match-handle
// cache (DESIGN.md §15) buy over running the matching engine every
// iteration? Three tracked profiles: persist/halo (the LULESH-style
// 3D halo proxy on the hash engine — the paper's fixed-pattern sweet
// spot), persist/collective (a persistent recursive-doubling
// allreduce), and persist/churn (halo traffic with periodic wildcard
// injections forcing seal invalidation and recovery). All headline
// metrics are simulated (cycle-model) and deterministic; the
// steady-state re-fire additionally carries the zero-allocation
// contract as a KindAlloc record.
package bench

import (
	"fmt"
	"io"
	"testing"

	"simtmp/internal/coll"
	"simtmp/internal/envelope"
	"simtmp/internal/mpx"
)

// PersistResult is one persistent profile outcome.
type PersistResult struct {
	Profile       string
	FirstIterUs   float64 // iteration 1: full engine + seal
	RefireUs      float64 // steady-state simulated µs/iteration
	RefireRateM   float64 // steady-state M deliveries/s (simulated)
	Speedup       float64 // engine-every-iteration time / re-fire time
	HitRate       float64 // steady-state cache hit rate
	Invalidations int     // seals broken by plain-post injections
	AllocsPerOp   float64 // host allocs per re-fire iteration (-1 = not measured)
}

// persistIters is the tracked iteration count per profile: iteration 1
// is the metered first (engine) iteration, the rest are steady state.
const persistIters = 33

// haloFaces is the 3D face count of the halo proxy.
const haloFaces = 6

// haloPeers returns the six face neighbours of rank r in a 2×2×2
// periodic grid (the examples/halo topology).
func haloPeers(r int) [haloFaces]int {
	nx, ny, nz := 2, 2, 2
	x, y, z := r%nx, (r/nx)%ny, r/(nx*ny)
	rank := func(x, y, z int) int {
		return ((z+nz)%nz*ny+(y+ny)%ny)*nx + (x+nx)%nx
	}
	return [haloFaces]int{
		rank(x+1, y, z), rank(x-1, y, z),
		rank(x, y+1, z), rank(x, y-1, z),
		rank(x, y, z+1), rank(x, y, z-1),
	}
}

// haloChannels builds the persistent channel set of the halo proxy:
// every rank sends one face payload per direction and receives the
// opposite direction from the same peer. Tuples are unique, so the
// pattern runs on the hash engine (Unordered) and every channel seals.
func haloChannels(rt *mpx.Runtime, gpus, payload int) ([]*mpx.PersistentSend, []*mpx.PersistentRecv, error) {
	var sends []*mpx.PersistentSend
	var recvs []*mpx.PersistentRecv
	for r := 0; r < gpus; r++ {
		for d, peer := range haloPeers(r) {
			buf := make([]byte, payload)
			for i := range buf {
				buf[i] = byte(r + d + i)
			}
			s, err := rt.SendInit(r, peer, envelope.Tag(d), 0, buf)
			if err != nil {
				return nil, nil, err
			}
			sends = append(sends, s)
			h, err := rt.RecvInit(r, envelope.Rank(peer), envelope.Tag(d^1), 0)
			if err != nil {
				return nil, nil, err
			}
			recvs = append(recvs, h)
		}
	}
	return sends, recvs, nil
}

// haloIter runs one halo exchange iteration over prebuilt channels.
func haloIter(rt *mpx.Runtime, sends []*mpx.PersistentSend, recvs []*mpx.PersistentRecv) error {
	for _, h := range recvs {
		if err := h.Start(); err != nil {
			return err
		}
	}
	for _, s := range sends {
		if err := s.Start(); err != nil {
			return err
		}
	}
	ok, err := rt.Drain(256)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("halo iteration did not drain")
	}
	return nil
}

// plainHaloIter runs the same exchange through non-persistent posts —
// the engine-every-iteration reference the speedup is measured
// against.
func plainHaloIter(rt *mpx.Runtime, gpus int, payload []byte) error {
	for r := 0; r < gpus; r++ {
		for d, peer := range haloPeers(r) {
			if _, err := rt.PostRecv(r, envelope.Rank(peer), envelope.Tag(d^1), 0); err != nil {
				return err
			}
		}
	}
	for r := 0; r < gpus; r++ {
		for d, peer := range haloPeers(r) {
			if err := rt.Send(r, peer, envelope.Tag(d), 0, payload); err != nil {
				return err
			}
		}
	}
	ok, err := rt.Drain(256)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("plain halo iteration did not drain")
	}
	return nil
}

// plainHaloUs runs the engine-every-iteration reference on a fresh
// runtime at level: one warm-up plainHaloIter, then iters-1 measured
// ones, preceded every churnPeriod-th by churnInject when churn is
// set. It returns the steady-state simulated µs per iteration.
func plainHaloUs(level mpx.Level, gpus, payload, iters int, churn bool) (float64, error) {
	rt := mpx.New(mpx.Config{Level: level, GPUs: gpus})
	buf := make([]byte, payload)
	if err := plainHaloIter(rt, gpus, buf); err != nil {
		return 0, err
	}
	rt.ResetStats()
	for k := 1; k < iters; k++ {
		if churn && k%churnPeriod == 0 {
			if err := churnInject(rt); err != nil {
				return 0, err
			}
		}
		if err := plainHaloIter(rt, gpus, buf); err != nil {
			return 0, err
		}
	}
	return rt.Stats().SimSeconds / float64(iters-1) * 1e6, nil
}

// steady fills the steady-state fields from the stats of the iters-1
// iterations after the first.
func (res *PersistResult) steady(st mpx.Stats, iters int) {
	res.RefireUs = st.SimSeconds / float64(iters-1) * 1e6
	if st.SimSeconds > 0 {
		res.RefireRateM = float64(st.Matches) / st.SimSeconds / 1e6
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		res.HitRate = float64(st.CacheHits) / float64(total)
	}
	res.Invalidations = st.CacheInvalidations
}

// speedup sets Speedup against the engine-every-iteration reference's
// steady-state µs per iteration.
func (res *PersistResult) speedup(plainUs float64) {
	if res.RefireUs > 0 {
		res.Speedup = plainUs / res.RefireUs
	}
}

// PersistHalo runs the halo profile at one payload size: a persistent
// run (first iteration metered separately, then steady state) against
// a plain-post run on the same hash-engine runtime configuration.
// nocache disables the seal cache on the persistent arm (the
// MutatePersist mutation): hit rate and speedup must collapse.
func PersistHalo(payload, iters int, nocache bool) (PersistResult, error) {
	const gpus = 8
	res := PersistResult{Profile: "halo", AllocsPerOp: -1}

	rt := mpx.New(mpx.Config{Level: mpx.Unordered, GPUs: gpus, DisablePersistentCache: nocache})
	sends, recvs, err := haloChannels(rt, gpus, payload)
	if err != nil {
		return res, err
	}
	if err := haloIter(rt, sends, recvs); err != nil {
		return res, err
	}
	res.FirstIterUs = rt.Stats().SimSeconds * 1e6
	rt.ResetStats()
	for k := 1; k < iters; k++ {
		if err := haloIter(rt, sends, recvs); err != nil {
			return res, err
		}
	}
	res.steady(rt.Stats(), iters)

	plainUs, err := plainHaloUs(mpx.Unordered, gpus, payload, iters, false)
	if err != nil {
		return res, err
	}
	res.speedup(plainUs)

	// Zero-allocation contract of the re-fire path, measured on a warm
	// runtime (pools populated, scratch at capacity).
	res.AllocsPerOp = testing.AllocsPerRun(20, func() {
		if err := haloIter(rt, sends, recvs); err != nil {
			panic(err)
		}
	})
	return res, nil
}

// PersistCollective runs the persistent recursive-doubling allreduce
// profile against the plain BSP allreduce on identical runtimes.
func PersistCollective(iters int, nocache bool) (PersistResult, error) {
	const gpus = 8
	res := PersistResult{Profile: "collective", AllocsPerOp: -1}

	rt := mpx.New(mpx.Config{Level: mpx.Unordered, GPUs: gpus, DisablePersistentCache: nocache})
	c, err := coll.New(rt, 0, 100)
	if err != nil {
		return res, err
	}
	plan, err := c.NewPersistentAllReduce(coll.Sum)
	if err != nil {
		return res, err
	}
	defer plan.Free()
	vals := make([]float64, gpus)
	out := make([]float64, gpus)
	for r := range vals {
		vals[r] = float64(r + 1)
	}
	if err := plan.RunInto(out, vals); err != nil {
		return res, err
	}
	res.FirstIterUs = rt.Stats().SimSeconds * 1e6
	rt.ResetStats()
	for k := 1; k < iters; k++ {
		if err := plan.RunInto(out, vals); err != nil {
			return res, err
		}
	}
	res.steady(rt.Stats(), iters)

	prt := mpx.New(mpx.Config{Level: mpx.Unordered, GPUs: gpus})
	pc, err := coll.New(prt, 0, 100)
	if err != nil {
		return res, err
	}
	if _, err := pc.AllReduce(vals, coll.Sum); err != nil {
		return res, err
	}
	prt.ResetStats()
	for k := 1; k < iters; k++ {
		if _, err := pc.AllReduce(vals, coll.Sum); err != nil {
			return res, err
		}
	}
	res.speedup(prt.Stats().SimSeconds / float64(iters-1) * 1e6)
	return res, nil
}

// churnPeriod is how often (in iterations) the churn profile injects a
// plain wildcard receive plus its matching send.
const churnPeriod = 4

// churnInject posts a plain wildcard receive on rank 0's tag-1 face
// and sends it the matching message. On a persistent runtime the post
// unseals every channel delivering tag 1 to rank 0 (its (comm, tag)
// shadow).
func churnInject(rt *mpx.Runtime) error {
	if _, err := rt.PostRecv(0, envelope.AnySource, 1, 0); err != nil {
		return err
	}
	return rt.Send(haloPeers(0)[0], 0, 1, 0, []byte{0xC7})
}

// PersistChurn runs halo traffic with churnInject every churnPeriod
// iterations — each injection unseals the targeted channel's
// (comm, tag) shadow, so the profile measures invalidation cost and
// re-seal recovery, not the clean steady state. The speedup is against
// a plain-post halo run with the same injections. FullMPI level:
// wildcards must be legal.
func PersistChurn(iters int, nocache bool) (PersistResult, error) {
	const (
		gpus    = 8
		payload = 256
	)
	res := PersistResult{Profile: "churn", AllocsPerOp: -1}

	rt := mpx.New(mpx.Config{Level: mpx.FullMPI, GPUs: gpus, DisablePersistentCache: nocache})
	sends, recvs, err := haloChannels(rt, gpus, payload)
	if err != nil {
		return res, err
	}
	if err := haloIter(rt, sends, recvs); err != nil {
		return res, err
	}
	res.FirstIterUs = rt.Stats().SimSeconds * 1e6
	rt.ResetStats()
	for k := 1; k < iters; k++ {
		if k%churnPeriod == 0 {
			if err := churnInject(rt); err != nil {
				return res, err
			}
		}
		if err := haloIter(rt, sends, recvs); err != nil {
			return res, err
		}
	}
	res.steady(rt.Stats(), iters)
	if !nocache && res.Invalidations == 0 {
		return res, fmt.Errorf("bench: churn profile never invalidated a seal (vacuous run)")
	}

	plainUs, err := plainHaloUs(mpx.FullMPI, gpus, payload, iters, true)
	if err != nil {
		return res, err
	}
	res.speedup(plainUs)
	return res, nil
}

// RunPersistProfiles executes the three tracked persistent profiles.
// The MutatePersist mutation disables the seal cache, which must make
// a blessed baseline fail.
func RunPersistProfiles(mutate string) ([]PersistResult, error) {
	nocache := mutate == MutatePersist
	halo, err := PersistHalo(1024, persistIters, nocache)
	if err != nil {
		return nil, fmt.Errorf("bench: persist/halo: %w", err)
	}
	collective, err := PersistCollective(persistIters, nocache)
	if err != nil {
		return nil, fmt.Errorf("bench: persist/collective: %w", err)
	}
	churn, err := PersistChurn(persistIters, nocache)
	if err != nil {
		return nil, fmt.Errorf("bench: persist/churn: %w", err)
	}
	return []PersistResult{halo, collective, churn}, nil
}

// PersistRecords converts profile outcomes into tracked regression
// records. Simulated metrics are KindSim (deterministic); the re-fire
// allocation count is KindAlloc (exact, any increase fails).
func PersistRecords(results []PersistResult) []BenchRecord {
	var recs []BenchRecord
	for _, r := range results {
		name := "persist/" + r.Profile
		recs = append(recs,
			BenchRecord{Name: name + "/refire_speedup", Kind: KindSim, Value: r.Speedup, Unit: "x", HigherIsBetter: true},
			BenchRecord{Name: name + "/hit_rate", Kind: KindSim, Value: r.HitRate, Unit: "ratio", HigherIsBetter: true},
			BenchRecord{Name: name + "/refire_us", Kind: KindSim, Value: r.RefireUs, Unit: "us/iter"},
		)
		if r.AllocsPerOp >= 0 {
			recs = append(recs, BenchRecord{Name: name + "/refire_allocs_op", Kind: KindAlloc,
				Value: r.AllocsPerOp, Unit: "allocs/iter"})
		}
	}
	return recs
}

// PersistSweepPoint is one row of the -persistent iteration sweep.
// AmortizedUs folds the first (full-engine + seal) iteration into the
// average, so the column shows where persistent channels break even:
// at low iteration counts the seal cost dominates, at high counts the
// row converges to the pure re-fire cost.
type PersistSweepPoint struct {
	Iters       int
	FirstIterUs float64
	RefireUs    float64
	AmortizedUs float64
	RefireRateM float64
	HitRate     float64
	Speedup     float64
}

// PersistSweep runs the halo profile across iteration counts — the
// cmd/matchbench -persistent table: first-iteration (match + seal)
// cost, steady-state re-fire rate and cache hit rate per count, plus
// the amortized per-iteration cost showing the break-even. The
// MutatePersist mutation disables the seal cache.
func PersistSweep(mutate string) ([]PersistSweepPoint, error) {
	var out []PersistSweepPoint
	for _, iters := range []int{2, 4, 8, 16, 32, 64} {
		r, err := PersistHalo(1024, iters, mutate == MutatePersist)
		if err != nil {
			return nil, fmt.Errorf("bench: persist sweep iters %d: %w", iters, err)
		}
		out = append(out, PersistSweepPoint{
			Iters:       iters,
			FirstIterUs: r.FirstIterUs,
			RefireUs:    r.RefireUs,
			AmortizedUs: (r.FirstIterUs + float64(iters-1)*r.RefireUs) / float64(iters),
			RefireRateM: r.RefireRateM,
			HitRate:     r.HitRate,
			Speedup:     r.Speedup,
		})
	}
	return out, nil
}

// PrintPersistSweep renders the sweep as the -persistent table.
func PrintPersistSweep(w io.Writer, rows []PersistSweepPoint) {
	fmt.Fprintln(w, "persistent halo proxy (8 GPUs, 6 faces, hash engine): match once, re-fire O(1)")
	fmt.Fprintf(w, "%6s  %13s  %10s  %12s  %14s  %8s  %8s\n",
		"iters", "first_iter_us", "refire_us", "amortized_us", "refire_Mmsg/s", "hit_rate", "speedup")
	for _, p := range rows {
		fmt.Fprintf(w, "%6d  %13.3f  %10.4f  %12.4f  %14.1f  %8.3f  %7.1fx\n",
			p.Iters, p.FirstIterUs, p.RefireUs, p.AmortizedUs, p.RefireRateM, p.HitRate, p.Speedup)
	}
}
