// Chaos mode: end-to-end conformance of the full runtime under fault
// injection. Where the base harness checks one Match call against the
// oracle, chaos mode drives complete send/recv workloads through the
// mpx runtime — per semantic level, so every matching engine is
// exercised — over a wire that drops, duplicates, corrupts, delays,
// stalls and starves, and asserts the reliability contract end to end:
//
//   - exactly-once delivery: every sent message is delivered to
//     exactly one receive, none lost, none duplicated;
//   - envelope integrity: each delivered message satisfies the receive
//     it was matched to (corruption never leaks through);
//   - per-flow ordering (ordered levels): messages of one
//     (src,dst,tag) class are delivered in send order despite wire
//     reordering — under StreamOrdered the stream id joins the class
//     key, so per-stream order stays load-bearing while cross-stream
//     reordering is the sanctioned relaxation;
//   - liveness: the drain converges instead of stalling or spinning.
//
// Workloads are deterministic per (seed, index, level): a failure
// replays exactly via the reported handle.
package conformance

import (
	"errors"
	"fmt"
	"math/rand"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/mpx"
	"simtmp/internal/simt"
	"simtmp/internal/telemetry"
)

// ChaosMix is the default fault brew: every fault class enabled at
// rates high enough that a ~1000-workload run exercises each hundreds
// of times, low enough that retry budgets are never honestly exhausted.
func ChaosMix() fault.Config {
	return fault.Config{
		Drop: 0.05, Duplicate: 0.05, Corrupt: 0.05, Delay: 0.05,
		AckDrop: 0.10, Stall: 0.04, Pause: 0.01, CreditStarve: 0.03,
	}
}

// ChaosBackpressureMix is the overload brew: the wire still drops,
// duplicates and loses acks, and receivers intermittently collapse
// their drain rate — while every workload additionally runs with
// bounded queues and a shed policy (see chaosWorkload's backpressure
// mode). Pause/stall classes stay off so the only sustained pressure
// is the slow-consumer regime the bounded queues must absorb.
func ChaosBackpressureMix() fault.Config {
	return fault.Config{
		Drop: 0.03, Duplicate: 0.03, AckDrop: 0.10,
		SlowReceiver: 0.05, SlowSteps: 6, SlowDrainLimit: 1,
	}
}

// ChaosLevels returns the semantic levels a chaos run covers — all
// five, so the matrix, partitioned, hash and stream engines all sit
// under the faulty wire.
func ChaosLevels() []mpx.Level {
	return []mpx.Level{mpx.FullMPI, mpx.NoSourceWildcard, mpx.NoUnexpected, mpx.Unordered, mpx.StreamOrdered}
}

// ChaosFailure records one violated workload with its replay handle.
type ChaosFailure struct {
	Level mpx.Level
	Index int
	Seed  int64
	// Backpressure marks a bounded-queue (shed-policy) workload; the
	// replay recipe differs.
	Backpressure bool
	Err          error
}

// String formats the failure with the replay recipe.
func (f ChaosFailure) String() string {
	fn, mix := "ChaosWorkload", "ChaosMix"
	if f.Backpressure {
		fn, mix = "ChaosBackpressureWorkload", "ChaosBackpressureMix"
	}
	return fmt.Sprintf("%v: workload %d (replay: conformance.%s(%v, %d, %d, conformance.%s())): %v",
		f.Level, f.Index, fn, f.Level, f.Seed, f.Index, mix, f.Err)
}

// ChaosReport summarizes one level's chaos run. Stats aggregates the
// runtimes' merged statistics across all workloads, so a clean run can
// additionally be checked for nonzero injection/recovery counters per
// enabled fault class.
type ChaosReport struct {
	Level     mpx.Level
	Engine    string // matching engine backing the level
	Workloads int
	Messages  int // total messages sent across workloads
	Stats     mpx.Stats
	Failures  []ChaosFailure
}

// recv pairs a posted handle with its request for post-hoc checks.
type chaosRecv struct {
	handle *mpx.Recv
	req    envelope.Request
	dst    int
}

// ChaosWorkload runs workload i of a seeded chaos run at one level and
// returns the runtime's merged stats plus the number of messages sent;
// a non-nil error is a conformance violation. It is the replay handle
// reported by failures.
func ChaosWorkload(level mpx.Level, seed int64, i int, mix fault.Config) (mpx.Stats, int, error) {
	st, n, _, err := chaosWorkload(level, seed, i, mix, nil, false)
	return st, n, err
}

// ChaosBackpressureWorkload is ChaosWorkload with the runtime's
// overload protection active: bounded staging/UMQ/PRQ (randomized per
// workload) and a shed policy. The reliability contract it asserts is
// the overload one — every send either accepted (and then delivered
// exactly once, shed-and-recovered or not) or refused with the typed
// ErrBackpressure; no third outcome, no silent loss.
func ChaosBackpressureWorkload(level mpx.Level, seed int64, i int, mix fault.Config) (mpx.Stats, int, error) {
	st, n, _, err := chaosWorkload(level, seed, i, mix, nil, true)
	return st, n, err
}

// ChaosWorkloadTraced is ChaosWorkload with the runtime's flight
// recorder enabled; it additionally returns the recorder so the caller
// can export the trace. Because the workload is deterministic per
// (seed, index, level) and the recorder stamps only simulated time,
// the exported trace is byte-identical across replays of the same
// handle — the property trace_test.go pins down.
func ChaosWorkloadTraced(level mpx.Level, seed int64, i int, mix fault.Config, tcfg telemetry.Config) (mpx.Stats, int, *telemetry.Recorder, error) {
	tcfg.Enabled = true
	return chaosWorkload(level, seed, i, mix, &tcfg, false)
}

// RunChaosTrace replays seeded chaos workloads (FullMPI semantics,
// ChaosMix faults) and returns the flight recorder of the first one
// whose run retransmitted — so the exported trace shows the full
// fault → retransmit → match-pass chain on one simulated-time axis.
// The scan is deterministic per seed; the same seed always returns the
// same workload's byte-identical trace.
//
// tcfg parameterizes the recorder (the zero value selects defaults;
// Enabled is forced on). A tcfg.Stream writer receives the chosen
// workload's trace live: the scan itself runs without telemetry, and
// only the chosen workload is then replayed under tcfg, so the
// streamed bytes cover exactly the workload the recorder holds.
func RunChaosTrace(seed int64, tcfg telemetry.Config) (*telemetry.Recorder, error) {
	pick := 0
	for i := 0; i < 64; i++ {
		st, _, err := ChaosWorkload(mpx.FullMPI, seed, i, ChaosMix())
		if err != nil {
			return nil, err
		}
		if st.Retries > 0 {
			pick = i
			break
		}
	}
	_, _, rec, err := ChaosWorkloadTraced(mpx.FullMPI, seed, pick, ChaosMix(), tcfg)
	return rec, err
}

func chaosWorkload(level mpx.Level, seed int64, i int, mix fault.Config, tcfg *telemetry.Config, bp bool) (mpx.Stats, int, *telemetry.Recorder, error) {
	const mixMul = int64(-0x61C8864680B583EB) // golden-ratio multiplier (2^64/φ)
	sub := seed ^ int64(i)*mixMul ^ int64(level)
	rng := rand.New(rand.NewSource(sub))
	mix.Seed = sub + 1

	gpus := 2 + rng.Intn(3)
	n := 4 + rng.Intn(29)
	// StreamOrdered workloads spread their traffic over several ordering
	// contexts opened through the endpoint API, so chaos doubles as the
	// endpoint/stream handles' fault-injection coverage. The sub-seed
	// already mixes in the level, so these extra draws cannot perturb the
	// other levels' seeded workloads.
	nStreams := 1
	if level == mpx.StreamOrdered {
		nStreams = 1 + rng.Intn(4)
	}
	cfg := mpx.Config{
		Level: level, GPUs: gpus, QueueCap: 8 + rng.Intn(24),
		Fault: &mix, Telemetry: tcfg,
	}
	if bp {
		// Backpressure mode: bounded queues and a shed policy, drawn
		// from a separate stream so the workload shape (gpus, sends,
		// receive modes) matches the unbounded run of the same handle.
		bpRng := rand.New(rand.NewSource(sub ^ 0x5851F42D4C957F2D))
		cfg.StagingCap = 1 + bpRng.Intn(3)
		cfg.UMQCap = (gpus - 1) * (1 + bpRng.Intn(3))
		cfg.PRQCap = n // bounded, sized so the harness's own posts fit
		if level == mpx.NoUnexpected {
			// NoUnexpected pre-posts every receive before the first
			// send, so a rejected send would strand its receive; the
			// drop policies accept-and-recover instead.
			cfg.Shed = []mpx.ShedPolicy{mpx.ShedDropOldest, mpx.ShedDropNewest}[bpRng.Intn(2)]
		} else {
			cfg.Shed = []mpx.ShedPolicy{mpx.ShedReject, mpx.ShedDropOldest, mpx.ShedDropNewest}[bpRng.Intn(3)]
		}
	}
	rt := mpx.New(cfg)
	rec := rt.Recorder()

	// streams[g][s] is GPU g's handle for stream s (StreamOrdered only);
	// index 0 is the endpoint's default stream.
	var streams [][]*mpx.Stream
	if level == mpx.StreamOrdered {
		streams = make([][]*mpx.Stream, gpus)
		for g := range streams {
			ep, err := rt.Endpoint(g)
			if err != nil {
				return mpx.Stats{}, n, rec, err
			}
			streams[g] = append(streams[g], ep.Default())
			for s := 1; s < nStreams; s++ {
				h, err := ep.Open(envelope.Stream(s))
				if err != nil {
					return mpx.Stats{}, n, rec, fmt.Errorf("open stream %d on GPU %d: %w", s, g, err)
				}
				streams[g] = append(streams[g], h)
			}
		}
	}

	// Receive shape per destination, uniform so that class counts stay
	// balanced and any arrival interleaving admits a perfect matching:
	// 0 = concrete (src,tag), 1 = anyTag (src,ANY), 2 = anySrc (ANY,tag).
	modes := make([]int, gpus)
	for g := range modes {
		switch level {
		case mpx.FullMPI, mpx.StreamOrdered:
			modes[g] = rng.Intn(3)
		case mpx.NoSourceWildcard, mpx.NoUnexpected:
			modes[g] = rng.Intn(2)
		default: // Unordered: concrete only, tags unique per flow
			modes[g] = 0
		}
	}

	type send struct {
		src, dst int
		tag      envelope.Tag
		stream   envelope.Stream
	}
	sends := make([]send, n)
	for k := range sends {
		s := send{src: rng.Intn(gpus), dst: rng.Intn(gpus)}
		if level == mpx.Unordered {
			s.tag = envelope.Tag(k) // unique within every flow
		} else {
			s.tag = envelope.Tag(rng.Intn(3))
		}
		if level == mpx.StreamOrdered {
			s.stream = envelope.Stream(rng.Intn(nStreams))
		}
		sends[k] = s
	}
	reqFor := func(s send) envelope.Request {
		var req envelope.Request
		switch modes[s.dst] {
		case 1:
			req = envelope.Request{Src: envelope.Rank(s.src), Tag: envelope.AnyTag}
		case 2:
			req = envelope.Request{Src: envelope.AnySource, Tag: s.tag}
		default:
			req = envelope.Request{Src: envelope.Rank(s.src), Tag: s.tag}
		}
		req.Stream = s.stream // wildcards range within the stream
		return req
	}
	post := func(k int) (chaosRecv, error) {
		s := sends[k]
		req := reqFor(s)
		var h *mpx.Recv
		var err error
		if streams != nil {
			h, err = streams[s.dst][s.stream].PostRecv(req.Src, req.Tag, req.Comm)
		} else {
			h, err = rt.PostRecv(s.dst, req.Src, req.Tag, req.Comm)
		}
		if err != nil {
			return chaosRecv{}, fmt.Errorf("post recv %d: %w", k, err)
		}
		return chaosRecv{handle: h, req: req, dst: s.dst}, nil
	}

	// NoUnexpected requires every receive on the wall before the first
	// message can arrive; the other levels interleave posting with
	// sending (and sprinkle Progress calls) to also exercise the
	// unexpected-message path under faults.
	recvs := make([]chaosRecv, 0, n) // in posted order
	var deferred []int
	if level == mpx.NoUnexpected {
		for k := range sends {
			r, err := post(k)
			if err != nil {
				return mpx.Stats{}, n, rec, err
			}
			recvs = append(recvs, r)
		}
	}
	shedSends := make([]bool, n)
	rejects := 0
	for k, s := range sends {
		payload := []byte{byte(k)}
		var err error
		if streams != nil {
			err = streams[s.src][s.stream].Send(s.dst, s.tag, 0, payload)
		} else {
			err = rt.Send(s.src, s.dst, s.tag, 0, payload)
		}
		if err != nil {
			if bp && errors.Is(err, mpx.ErrBackpressure) {
				// Typed refusal (ShedReject at the staging cap): legal
				// under overload. The message was never accepted, so no
				// receive is posted for it and exactly-once expects zero
				// deliveries.
				shedSends[k] = true
				rejects++
				continue
			}
			return rt.Stats(), n, rec, fmt.Errorf("send %d: %w", k, err)
		}
		if level != mpx.NoUnexpected {
			if rng.Float64() < 0.5 {
				r, err := post(k)
				if err != nil {
					return rt.Stats(), n, rec, err
				}
				recvs = append(recvs, r)
			} else {
				deferred = append(deferred, k)
			}
			if rng.Float64() < 0.3 {
				if err := rt.Progress(); err != nil {
					return rt.Stats(), n, rec, fmt.Errorf("mid-workload progress: %w", err)
				}
			}
		}
	}
	for _, k := range deferred {
		r, err := post(k)
		if err != nil {
			return rt.Stats(), n, rec, err
		}
		recvs = append(recvs, r)
	}

	ok, err := rt.Drain(600)
	if err != nil {
		return rt.Stats(), n, rec, fmt.Errorf("drain: %w", err)
	}
	if !ok {
		return rt.Stats(), n, rec, fmt.Errorf("drain left receives open (stats %+v)", rt.Stats())
	}

	// Exactly-once: the delivered payload indices must be precisely
	// {0..n-1}, each message satisfying the receive it landed on.
	seen := make([]int, n)
	perFlow := make(map[[4]int][]int) // (dst, src, tag, stream) -> send indices in recv-posted order
	for ri, r := range recvs {
		m, err := r.handle.Message()
		if err != nil {
			return rt.Stats(), n, rec, fmt.Errorf("recv %d unread after clean drain: %w", ri, err)
		}
		if len(m.Payload) != 1 {
			return rt.Stats(), n, rec, fmt.Errorf("recv %d: payload %v mangled", ri, m.Payload)
		}
		k := int(m.Payload[0])
		if k >= n {
			return rt.Stats(), n, rec, fmt.Errorf("recv %d: payload index %d out of range", ri, k)
		}
		seen[k]++
		if !r.req.Matches(m.Env) {
			return rt.Stats(), n, rec, fmt.Errorf("recv %d: delivered %v does not satisfy %v", ri, m.Env, r.req)
		}
		if sends[k].src != int(m.Env.Src) || sends[k].tag != m.Env.Tag || sends[k].stream != m.Env.Stream {
			return rt.Stats(), n, rec, fmt.Errorf("recv %d: envelope %v does not match send %d", ri, m.Env, k)
		}
		fk := [4]int{r.dst, int(m.Env.Src), int(m.Env.Tag), int(m.Env.Stream)}
		perFlow[fk] = append(perFlow[fk], k)
	}
	for k, c := range seen {
		want := 1
		if shedSends[k] {
			want = 0 // refused with ErrBackpressure, never accepted
		}
		if c != want {
			return rt.Stats(), n, rec, fmt.Errorf("send %d delivered %d times, want %d", k, c, want)
		}
	}
	// Per-flow ordering: under the ordered levels, same-class messages
	// must reach their receives in send order despite wire reordering.
	// The stream id is part of the class key, so under StreamOrdered
	// this asserts exactly the per-stream guarantee and nothing more —
	// cross-stream reorderings pass (and CheckChaosCoverage demands the
	// runtime actually produced some).
	if level != mpx.Unordered {
		for fk, ks := range perFlow {
			for j := 1; j < len(ks); j++ {
				if ks[j] < ks[j-1] {
					return rt.Stats(), n, rec, fmt.Errorf("flow %v delivered send %d before %d: ordering violated",
						fk, ks[j], ks[j-1])
				}
			}
		}
	}
	st := rt.Stats()
	if bp {
		// The overload contract on top of exactly-once: every shed the
		// harness observed was a typed refusal the runtime also counted,
		// and every frame a drop policy parked was recovered (NACK or
		// deadline retransmit) before the drain settled — no third
		// outcome, no silent loss.
		if st.ShedRejects != rejects {
			return st, n, rec, fmt.Errorf("runtime counted %d rejects, harness observed %d ErrBackpressure",
				st.ShedRejects, rejects)
		}
		if st.ShedDrops != st.ShedRecovered {
			return st, n, rec, fmt.Errorf("silent loss: %d frames shed by drop policy, %d recovered",
				st.ShedDrops, st.ShedRecovered)
		}
	}
	return st, n, rec, nil
}

// RunChaos runs n seeded chaos workloads per semantic level with the
// given fault mix and returns one report per level. A clean run has
// empty Failures everywhere; callers asserting full fault coverage
// additionally check the aggregated Stats counters (see
// CheckChaosCoverage). It shards across GOMAXPROCS host workers; see
// RunChaosParallel for the determinism argument.
func RunChaos(seed int64, n int, mix fault.Config) []ChaosReport {
	return RunChaosParallel(seed, n, mix, 0)
}

// RunChaosParallel is RunChaos over a bounded worker pool (workers <= 0
// selects GOMAXPROCS, 1 is fully sequential). Each workload is
// self-contained — deterministic per (seed, index, level) with its own
// runtime — so workloads shard freely across host goroutines; results
// land in per-index slots and merge in index order, which keeps the
// reports (including failure order and every replay recipe) identical
// to the sequential run.
func RunChaosParallel(seed int64, n int, mix fault.Config, workers int) []ChaosReport {
	return runChaos(seed, n, mix, workers, false)
}

// RunChaosBackpressure is RunChaosParallel with every workload in
// backpressure mode: bounded staging/UMQ/PRQ plus a per-workload shed
// policy on top of the fault mix, asserting the overload reliability
// contract (typed refusal or recovered shed; exactly-once for every
// accepted message). Use ChaosBackpressureMix for the companion brew.
func RunChaosBackpressure(seed int64, n int, mix fault.Config, workers int) []ChaosReport {
	return runChaos(seed, n, mix, workers, true)
}

func runChaos(seed int64, n int, mix fault.Config, workers int, bp bool) []ChaosReport {
	levels := ChaosLevels()
	reports := make([]ChaosReport, len(levels))

	type slot struct {
		stats mpx.Stats
		msgs  int
		err   error
	}
	slots := make([]slot, len(levels)*n)
	simt.ParallelFor(len(slots), workers, func(k int) {
		level, i := levels[k/n], k%n
		var st mpx.Stats
		var msgs int
		var err error
		if bp {
			st, msgs, err = ChaosBackpressureWorkload(level, seed, i, mix)
		} else {
			st, msgs, err = ChaosWorkload(level, seed, i, mix)
		}
		slots[k] = slot{stats: st, msgs: msgs, err: err}
	})

	for li, level := range levels {
		rep := ChaosReport{
			Level:     level,
			Engine:    mpx.New(mpx.Config{Level: level, GPUs: 2}).EngineName(),
			Workloads: n,
		}
		for i := 0; i < n; i++ {
			s := &slots[li*n+i]
			rep.Messages += s.msgs
			rep.Stats.Add(s.stats)
			if s.err != nil {
				rep.Failures = append(rep.Failures, ChaosFailure{
					Level: level, Index: i, Seed: seed, Backpressure: bp, Err: s.err,
				})
			}
		}
		reports[li] = rep
	}
	return reports
}

// CheckChaosCoverage verifies that a report's aggregated stats show a
// nonzero counter for every fault class the mix enables — i.e. the run
// actually injected and survived each class, rather than passing
// vacuously.
func CheckChaosCoverage(rep ChaosReport, mix fault.Config) error {
	checks := []struct {
		name    string
		enabled bool
		count   int
	}{
		{"Drops", mix.Drop > 0, rep.Stats.Drops},
		{"Retries", mix.Drop > 0 || mix.AckDrop > 0, rep.Stats.Retries},
		{"Duplicates", mix.Duplicate > 0 || mix.AckDrop > 0, rep.Stats.Duplicates},
		{"Corrupt", mix.Corrupt > 0, rep.Stats.Corrupt},
		{"StallSteps", mix.Stall > 0, rep.Stats.StallSteps},
		{"Acks", true, rep.Stats.Acks},
		// Stream coverage (StreamOrdered reports only): the workloads
		// actually used non-default streams, and — whenever the mix can
		// reorder the wire — the relaxed release path actually freed
		// frames past another stream's gap instead of degenerating into
		// the strict path.
		{"StreamSends", rep.Level == mpx.StreamOrdered, rep.Stats.StreamSends},
		{"CrossStreamReleases", rep.Level == mpx.StreamOrdered && (mix.Delay > 0 || mix.Drop > 0), rep.Stats.CrossStreamReleases},
	}
	for _, c := range checks {
		if c.enabled && c.count == 0 {
			return fmt.Errorf("%v: fault class left no trace: %s = 0 after %d workloads (stats %+v)",
				rep.Level, c.name, rep.Workloads, rep.Stats)
		}
	}
	return nil
}

// CheckBackpressureCoverage verifies a backpressure chaos run actually
// exercised the overload machinery rather than passing vacuously: the
// bounded queues shed, the refusal policy fired where it can (every
// level except NoUnexpected, whose pre-posted receives restrict it to
// the drop policies), drop-policy sheds were all recovered, and — when
// the mix injects slow receivers — the drain throttling left a trace.
func CheckBackpressureCoverage(rep ChaosReport, mix fault.Config) error {
	st := rep.Stats
	if st.Sheds == 0 {
		return fmt.Errorf("%v: bounded queues never shed over %d workloads (stats %+v)",
			rep.Level, rep.Workloads, st)
	}
	if rep.Level != mpx.NoUnexpected && st.ShedRejects == 0 {
		return fmt.Errorf("%v: ShedReject policy left no trace over %d workloads (stats %+v)",
			rep.Level, rep.Workloads, st)
	}
	if st.ShedDrops != st.ShedRecovered {
		return fmt.Errorf("%v: aggregated silent loss: %d dropped, %d recovered",
			rep.Level, st.ShedDrops, st.ShedRecovered)
	}
	if mix.SlowReceiver > 0 && st.SlowDrains == 0 {
		return fmt.Errorf("%v: slow-receiver class left no trace: SlowDrains = 0 (stats %+v)",
			rep.Level, st)
	}
	return nil
}
