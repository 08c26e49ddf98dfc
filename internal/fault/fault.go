// Package fault is the deterministic fault-injection plane for the
// GAS transport. It wraps a gas.Cluster behind the same Put/Drain wire
// API the mpx runtime drives and, steered by per-scenario seeded
// randomness, injects the failure classes a real interconnect and its
// endpoints exhibit:
//
//   - drop: a frame vanishes on the wire (no slot consumed, no trace);
//   - duplicate: a frame is delivered twice;
//   - corrupt: one bit of the packed 64-bit header flips in flight
//     (always detectable by the envelope checksum's XOR fold);
//   - delay: a frame is buffered on the wire for a few progress steps
//     and released late, reordering it against later sends;
//   - ack drop: the receiver's transport-level acknowledgment is lost,
//     forcing a retransmission of an already-delivered frame;
//   - stall: a receiver stops draining its ring for N progress steps;
//   - pause: a whole GPU halts — it neither sends nor drains — and
//     later restarts;
//   - credit starvation: a receiver withholds freed ring slots from
//     its sender for a few steps, prolonging back-pressure.
//
// Every fault is drawn from one rand.Rand seeded by Config.Seed, and
// the runtime drives the injector in a deterministic order, so a chaos
// run is exactly replayable from its seed.
package fault

import (
	"errors"
	"fmt"
	"math/rand"

	"simtmp/internal/envelope"
	"simtmp/internal/gas"
	"simtmp/internal/telemetry"
)

// Interned fault-marker names (one per injected class). Markers land
// on the affected GPU's track at the recorder's simulated-time cursor,
// which the runtime advances each progress step — so an exported trace
// shows the fault, the retransmission it forces, and the match pass
// that finally consumes the message on one time axis.
var (
	evDrop      = telemetry.Name("fault.drop")
	evDuplicate = telemetry.Name("fault.duplicate")
	evCorrupt   = telemetry.Name("fault.corrupt")
	evDelay     = telemetry.Name("fault.delay")
	evAckDrop   = telemetry.Name("fault.ackdrop")
	evStall     = telemetry.Name("fault.stall")
	evSlow      = telemetry.Name("fault.slow")
	evPause     = telemetry.Name("fault.pause")
	evStarve    = telemetry.Name("fault.starve")
	argSrc      = telemetry.Name("src")
	argDst      = telemetry.Name("dst")
	argFlow     = telemetry.Name("flow")
	argSteps    = telemetry.Name("steps")
)

// ErrPaused reports a send observed while the sending or a manually
// stopped GPU is paused. It is retryable back-pressure: the GPU will
// restart.
var ErrPaused = errors.New("fault: GPU paused")

// Config parameterizes the fault mix. All probabilities are per
// operation (per frame for wire faults, per drain round for receiver
// faults) in [0,1]; the zero value injects nothing.
type Config struct {
	// Seed seeds the scenario's random stream; runs with equal seeds
	// and equal driving sequences are identical.
	Seed int64

	// Wire faults, rolled once per Put. At most one fires per frame;
	// they are tried in the order drop, duplicate, corrupt, delay, so
	// the probabilities are cumulative slices of one roll.
	Drop      float64
	Duplicate float64
	Corrupt   float64
	Delay     float64

	// AckDrop is the probability that a transport-level ack is lost.
	AckDrop float64

	// Stall is the per-drain-round probability that a receiver stops
	// draining for StallSteps progress steps.
	Stall float64

	// Pause is the per-step, per-GPU probability that the GPU halts
	// entirely (no sends, no drains) for PauseSteps steps.
	Pause float64

	// CreditStarve is the per-drain-round probability that the
	// receiver withholds freed ring slots for StarveSteps steps.
	CreditStarve float64

	// SlowReceiver is the per-drain-round probability that a receiver
	// enters a slow episode: for SlowSteps progress steps it drains at
	// most SlowDrainLimit messages per step instead of everything —
	// the consumer is alive but its service rate has collapsed, the
	// overload regime that fills queues without ever tripping a stall
	// detector. Its roll is only consumed when the class is enabled, so
	// replays of configurations predating the class stay bit-exact.
	SlowReceiver float64

	// Durations, in progress steps. Zero values take the defaults
	// (delay ≤ 4, stall 4, pause 3, starve 3, slow 8 at ≤ 2 drains).
	MaxDelaySteps  int
	StallSteps     int
	PauseSteps     int
	StarveSteps    int
	SlowSteps      int
	SlowDrainLimit int
}

// withDefaults fills zero durations.
func (c Config) withDefaults() Config {
	if c.MaxDelaySteps <= 0 {
		c.MaxDelaySteps = 4
	}
	if c.StallSteps <= 0 {
		c.StallSteps = 4
	}
	if c.PauseSteps <= 0 {
		c.PauseSteps = 3
	}
	if c.StarveSteps <= 0 {
		c.StarveSteps = 3
	}
	if c.SlowSteps <= 0 {
		c.SlowSteps = 8
	}
	if c.SlowDrainLimit <= 0 {
		c.SlowDrainLimit = 2
	}
	return c
}

// SlowReceiverProfile is the tracked overload profile of a consumer
// whose drain rate intermittently collapses: episodes are frequent and
// long enough that sustained offered load backs up through the ring
// into sender-side credit stalls, without any receiver ever being
// declared dead.
func SlowReceiverProfile(seed int64) Config {
	return Config{Seed: seed, SlowReceiver: 0.05, SlowSteps: 12, SlowDrainLimit: 2}
}

// Counters tallies every fault the plane injected. The runtime's
// Stats merge these with the detection-side counters (checksum
// failures, duplicate suppressions, retransmissions), so a chaos run
// can assert that each injected class was both produced and survived.
type Counters struct {
	Drops         int // frames dropped on the wire
	Duplicates    int // frames delivered twice
	Corrupts      int // headers with a flipped bit
	Delays        int // frames held back and reordered
	AckDrops      int // transport acks lost
	Stalls        int // stall episodes triggered
	StallSteps    int // drain rounds suppressed by stalls
	Pauses        int // pause episodes triggered
	PauseSteps    int // drain rounds suppressed by pauses
	CreditStarves int // drain rounds that withheld credits
	Slows         int // slow-receiver episodes triggered
	SlowDrains    int // drain rounds throttled to SlowDrainLimit
}

// delayedFrame is a frame parked "on the wire".
type delayedFrame struct {
	dst     int
	word    uint64
	payload []byte
	seq     uint64
	flow    uint64
	sseq    uint64
	due     int // step at which it is released
}

// Injector wraps a cluster with the fault plane. It implements the
// same wire interface as the lossless cluster (mpx.Transport), so the
// runtime is oblivious to which one it drives.
type Injector struct {
	c   *gas.Cluster
	cfg Config
	rng *rand.Rand

	step       int
	delayed    []delayedFrame
	stallUntil []int // per GPU: drains suppressed while step < stallUntil
	pauseUntil []int // per GPU: sends+drains suppressed while step < pauseUntil
	slowUntil  []int // per GPU: drains throttled while step < slowUntil
	creditDue  []int // per GPU: withheld credits released at this step (0 = none)

	ctr Counters
	rec *telemetry.Recorder // nil = no markers (the default)
}

// New wraps c with a fault plane configured by cfg.
func New(c *gas.Cluster, cfg Config) *Injector {
	return &Injector{
		c:          c,
		cfg:        cfg.withDefaults(),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		stallUntil: make([]int, c.Size()),
		pauseUntil: make([]int, c.Size()),
		slowUntil:  make([]int, c.Size()),
		creditDue:  make([]int, c.Size()),
	}
}

// SetRecorder attaches a telemetry recorder; every injected fault then
// emits an instant marker on the affected GPU's track (nil detaches).
func (in *Injector) SetRecorder(rec *telemetry.Recorder) { in.rec = rec }

// Size returns the cluster size.
func (in *Injector) Size() int { return in.c.Size() }

// Counters returns the injected-fault tallies so far.
func (in *Injector) Counters() Counters { return in.ctr }

// Idle reports whether the plane holds no undelivered state: every
// ring drained and no frame parked on the wire. (Withheld credits and
// running stalls expire on their own and hold no data.)
func (in *Injector) Idle() bool { return len(in.delayed) == 0 && in.c.Idle() }

// PutStream is the faulty wire write. One roll decides the frame's
// fate; the fault classes are mutually exclusive per frame. sseq is
// the per-(flow,stream) sequence number and rides the side channel
// untouched — a delayed or duplicated frame keeps it, so stream
// reassembly sees the same dedup/reorder surface as flow reassembly.
func (in *Injector) PutStream(dst int, env envelope.Envelope, payload []byte, seq, flow, sseq uint64) error {
	if src := int(env.Src); src < in.c.Size() && in.step < in.pauseUntil[src] {
		return fmt.Errorf("%w (source GPU %d)", ErrPaused, src)
	}
	if err := env.Validate(); err != nil {
		return fmt.Errorf("fault: %w", err)
	}
	if dst < 0 || dst >= in.c.Size() {
		return fmt.Errorf("fault: destination GPU %d outside [0,%d)", dst, in.c.Size())
	}
	w := env.Pack()
	roll := in.rng.Float64()
	switch cfg := in.cfg; {
	case roll < cfg.Drop:
		in.ctr.Drops++
		in.rec.Instant(dst, evDrop, argSrc, int64(env.Src), 0, 0)
		return nil // vanished on the wire; the sender sees success
	case roll < cfg.Drop+cfg.Duplicate:
		if err := in.c.PutWordStream(dst, w, payload, seq, flow, sseq); err != nil {
			return err
		}
		in.ctr.Duplicates++
		in.rec.Instant(dst, evDuplicate, argSrc, int64(env.Src), 0, 0)
		// The copy is best-effort: a full ring drops it silently.
		_ = in.c.PutWordStream(dst, w, payload, seq, flow, sseq)
		return nil
	case roll < cfg.Drop+cfg.Duplicate+cfg.Corrupt:
		in.ctr.Corrupts++
		in.rec.Instant(dst, evCorrupt, argSrc, int64(env.Src), 0, 0)
		w ^= 1 << uint(in.rng.Intn(64)) // single-bit flip: always checksum-detectable
		return in.c.PutWordStream(dst, w, payload, seq, flow, sseq)
	case roll < cfg.Drop+cfg.Duplicate+cfg.Corrupt+cfg.Delay:
		in.ctr.Delays++
		due := in.step + 1 + in.rng.Intn(in.cfg.MaxDelaySteps)
		in.rec.Instant(dst, evDelay, argSrc, int64(env.Src), argSteps, int64(due-in.step))
		in.delayed = append(in.delayed, delayedFrame{
			dst: dst, word: w, payload: payload, seq: seq, flow: flow, sseq: sseq,
			due: due,
		})
		return nil
	default:
		return in.c.PutWordStream(dst, w, payload, seq, flow, sseq)
	}
}

// Drain is the faulty receive path: a stalled or paused GPU drains
// nothing (its ring keeps filling), and a starving receiver withholds
// the freed credits.
func (in *Injector) Drain(dst int) []gas.Message {
	switch {
	case in.step < in.pauseUntil[dst]:
		in.ctr.PauseSteps++
		return nil
	case in.step < in.stallUntil[dst]:
		in.ctr.StallSteps++
		return nil
	case in.rng.Float64() < in.cfg.Stall:
		in.ctr.Stalls++
		in.ctr.StallSteps++
		in.rec.Instant(dst, evStall, argSteps, int64(in.cfg.StallSteps), 0, 0)
		in.stallUntil[dst] = in.step + in.cfg.StallSteps
		return nil
	}
	// Slow receiver: the drain happens but is throttled. The roll is
	// consumed only when the class is enabled so that configurations
	// predating it replay bit-exact (see Config.SlowReceiver).
	limit := -1
	if in.step < in.slowUntil[dst] {
		in.ctr.SlowDrains++
		limit = in.cfg.SlowDrainLimit
	} else if in.cfg.SlowReceiver > 0 && in.rng.Float64() < in.cfg.SlowReceiver {
		in.ctr.Slows++
		in.ctr.SlowDrains++
		in.rec.Instant(dst, evSlow, argSteps, int64(in.cfg.SlowSteps), 0, 0)
		in.slowUntil[dst] = in.step + in.cfg.SlowSteps
		limit = in.cfg.SlowDrainLimit
	}
	msgs := in.c.GPU(dst).DrainUpToKeepingCredits(limit)
	if in.creditDue[dst] == 0 {
		if in.rng.Float64() < in.cfg.CreditStarve {
			in.ctr.CreditStarves++
			in.rec.Instant(dst, evStarve, argSteps, int64(in.cfg.StarveSteps), 0, 0)
			in.creditDue[dst] = in.step + in.cfg.StarveSteps
		} else {
			in.c.GPU(dst).Ring().ReturnCredits()
		}
	}
	return msgs
}

// DropAck rolls whether the transport-level ack for (src→dst, flow)
// is lost on the way back.
func (in *Injector) DropAck(src, dst int, flow uint64) bool {
	if in.rng.Float64() < in.cfg.AckDrop {
		in.ctr.AckDrops++
		in.rec.Instant(src, evAckDrop, argDst, int64(dst), argFlow, int64(flow))
		return true
	}
	return false
}

// Step advances the plane by one progress step: pause rolls, release
// of due delayed frames, and release of withheld credits.
func (in *Injector) Step() {
	in.step++
	for g := range in.pauseUntil {
		if in.step >= in.pauseUntil[g] && in.rng.Float64() < in.cfg.Pause {
			in.ctr.Pauses++
			in.rec.Instant(g, evPause, argSteps, int64(in.cfg.PauseSteps), 0, 0)
			in.pauseUntil[g] = in.step + in.cfg.PauseSteps
		}
		if in.creditDue[g] > 0 && in.step >= in.creditDue[g] {
			in.c.GPU(g).Ring().ReturnCredits()
			in.creditDue[g] = 0
		}
	}
	kept := in.delayed[:0]
	for _, d := range in.delayed {
		if in.step < d.due {
			kept = append(kept, d)
			continue
		}
		// Release; a full ring keeps the frame on the wire for the
		// next step (delay, not loss).
		if err := in.c.PutWordStream(d.dst, d.word, d.payload, d.seq, d.flow, d.sseq); err != nil {
			kept = append(kept, d)
		}
	}
	in.delayed = kept
}

// StallGPU manually stalls GPU g's receive path for the given number
// of progress steps (tests and scripted scenarios).
func (in *Injector) StallGPU(g, steps int) {
	in.ctr.Stalls++
	in.rec.Instant(g, evStall, argSteps, int64(steps), 0, 0)
	in.stallUntil[g] = in.step + steps
}

// PauseGPU manually halts GPU g (no sends, no drains) for the given
// number of progress steps.
func (in *Injector) PauseGPU(g, steps int) {
	in.ctr.Pauses++
	in.rec.Instant(g, evPause, argSteps, int64(steps), 0, 0)
	in.pauseUntil[g] = in.step + steps
}
