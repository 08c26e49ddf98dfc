package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/gas"
	"simtmp/internal/mpx"
)

const (
	gpus       = 8  // simulated GPUs in every workload
	payloadLen = 64 // bytes per message (halo: per partition)
	// drainSteps only caps Drain; its own fixed-point and stall
	// detection end a round that cannot complete long before.
	drainSteps = 1 << 20
)

// workload is one closed-loop traffic pattern over a single runtime.
// A round posts its receives, sends, drains to completion, then reads
// and verifies every handle; round r's inputs are a pure function of
// the seed and r.
type workload interface {
	// init builds the runtime and its channels (part of set-up).
	init(measureAllocs bool) error
	// prepare writes round r's application payloads (untimed).
	prepare(r int)
	// round runs round r, tallying verified and failed operations. A
	// non-nil error means the runtime is no longer usable.
	round(r int, tr *tracer, t *tally) error
	runtime() *mpx.Runtime
	// msgsPerRound is the number of delivered-and-verified messages
	// (halo: partitions) one round yields.
	msgsPerRound() int
	// traffic describes round r's messages and receives for the
	// per-layer replays.
	traffic(r int) *traffic
	// level is the semantic level of the runtime.
	level() mpx.Level
	// warmup is the number of untimed rounds set-up runs.
	warmup() int
}

// traffic is one round's messages and receives as the lower layers
// see them. Messages are in send order, receives in post order; early
// receives are posted before the sends, the rest after one Progress.
type traffic struct {
	envs     []envelope.Envelope
	dsts     []int
	payloads [][]byte
	reqs     []envelope.Request
	reqDst   []int
	reqMsg   []int // message each receive must get (non-overtaking order)
	early    int
}

// tally counts attempted and failed operations. An operation is one
// receive (halo: one partition) read and verified, or one verb call
// that failed.
type tally struct {
	attempted, failed int
	wildcards         int
	first             string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
}

// fillPayload writes the payload of message id: the id, then bytes
// derived from it, so a reader can check both identity and content.
func fillPayload(buf []byte, id uint64) {
	binary.LittleEndian.PutUint64(buf, id)
	x := id
	for i := 8; i+8 <= len(buf); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// payloadOK reports whether buf is exactly the payload of its id.
func payloadOK(buf []byte) bool {
	if len(buf) != payloadLen {
		return false
	}
	x := binary.LittleEndian.Uint64(buf)
	for i := 8; i+8 <= len(buf); i += 8 {
		x = splitmix(x)
		if binary.LittleEndian.Uint64(buf[i:]) != x {
			return false
		}
	}
	return true
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// msgID packs a round and a message index into a payload id.
func msgID(r, i int) uint64 { return uint64(r)<<16 | uint64(i) }

// ---------------------------------------------------------------------
// Plain point-to-point workloads (fullmpi-wildcard, unordered-lossy).

type plainConfig struct {
	level      mpx.Level
	perPair    int     // messages per ordered GPU pair per round
	wildcard   float64 // share of receives posted with AnySource
	late       float64 // share of receives posted after one Progress
	tagsPerDst bool    // tags unique per destination (else per source)
	fault      *fault.Config
	window     int
}

// plainPlans is the number of distinct round plans a run cycles
// through; payload ids still differ every round.
const plainPlans = 16

type plainWorkload struct {
	cfg   plainConfig
	plans []*traffic
	rt    *mpx.Runtime

	bufs    [][]byte // per message index, rewritten by prepare
	handles []*mpx.Recv
	got     []gas.Message
	gotErr  []error
	seen    []int // round+1 that delivered each message index
}

func newPlain(cfg plainConfig, seed int64) *plainWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &plainWorkload{cfg: cfg}
	for p := 0; p < plainPlans; p++ {
		w.plans = append(w.plans, planPlain(cfg, rng))
	}
	n := len(w.plans[0].envs)
	w.bufs = make([][]byte, n)
	for i := range w.bufs {
		w.bufs[i] = make([]byte, payloadLen)
	}
	for _, t := range w.plans {
		t.payloads = w.bufs
	}
	w.handles = make([]*mpx.Recv, n)
	w.got = make([]gas.Message, n)
	w.gotErr = make([]error, n)
	w.seen = make([]int, n)
	return w
}

// planPlain draws one round: perPair messages per ordered pair with
// tags unique per destination (or per source), sent in shuffled order,
// and one receive per message posted in shuffled order. Because each
// (src, dst, tag) occurs once per round, the receive naming a tuple
// must get exactly that message — the MPI non-overtaking order — and
// a wildcard receive has exactly one candidate.
func planPlain(cfg plainConfig, rng *rand.Rand) *traffic {
	type msg struct {
		src, dst int
		tag      envelope.Tag
	}
	var msgs []msg
	for s := 0; s < gpus; s++ {
		for d := 0; d < gpus; d++ {
			if d == s {
				continue
			}
			for k := 0; k < cfg.perPair; k++ {
				msgs = append(msgs, msg{src: s, dst: d})
			}
		}
	}
	perEnd := (gpus - 1) * cfg.perPair
	for g := 0; g < gpus; g++ {
		tags := rng.Perm(perEnd)
		next := 0
		for i := range msgs {
			if (cfg.tagsPerDst && msgs[i].dst == g) || (!cfg.tagsPerDst && msgs[i].src == g) {
				msgs[i].tag = envelope.Tag(tags[next])
				next++
			}
		}
	}
	rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })

	t := &traffic{}
	for _, m := range msgs {
		t.envs = append(t.envs, envelope.Envelope{Src: envelope.Rank(m.src), Tag: m.tag})
		t.dsts = append(t.dsts, m.dst)
	}
	order := rng.Perm(len(msgs))
	var early, late []int
	for _, i := range order {
		if rng.Float64() < cfg.late {
			late = append(late, i)
		} else {
			early = append(early, i)
		}
	}
	for _, i := range append(early, late...) {
		req := envelope.Request{Src: t.envs[i].Src, Tag: t.envs[i].Tag}
		if rng.Float64() < cfg.wildcard {
			req.Src = envelope.AnySource
		}
		t.reqs = append(t.reqs, req)
		t.reqDst = append(t.reqDst, t.dsts[i])
		t.reqMsg = append(t.reqMsg, i)
	}
	t.early = len(early)
	return t
}

func (w *plainWorkload) init(measureAllocs bool) error {
	w.rt = mpx.New(mpx.Config{
		Level: w.cfg.level, GPUs: gpus, Fault: w.cfg.fault,
		Window: w.cfg.window, MeasureAllocs: measureAllocs,
	})
	return nil
}

func (w *plainWorkload) prepare(r int) {
	t := w.traffic(r)
	for i := range t.envs {
		fillPayload(w.bufs[i], msgID(r, i))
	}
}

func (w *plainWorkload) runtime() *mpx.Runtime  { return w.rt }
func (w *plainWorkload) msgsPerRound() int      { return len(w.plans[0].envs) }
func (w *plainWorkload) traffic(r int) *traffic { return w.plans[r%len(w.plans)] }
func (w *plainWorkload) level() mpx.Level       { return w.cfg.level }
func (w *plainWorkload) warmup() int            { return 3 }

func (w *plainWorkload) post(t *traffic, from, to int, tr *tracer, tl *tally) {
	sp := tr.begin(lPost)
	for i := from; i < to; i++ {
		h, err := w.rt.PostRecv(t.reqDst[i], t.reqs[i].Src, t.reqs[i].Tag, t.reqs[i].Comm)
		if err != nil {
			tl.fail("PostRecv %v on GPU %d: %v", t.reqs[i], t.reqDst[i], err)
		}
		w.handles[i] = h
	}
	tr.end(sp, to-from)
}

func (w *plainWorkload) round(r int, tr *tracer, tl *tally) error {
	t := w.traffic(r)
	w.post(t, 0, t.early, tr, tl)

	sp := tr.begin(lSend)
	for i, e := range t.envs {
		if err := w.rt.Send(int(e.Src), t.dsts[i], e.Tag, e.Comm, w.bufs[i]); err != nil {
			tl.fail("Send %v to GPU %d: %v", e, t.dsts[i], err)
		}
	}
	tr.end(sp, len(t.envs))

	if t.early < len(t.reqs) {
		// One explicit progress step before the rest of the receives
		// exist: their messages land in the unexpected queue.
		sp = tr.begin(lProgress)
		if err := w.rt.Progress(); err != nil {
			tr.end(sp, 1)
			return fmt.Errorf("round %d: Progress: %w", r, err)
		}
		tr.end(sp, 1)
		w.post(t, t.early, len(t.reqs), tr, tl)
	}

	sp = tr.begin(lDrain)
	ok, err := w.rt.Drain(drainSteps)
	tr.end(sp, len(t.reqs))
	if err != nil {
		return fmt.Errorf("round %d: Drain: %w", r, err)
	}
	if !ok {
		return fmt.Errorf("round %d: Drain returned with receives undelivered", r)
	}

	sp = tr.begin(lRead)
	for i, h := range w.handles[:len(t.reqs)] {
		if h == nil {
			w.gotErr[i] = errNoHandle
			continue
		}
		w.got[i], w.gotErr[i] = h.Message()
	}
	tr.end(sp, len(t.reqs))

	sp = tr.begin(lVerify)
	for i, req := range t.reqs {
		tl.attempted++
		if req.Src == envelope.AnySource {
			tl.wildcards++
		}
		if w.gotErr[i] != nil {
			tl.fail("round %d: receive %v on GPU %d: %v", r, req, t.reqDst[i], w.gotErr[i])
			continue
		}
		m := w.got[i]
		if !payloadOK(m.Payload) {
			tl.fail("round %d: receive %v on GPU %d: corrupt payload", r, req, t.reqDst[i])
			continue
		}
		id := binary.LittleEndian.Uint64(m.Payload)
		idx := int(id & 0xffff)
		switch {
		case id>>16 != uint64(r) || idx >= len(t.envs):
			tl.fail("round %d: receive %v got stale payload id %#x", r, req, id)
		case w.seen[idx] == r+1:
			tl.fail("round %d: message %d delivered twice", r, idx)
		case idx != t.reqMsg[i]:
			tl.fail("round %d: receive %v on GPU %d got message %d, want %d (non-overtaking order)",
				r, req, t.reqDst[i], idx, t.reqMsg[i])
		case m.Env != t.envs[idx] || t.dsts[idx] != t.reqDst[i]:
			tl.fail("round %d: message %d arrived as %v on GPU %d, sent as %v to GPU %d",
				r, idx, m.Env, t.reqDst[i], t.envs[idx], t.dsts[idx])
		case !req.Matches(m.Env):
			tl.fail("round %d: receive %v admitted envelope %v", r, req, m.Env)
		}
		w.seen[idx] = r + 1
	}
	tr.end(sp, len(t.reqs))
	return nil
}

var errNoHandle = errors.New("no receive handle (PostRecv failed)")

// ---------------------------------------------------------------------
// Persistent partitioned halo (persistent-halo).

const (
	haloFaces = 6
	haloParts = 4
)

// haloPeers returns the six face neighbours of rank r in the 2×2×2
// periodic grid of internal/bench/persist.go.
func haloPeers(r int) [haloFaces]int {
	const nx, ny, nz = 2, 2, 2
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

type haloWorkload struct {
	rt    *mpx.Runtime
	order []int // seeded channel start order
	sends []*mpx.PersistentSend
	recvs []*mpx.PersistentRecv
	// from[c] is the send channel feeding receive channel c.
	from []int
	src  [][]byte // per (send channel, partition) payload, rewritten by prepare
	got  [][]byte
	err  []error
	tr   traffic
}

func newHalo(seed int64) *haloWorkload {
	rng := rand.New(rand.NewSource(seed))
	n := gpus * haloFaces
	w := &haloWorkload{order: rng.Perm(n)}
	w.src = make([][]byte, n*haloParts)
	for i := range w.src {
		w.src[i] = make([]byte, payloadLen)
	}
	w.got = make([][]byte, n*haloParts)
	w.err = make([]error, n*haloParts)
	// Channel c = r*haloFaces+d sends tag d to peer d of rank r and
	// receives tag d^1 from the same peer.
	w.from = make([]int, n)
	for r := 0; r < gpus; r++ {
		for d, peer := range haloPeers(r) {
			for pd, back := range haloPeers(peer) {
				if back == r && pd == d^1 {
					w.from[r*haloFaces+d] = peer*haloFaces + pd
				}
			}
		}
	}
	for _, c := range w.order {
		r, d := c/haloFaces, c%haloFaces
		peer := haloPeers(r)[d]
		for p := 0; p < haloParts; p++ {
			w.tr.envs = append(w.tr.envs, envelope.Envelope{Src: envelope.Rank(r), Tag: envelope.Tag(d)})
			w.tr.dsts = append(w.tr.dsts, peer)
		}
	}
	for _, c := range w.order {
		r, d := c/haloFaces, c%haloFaces
		peer := haloPeers(r)[d]
		for p := 0; p < haloParts; p++ {
			w.tr.reqs = append(w.tr.reqs, envelope.Request{Src: envelope.Rank(peer), Tag: envelope.Tag(d ^ 1)})
			w.tr.reqDst = append(w.tr.reqDst, r)
		}
	}
	pos := make(map[int]int, n)
	for i, c := range w.order {
		pos[c] = i
	}
	for _, c := range w.order {
		for p := 0; p < haloParts; p++ {
			w.tr.reqMsg = append(w.tr.reqMsg, pos[w.from[c]]*haloParts+p)
		}
	}
	w.tr.early = len(w.tr.reqs)
	w.tr.payloads = make([][]byte, len(w.tr.envs))
	for i, c := range w.order {
		for p := 0; p < haloParts; p++ {
			w.tr.payloads[i*haloParts+p] = w.src[c*haloParts+p]
		}
	}
	return w
}

func (w *haloWorkload) init(measureAllocs bool) error {
	w.rt = mpx.New(mpx.Config{Level: mpx.NoSourceWildcard, GPUs: gpus, MeasureAllocs: measureAllocs})
	n := gpus * haloFaces
	w.sends = make([]*mpx.PersistentSend, n)
	w.recvs = make([]*mpx.PersistentRecv, n)
	parts := make([][]byte, haloParts)
	for p := range parts {
		parts[p] = make([]byte, payloadLen)
	}
	for r := 0; r < gpus; r++ {
		for d, peer := range haloPeers(r) {
			c := r*haloFaces + d
			s, err := w.rt.SendInitPartitioned(r, peer, envelope.Tag(d), 0, parts)
			if err != nil {
				return fmt.Errorf("SendInitPartitioned %d→%d: %w", r, peer, err)
			}
			h, err := w.rt.RecvInitPartitioned(r, envelope.Rank(peer), envelope.Tag(d^1), 0, haloParts)
			if err != nil {
				return fmt.Errorf("RecvInitPartitioned %d←%d: %w", r, peer, err)
			}
			w.sends[c], w.recvs[c] = s, h
		}
	}
	return nil
}

func (w *haloWorkload) prepare(r int) {
	for i, b := range w.src {
		fillPayload(b, msgID(r, i))
	}
}

func (w *haloWorkload) runtime() *mpx.Runtime { return w.rt }
func (w *haloWorkload) msgsPerRound() int     { return len(w.src) }
func (w *haloWorkload) traffic(int) *traffic  { return &w.tr }
func (w *haloWorkload) level() mpx.Level      { return mpx.NoSourceWildcard }
func (w *haloWorkload) warmup() int           { return 2 }

func (w *haloWorkload) round(r int, tr *tracer, tl *tally) error {
	sp := tr.begin(lPost)
	for _, c := range w.order {
		if err := w.recvs[c].Start(); err != nil {
			return fmt.Errorf("round %d: recv channel %d Start: %w", r, c, err)
		}
	}
	tr.end(sp, len(w.order))

	// Bind the round's data, Start, then mark partitions ready in
	// reverse order (the early-bird pattern runs back to front).
	sp = tr.begin(lSend)
	for _, c := range w.order {
		s := w.sends[c]
		for p := 0; p < haloParts; p++ {
			if err := s.Bind(p, w.src[c*haloParts+p]); err != nil {
				return fmt.Errorf("round %d: send channel %d Bind: %w", r, c, err)
			}
		}
		if err := s.Start(); err != nil {
			return fmt.Errorf("round %d: send channel %d Start: %w", r, c, err)
		}
		for p := haloParts - 1; p >= 0; p-- {
			if err := s.Pready(p); err != nil {
				return fmt.Errorf("round %d: send channel %d Pready(%d): %w", r, c, p, err)
			}
		}
	}
	tr.end(sp, len(w.src))

	sp = tr.begin(lDrain)
	ok, err := w.rt.Drain(drainSteps)
	tr.end(sp, len(w.src))
	if err != nil {
		return fmt.Errorf("round %d: Drain: %w", r, err)
	}
	if !ok {
		return fmt.Errorf("round %d: Drain returned with partitions undelivered", r)
	}

	sp = tr.begin(lRead)
	for c, h := range w.recvs {
		for p := 0; p < haloParts; p++ {
			w.got[c*haloParts+p], w.err[c*haloParts+p] = h.Partition(p)
		}
	}
	tr.end(sp, len(w.got))

	sp = tr.begin(lVerify)
	for c := range w.recvs {
		for p := 0; p < haloParts; p++ {
			i := c*haloParts + p
			tl.attempted++
			switch {
			case w.err[i] != nil:
				tl.fail("round %d: recv channel %d partition %d: %v", r, c, p, w.err[i])
			case !bytes.Equal(w.got[i], w.src[w.from[c]*haloParts+p]):
				tl.fail("round %d: recv channel %d partition %d: bytes differ from the bound payload", r, c, p)
			}
		}
	}
	tr.end(sp, len(w.got))
	return nil
}

// ---------------------------------------------------------------------

// spec names a workload, builds it from a seed, and says whether a
// phase's counters show that the workload exercised its mechanism ("" if
// so). The coverage checks keep a workload from going vacuous.
//
// maxAllocs and maxAllocBytes cap the runtime's heap allocations per
// message over the allocation window, so an allocation regression fails
// the run. On the allocating workloads they are 1.05× the largest
// figures measured when the benchmark was defined (see README.md).
type spec struct {
	name                     string
	build                    func(seed int64) workload
	covered                  func(d mpx.Stats, wildcards int) string
	maxAllocs, maxAllocBytes float64
}

var specs = []spec{
	{
		name: "fullmpi-wildcard",
		// Measured: 5.786 objects and 1058.6 B per message.
		maxAllocs: 6.1, maxAllocBytes: 1112,
		build: func(seed int64) workload {
			return newPlain(plainConfig{
				level: mpx.FullMPI, perPair: 8, wildcard: 0.10, late: 0.5, tagsPerDst: true,
			}, seed)
		},
		covered: func(d mpx.Stats, wildcards int) string {
			if d.Matches == d.PrePostedMsgs || wildcards == 0 {
				return fmt.Sprintf("needs unexpected matches and wildcard receives (matches %d, pre-posted %d, wildcards %d)",
					d.Matches, d.PrePostedMsgs, wildcards)
			}
			return ""
		},
	},
	{
		name: "unordered-lossy",
		// Measured: 2.563 objects and 267.3 B per message.
		maxAllocs: 2.7, maxAllocBytes: 281,
		build: func(seed int64) workload {
			return newPlain(plainConfig{
				level: mpx.Unordered, perPair: 8, window: 16,
				fault: &fault.Config{Seed: seed, Drop: 0.05, Duplicate: 0.02, Delay: 0.10, AckDrop: 0.02},
			}, seed)
		},
		covered: func(d mpx.Stats, _ int) string {
			if d.Retries == 0 || d.Duplicates == 0 || d.Drops == 0 {
				return fmt.Sprintf("needs retries, duplicates and drops (got %d, %d, %d)", d.Retries, d.Duplicates, d.Drops)
			}
			return ""
		},
	},
	{
		name: "persistent-halo",
		// No allocation per round: memory profiles of whole 40-second
		// runs show none from the runtime's code. Now and then a window
		// still counts a few objects (at most 5 and 5248 B seen) that the
		// profiles never caught. The ceilings allow 10 objects per
		// window; one allocation every 20 rounds fails the run.
		maxAllocs: 2.1e-4, maxAllocBytes: 0.22,
		build: func(seed int64) workload { return newHalo(seed) },
		covered: func(d mpx.Stats, _ int) string {
			if d.CacheHits == 0 || d.CacheMisses != 0 || d.Iterations != 0 {
				return fmt.Sprintf("needs every delivery from the match cache (hit ratio 1) and no engine call (hits %d, misses %d, engine iterations %d)",
					d.CacheHits, d.CacheMisses, d.Iterations)
			}
			return ""
		},
	},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
