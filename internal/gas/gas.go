// Package gas simulates the global address space the paper presumes
// (§II-C): GPUs clustered over NVLink/PCIe spanning a virtual address
// space, where a send is a direct write into a message ring in the
// peer's device memory and a receive queries the local ring. One
// communication kernel per GPU performs matching in the background.
// The ring is credit-flow-controlled: a sender that outruns the
// receiver sees back-pressure, never data loss.
//
// The transport verifies the 8-bit checksum sealed into every packed
// header (see internal/envelope): a corrupted or invalid wire word is
// consumed, counted and discarded instead of delivered, so a faulty
// interconnect surfaces as retransmissions rather than wrong matches.
package gas

import (
	"fmt"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/ring"
	"simtmp/internal/simt"
)

// Message is a delivered or in-flight message: the matching header
// plus an opaque payload. Seq is the sender-side logical timestamp the
// runtime uses to decide whether the matching receive was pre-posted;
// Flow is the per-(src,dst) wire sequence number the reliable layer
// uses for deduplication and reordering.
// SSeq is the per-(flow,stream) sequence number the stream-ordered
// relaxation releases on: contiguous within a stream, independent
// across streams (zero for non-stream traffic).
type Message struct {
	Env     envelope.Envelope
	Payload []byte
	Seq     uint64
	Flow    uint64
	SSeq    uint64
}

// LinkStats counts the transport-level anomalies one GPU's receive
// path observed and discarded.
type LinkStats struct {
	// Invalid counts popped words without the valid header bit (a
	// zeroed or clobbered slot).
	Invalid int
	// Corrupt counts words whose valid bit survived but whose embedded
	// checksum failed — a detected bit flip.
	Corrupt int
}

// GPU is one simulated device in the cluster: its SIMT device, its
// message ring in device global memory, and the parallel payload store
// (the ring slot carries only the packed {src,tag,comm} header; the
// payload would live in a registered buffer pool).
type GPU struct {
	ID     int
	Device *simt.Device

	incoming *ring.Ring
	side     []sideEntry // payload+seq FIFO, parallel to the ring
	sideHead int         // consumed prefix of side (reset when drained)
	drainBuf []Message   // reused by Drain; see the reuse contract there
	stats    LinkStats
}

type sideEntry struct {
	payload []byte
	seq     uint64
	flow    uint64
	sseq    uint64
}

// Pending returns the number of undelivered messages in the GPU's
// ring.
func (g *GPU) Pending() int { return g.incoming.Len() }

// Ring exposes the transport ring (e.g. to inspect credits).
func (g *GPU) Ring() *ring.Ring { return g.incoming }

// LinkStats returns the receive-path anomaly counters.
func (g *GPU) LinkStats() LinkStats { return g.stats }

// Drain removes and returns all pending valid messages in arrival
// order and returns the freed slots to the sender as credits. Words
// failing validation or the checksum are consumed and counted, never
// delivered.
//
// The returned slice is a reused buffer owned by the GPU: it is valid
// only until the next Drain/DrainKeepingCredits call. Callers that
// keep messages across drains (all in-tree callers consume or copy
// immediately) must copy them out.
func (g *GPU) Drain() []Message {
	out := g.DrainKeepingCredits()
	g.incoming.ReturnCredits()
	return out
}

// DrainKeepingCredits is Drain without the credit return: freed slots
// stay pending until the caller flushes them via Ring().ReturnCredits.
// The fault plane uses it to model a receiver starving its sender of
// credits. The returned slice follows Drain's reuse contract.
func (g *GPU) DrainKeepingCredits() []Message {
	return g.DrainUpToKeepingCredits(-1)
}

// DrainUpToKeepingCredits is DrainKeepingCredits bounded to at most
// max ring pops (max < 0 drains everything). The fault plane's
// slow-receiver class uses it to model a consumer whose drain rate,
// not its liveness, is the bottleneck: the ring keeps filling while
// the receiver trickles. The returned slice follows Drain's reuse
// contract.
func (g *GPU) DrainUpToKeepingCredits(max int) []Message {
	out := g.drainBuf[:0]
	for popped := 0; max < 0 || popped < max; popped++ {
		w, ok := g.incoming.Pop()
		if !ok {
			break
		}
		// The side entry is consumed atomically with its header word:
		// whatever the word's fate, header and payload stay in lockstep
		// so one bad word cannot desynchronize the two queues. Consumed
		// entries are zeroed so payload references are released, and the
		// FIFO is a head index over a reusable array rather than a
		// re-sliced (and so never-reclaimed) backing array.
		var side sideEntry
		if g.sideHead < len(g.side) {
			side = g.side[g.sideHead]
			g.side[g.sideHead] = sideEntry{}
			g.sideHead++
		}
		env, valid := envelope.UnpackEnvelope(w)
		switch {
		case !valid:
			g.stats.Invalid++
		case !envelope.ChecksumOK(w):
			g.stats.Corrupt++
		default:
			out = append(out, Message{Env: env, Payload: side.payload, Seq: side.seq, Flow: side.flow, SSeq: side.sseq})
		}
	}
	if g.sideHead == len(g.side) {
		g.side = g.side[:0]
		g.sideHead = 0
	}
	g.drainBuf = out
	return out
}

// Cluster is a set of GPUs sharing a global address space.
type Cluster struct {
	gpus []*GPU
}

// NewCluster creates n GPUs of the given architecture, each with a
// message ring of queueCap entries.
func NewCluster(n int, a *arch.Arch, queueCap int) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("gas: cluster of %d GPUs", n))
	}
	if queueCap <= 0 {
		queueCap = 4096
	}
	c := &Cluster{gpus: make([]*GPU, n)}
	for i := range c.gpus {
		dev := simt.NewDevice(a, ring.Words(queueCap)+64)
		c.gpus[i] = &GPU{
			ID:       i,
			Device:   dev,
			incoming: ring.New(dev.Global, 0, queueCap),
		}
	}
	return c
}

// Size returns the number of GPUs.
func (c *Cluster) Size() int { return len(c.gpus) }

// GPU returns device i.
func (c *Cluster) GPU(i int) *GPU { return c.gpus[i] }

// Drain drains GPU i's ring (see GPU.Drain).
func (c *Cluster) Drain(i int) []Message { return c.gpus[i].Drain() }

// Idle reports whether every ring in the cluster is empty — no
// undelivered transport state anywhere.
func (c *Cluster) Idle() bool {
	for _, g := range c.gpus {
		if g.Pending() > 0 {
			return false
		}
	}
	return true
}

// PutStream performs the GAS send: a direct remote enqueue of the
// packed header (and payload) into dst's message ring, no CPU
// involved. It returns an error wrapping ring.ErrNoCredits when the
// sender is out of credits — the back-pressure a real flow-control
// protocol surfaces. seq is the sender's logical timestamp, flow the
// per-peer wire sequence number and sseq the per-(flow,stream)
// sequence number (0 marks non-stream traffic), all delivered with the
// message.
func (c *Cluster) PutStream(dst int, env envelope.Envelope, payload []byte, seq, flow, sseq uint64) error {
	if err := env.Validate(); err != nil {
		return fmt.Errorf("gas: %w", err)
	}
	return c.PutWordStream(dst, env.Pack(), payload, seq, flow, sseq)
}

// PutWordStream is the raw wire path under PutStream: it enqueues an
// arbitrary 64-bit word with its side entry (including the
// per-(flow,stream) sequence number), without validation. The fault
// plane uses it to inject corrupted headers; tests use it for malformed
// words. Every word still consumes a ring slot and credit.
func (c *Cluster) PutWordStream(dst int, w uint64, payload []byte, seq, flow, sseq uint64) error {
	if dst < 0 || dst >= len(c.gpus) {
		return fmt.Errorf("gas: destination GPU %d outside [0,%d)", dst, len(c.gpus))
	}
	g := c.gpus[dst]
	if err := g.incoming.Push(w); err != nil {
		return fmt.Errorf("gas: GPU %d: %w", dst, err)
	}
	if g.sideHead == len(g.side) {
		// FIFO fully consumed: rewind so the backing array is reused.
		g.side = g.side[:0]
		g.sideHead = 0
	}
	g.side = append(g.side, sideEntry{payload: payload, seq: seq, flow: flow, sseq: sseq})
	return nil
}
