// Package coll implements collective operations over the mpx
// send/recv runtime: barrier, broadcast, reduce, allreduce, gather and
// all-to-all. The paper's conclusion leaves "whether send/recv,
// collectives, put/get ... is most suitable" as an open question; this
// package explores the collective side on top of the relaxed matching
// engines.
//
// Every algorithm is BSP-structured — log-P rounds separated by a
// drain — and uses one distinct tag per round, so the same code is
// correct at every semantic level including Unordered: within a round
// every (src, dst) pair carries at most one message, and tags are
// reused only after the round's synchronization, exactly the tag
// discipline the paper's §VI-C prescribes.
package coll

import (
	"encoding/binary"
	"fmt"
	"math"

	"simtmp/internal/envelope"
	"simtmp/internal/mpx"
)

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

// apply combines two values under the operator.
func (o Op) apply(a, b float64) float64 {
	switch o {
	case Max:
		return math.Max(a, b)
	case Min:
		return math.Min(a, b)
	default:
		return a + b
	}
}

// String names the operator.
func (o Op) String() string {
	switch o {
	case Sum:
		return "sum"
	case Max:
		return "max"
	case Min:
		return "min"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Comm is a collective context: a runtime plus a communicator and a
// reserved tag base for collective traffic.
type Comm struct {
	rt      *mpx.Runtime
	comm    envelope.Comm
	tagBase envelope.Tag
}

// maxRounds bounds the per-operation round count the tag block must
// accommodate.
const maxRounds = 32

// drainSteps bounds runtime progress steps per round.
const drainSteps = 8

// New creates a collective context on rt. tagBase reserves
// [tagBase, tagBase+32) for collective rounds; it must leave that room
// below the 16-bit tag ceiling.
func New(rt *mpx.Runtime, comm envelope.Comm, tagBase envelope.Tag) (*Comm, error) {
	if tagBase < 0 || tagBase+maxRounds > envelope.MaxTag {
		return nil, fmt.Errorf("coll: tag base %d leaves no room for %d rounds", tagBase, maxRounds)
	}
	return &Comm{rt: rt, comm: comm, tagBase: tagBase}, nil
}

// size returns the number of participants (all GPUs of the runtime).
func (c *Comm) size() int { return c.rt.GPUs() }

// tag returns the tag for a round.
func (c *Comm) tag(round int) envelope.Tag {
	if round < 0 || round >= maxRounds {
		panic(fmt.Sprintf("coll: round %d outside tag block", round))
	}
	return c.tagBase + envelope.Tag(round)
}

// exchangeRound delivers one communication round: sends[i] lists the
// (dst, payload) pairs GPU i transmits; the returned matrix holds, for
// every GPU, the payloads received this round keyed by source.
func (c *Comm) exchangeRound(round int, sends [][]sendOp) (map[int]map[int][]byte, error) {
	p := c.size()
	type pending struct {
		dst, src int
		h        *mpx.Recv
	}
	var handles []pending
	// Post all receives first (pre-posted: the no-unexpected contract
	// holds by construction).
	for src := 0; src < p; src++ {
		for _, op := range sends[src] {
			h, err := c.rt.PostRecv(op.dst, envelope.Rank(src), c.tag(round), c.comm)
			if err != nil {
				return nil, fmt.Errorf("coll: round %d recv on %d: %w", round, op.dst, err)
			}
			handles = append(handles, pending{dst: op.dst, src: src, h: h})
		}
	}
	for src := 0; src < p; src++ {
		for _, op := range sends[src] {
			if err := c.rt.Send(src, op.dst, c.tag(round), c.comm, op.payload); err != nil {
				return nil, fmt.Errorf("coll: round %d send %d→%d: %w", round, src, op.dst, err)
			}
		}
	}
	ok, err := c.rt.Drain(drainSteps)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("coll: round %d did not complete", round)
	}
	out := make(map[int]map[int][]byte, p)
	for _, pd := range handles {
		msg, err := pd.h.Message()
		if err != nil {
			return nil, err
		}
		if out[pd.dst] == nil {
			out[pd.dst] = make(map[int][]byte)
		}
		out[pd.dst][pd.src] = msg.Payload
	}
	return out, nil
}

type sendOp struct {
	dst     int
	payload []byte
}

// Barrier synchronizes all GPUs with a dissemination barrier
// (ceil(log2 P) rounds, any P).
func (c *Comm) Barrier() error {
	p := c.size()
	for round, dist := 0, 1; dist < p; round, dist = round+1, dist*2 {
		sends := make([][]sendOp, p)
		for r := 0; r < p; r++ {
			sends[r] = []sendOp{{dst: (r + dist) % p, payload: nil}}
		}
		if _, err := c.exchangeRound(round, sends); err != nil {
			return err
		}
	}
	return nil
}

// Broadcast distributes root's data to every GPU with a binomial tree
// and returns the per-GPU copies (index = GPU).
func (c *Comm) Broadcast(root int, data []byte) ([][]byte, error) {
	p := c.size()
	if root < 0 || root >= p {
		return nil, fmt.Errorf("coll: broadcast root %d outside [0,%d)", root, p)
	}
	have := make([][]byte, p)
	have[root] = data
	// Virtual ranks rotate root to 0.
	real := func(v int) int { return (v + root) % p }
	round := 0
	for dist := 1; dist < p; dist *= 2 {
		sends := make([][]sendOp, p)
		for v := 0; v < p; v++ {
			// Holders are virtual ranks < dist; each sends to v+dist.
			if v < dist && v+dist < p {
				src := real(v)
				sends[src] = append(sends[src], sendOp{dst: real(v + dist), payload: have[src]})
			}
		}
		got, err := c.exchangeRound(round, sends)
		if err != nil {
			return nil, err
		}
		for dst, bySrc := range got {
			for _, payload := range bySrc {
				have[dst] = payload
			}
		}
		round++
	}
	// Every GPU must now hold the data.
	for r := 0; r < p; r++ {
		if have[r] == nil && data != nil {
			return nil, fmt.Errorf("coll: broadcast left GPU %d empty", r)
		}
	}
	return have, nil
}

// Reduce combines one value per GPU down to root with a binomial tree
// and returns the result (valid at root).
func (c *Comm) Reduce(root int, vals []float64, op Op) (float64, error) {
	p := c.size()
	if len(vals) != p {
		return 0, fmt.Errorf("coll: reduce got %d values for %d GPUs", len(vals), p)
	}
	if root < 0 || root >= p {
		return 0, fmt.Errorf("coll: reduce root %d outside [0,%d)", root, p)
	}
	acc := make([]float64, p)
	copy(acc, vals)
	real := func(v int) int { return (v + root) % p }
	round := 0
	for dist := 1; dist < p; dist *= 2 {
		sends := make([][]sendOp, p)
		for v := 0; v < p; v++ {
			if v%(2*dist) == dist { // senders this round
				src := real(v)
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, math.Float64bits(acc[src]))
				sends[src] = append(sends[src], sendOp{dst: real(v - dist), payload: buf})
			}
		}
		got, err := c.exchangeRound(round, sends)
		if err != nil {
			return 0, err
		}
		for dst, bySrc := range got {
			for _, payload := range bySrc {
				v := math.Float64frombits(binary.LittleEndian.Uint64(payload))
				acc[dst] = op.apply(acc[dst], v)
			}
		}
		round++
	}
	return acc[root], nil
}

// AllReduce combines one value per GPU and distributes the result to
// all (reduce to 0, then broadcast), returning the per-GPU results.
func (c *Comm) AllReduce(vals []float64, op Op) ([]float64, error) {
	total, err := c.Reduce(0, vals, op)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(total))
	copies, err := c.Broadcast(0, buf)
	if err != nil {
		return nil, err
	}
	out := make([]float64, c.size())
	for r, payload := range copies {
		out[r] = math.Float64frombits(binary.LittleEndian.Uint64(payload))
	}
	return out, nil
}
