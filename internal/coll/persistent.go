// Persistent collectives: the fixed communication pattern of an
// iterative collective is exactly what mpx persistent channels exist
// for — build the plan once, let the first iteration run the full
// matching engine, and re-fire every later iteration through the
// sealed match-handle cache in O(1) (DESIGN.md §15).
package coll

import (
	"encoding/binary"
	"fmt"
	"math"

	"simtmp/internal/envelope"
	"simtmp/internal/mpx"
)

// PersistentAllReduce is a pre-built recursive-doubling allreduce: one
// persistent channel per (round, rank) pair, each rank exchanging with
// partner rank^2^round. The send buffers are bound once by reference,
// so a steady-state Run rewrites them in place and performs no
// per-iteration channel setup at all. Requires a power-of-two GPU
// count (the classic recursive-doubling constraint).
type PersistentAllReduce struct {
	c      *Comm
	op     Op
	rounds int
	sends  [][]*mpx.PersistentSend // [round][rank]
	recvs  [][]*mpx.PersistentRecv
	bufs   [][][]byte // [round][rank] 8-byte bound send buffer
	acc    []float64
	freed  bool
}

// NewPersistentAllReduce builds the plan. Every (src, dst, tag) tuple
// is unique — one tag per round, concrete partners — so the plan is
// valid at every semantic level including Unordered, and every channel
// is seal-eligible.
func (c *Comm) NewPersistentAllReduce(op Op) (*PersistentAllReduce, error) {
	p := c.size()
	if p < 2 || p&(p-1) != 0 {
		return nil, fmt.Errorf("coll: persistent allreduce needs a power-of-two GPU count, got %d", p)
	}
	a := &PersistentAllReduce{c: c, op: op, acc: make([]float64, p)}
	for dist := 1; dist < p; dist *= 2 {
		round := a.rounds
		a.rounds++
		sends := make([]*mpx.PersistentSend, p)
		recvs := make([]*mpx.PersistentRecv, p)
		bufs := make([][]byte, p)
		for r := 0; r < p; r++ {
			partner := r ^ dist
			bufs[r] = make([]byte, 8)
			s, err := c.rt.SendInit(r, partner, c.tag(round), c.comm, bufs[r])
			if err != nil {
				a.Free()
				return nil, fmt.Errorf("coll: persistent allreduce send %d→%d round %d: %w", r, partner, round, err)
			}
			sends[r] = s
			h, err := c.rt.RecvInit(r, envelope.Rank(partner), c.tag(round), c.comm)
			if err != nil {
				a.Free()
				return nil, fmt.Errorf("coll: persistent allreduce recv %d←%d round %d: %w", r, partner, round, err)
			}
			recvs[r] = h
		}
		a.sends = append(a.sends, sends)
		a.recvs = append(a.recvs, recvs)
		a.bufs = append(a.bufs, bufs)
	}
	return a, nil
}

// RunInto executes one allreduce iteration over the plan; the per-GPU
// results (all equal) land in out (len = GPU count), so steady-state
// iterations allocate nothing. After the first iteration every channel
// is sealed and the exchange re-fires through the cache without
// touching the matching engine.
func (a *PersistentAllReduce) RunInto(out, vals []float64) error {
	if len(out) != a.c.size() {
		return fmt.Errorf("coll: persistent allreduce got %d result slots for %d GPUs", len(out), a.c.size())
	}
	if err := a.run(vals); err != nil {
		return err
	}
	copy(out, a.acc)
	return nil
}

// run executes one iteration into a.acc.
func (a *PersistentAllReduce) run(vals []float64) error {
	if a.freed {
		return fmt.Errorf("coll: Run on freed persistent allreduce")
	}
	p := a.c.size()
	if len(vals) != p {
		return fmt.Errorf("coll: persistent allreduce got %d values for %d GPUs", len(vals), p)
	}
	copy(a.acc, vals)
	for round := 0; round < a.rounds; round++ {
		for r := 0; r < p; r++ {
			if err := a.recvs[round][r].Start(); err != nil {
				return fmt.Errorf("coll: round %d recv start %d: %w", round, r, err)
			}
		}
		for r := 0; r < p; r++ {
			binary.LittleEndian.PutUint64(a.bufs[round][r], math.Float64bits(a.acc[r]))
			if err := a.sends[round][r].Start(); err != nil {
				return fmt.Errorf("coll: round %d send start %d: %w", round, r, err)
			}
		}
		ok, err := a.c.rt.Drain(drainSteps)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("coll: persistent allreduce round %d did not complete", round)
		}
		for r := 0; r < p; r++ {
			msg, err := a.recvs[round][r].Message()
			if err != nil {
				return fmt.Errorf("coll: round %d result %d: %w", round, r, err)
			}
			a.acc[r] = a.op.apply(a.acc[r], math.Float64frombits(binary.LittleEndian.Uint64(msg.Payload)))
		}
	}
	return nil
}

// Free releases every channel of the plan.
func (a *PersistentAllReduce) Free() {
	if a.freed {
		return
	}
	a.freed = true
	for round := range a.sends {
		for r := range a.sends[round] {
			if a.sends[round][r] != nil {
				_ = a.sends[round][r].Free()
			}
		}
	}
	for round := range a.recvs {
		for r := range a.recvs[round] {
			if a.recvs[round][r] != nil {
				_ = a.recvs[round][r].Free()
			}
		}
	}
}
