// Persistent matching: the sealed match-handle cache behind the
// runtime's SendInit/RecvInit plane (DESIGN.md §15). The idea follows
// the persistent/partitioned communication of MPI-4 as co-designed for
// CPU-free GPU runtimes: iterative applications re-fire a fixed
// communication pattern every timestep, so the (src, tag, comm)
// pairing the full engine produces on the first iteration can be
// recorded — *sealed* — into an arena-allocated handle table and every
// later iteration served as an O(1) table lookup with zero matcher
// involvement.
//
// Sealing is only sound while nothing else could legally claim the
// channel's messages. The cache therefore tracks, per sealed handle,
// two invalidation scopes callers drive:
//
//   - the (comm, tag) shadow: any non-persistent post (wildcard or
//     concrete) landing on the same communicator and tag unseals every
//     handle under that shadow, routing the next iteration back
//     through the full engine;
//   - the communicator: an MPI_ANY_TAG post can claim any tag, so it
//     unseals every handle on the communicator;
//   - the exact key: an unexpected message with a sealed handle's own
//     tuple parked in the unexpected queue would be overtaken by a
//     cached delivery, so it unseals the handles holding that key.
//
// The cache is a passive index: it never matches, counts its own
// traffic, or locks. The runtime owns the counters (mpx.Stats) and the
// serialization; engines are never aware a cache exists.
package match

import (
	"fmt"

	"simtmp/internal/envelope"
)

// HandleID names one slot in a PersistentCache's arena. The zero value
// is reserved as "no handle".
type HandleID int32

// persistentEntry is one arena slot: the channel's concrete tuple, its
// precomputed index keys, the sealed flag, and an opaque caller value
// (the runtime stores its receive-handle pointer there).
type persistentEntry struct {
	env    envelope.Envelope
	key    uint64 // env.Key(): exact-tuple lookup and invalidation
	shadow uint64 // (comm, tag) shadow key
	parts  int
	user   any
	live   bool
	sealed bool
}

// PersistentCache is the sealed match-handle table for one matching
// endpoint (the runtime keeps one per GPU). Not safe for concurrent
// use; the owner serializes access.
type PersistentCache struct {
	arena []persistentEntry // index 0 unused (HandleID 0 = none)
	free  []HandleID

	// Sealed-handle indexes. byKey holds seal-order FIFOs per exact
	// tuple — the O(1) re-fire lookup; byShadow and byComm serve the
	// invalidation scopes.
	byKey    map[uint64][]HandleID
	byShadow map[uint64][]HandleID
	byComm   map[envelope.Comm][]HandleID
	sealed   int
}

// NewPersistentCache returns an empty cache.
func NewPersistentCache() *PersistentCache {
	return &PersistentCache{
		arena:    make([]persistentEntry, 1), // slot 0 reserved
		byKey:    make(map[uint64][]HandleID),
		byShadow: make(map[uint64][]HandleID),
		byComm:   make(map[envelope.Comm][]HandleID),
	}
}

// shadowKey folds a (comm, tag) pair into the shadow-index key.
func shadowKey(comm envelope.Comm, tag envelope.Tag) uint64 {
	return uint64(uint32(comm))<<32 | uint64(uint32(tag))
}

// Alloc reserves an unsealed arena slot for a persistent channel with
// the given concrete tuple and partition count, storing user for the
// caller (retrieved via User). parts must be ≥ 1.
func (c *PersistentCache) Alloc(env envelope.Envelope, parts int, user any) (HandleID, error) {
	if err := env.Validate(); err != nil {
		return 0, fmt.Errorf("match: persistent alloc: %w", err)
	}
	if parts < 1 {
		return 0, fmt.Errorf("match: persistent alloc: %d partitions", parts)
	}
	var id HandleID
	if n := len(c.free); n > 0 {
		id = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.arena = append(c.arena, persistentEntry{})
		id = HandleID(len(c.arena) - 1)
	}
	c.arena[id] = persistentEntry{
		env:    env,
		key:    env.Key(),
		shadow: shadowKey(env.Comm, env.Tag),
		parts:  parts,
		user:   user,
		live:   true,
	}
	return id, nil
}

// Release unseals and frees the handle's arena slot. Releasing an
// already-free or zero handle is a no-op.
func (c *PersistentCache) Release(id HandleID) {
	if !c.valid(id) {
		return
	}
	c.Unseal(id)
	c.arena[id] = persistentEntry{}
	c.free = append(c.free, id)
}

func (c *PersistentCache) valid(id HandleID) bool {
	return id > 0 && int(id) < len(c.arena) && c.arena[id].live
}

// Seal marks the handle's pairing as cached: after the full engine
// produced the channel's first-iteration assignment, the owner seals
// the handle and later iterations resolve by key lookup alone.
// Sealing an already-sealed handle is a no-op.
func (c *PersistentCache) Seal(id HandleID) error {
	if !c.valid(id) {
		return fmt.Errorf("match: seal of invalid handle %d", id)
	}
	e := &c.arena[id]
	if e.sealed {
		return nil
	}
	e.sealed = true
	c.byKey[e.key] = append(c.byKey[e.key], id)
	c.byShadow[e.shadow] = append(c.byShadow[e.shadow], id)
	c.byComm[e.env.Comm] = append(c.byComm[e.env.Comm], id)
	c.sealed++
	return nil
}

// Unseal removes the handle from the sealed indexes, reporting whether
// it was sealed. The arena slot stays allocated: the channel re-earns
// its seal by running one full-engine iteration again.
func (c *PersistentCache) Unseal(id HandleID) bool {
	if !c.valid(id) || !c.arena[id].sealed {
		return false
	}
	e := &c.arena[id]
	e.sealed = false
	c.byKey[e.key] = removeID(c.byKey[e.key], id)
	c.byShadow[e.shadow] = removeID(c.byShadow[e.shadow], id)
	c.byComm[e.env.Comm] = removeID(c.byComm[e.env.Comm], id)
	c.sealed--
	return true
}

func removeID(ids []HandleID, id HandleID) []HandleID {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// IsSealed reports whether the handle is sealed.
func (c *PersistentCache) IsSealed(id HandleID) bool {
	return c.valid(id) && c.arena[id].sealed
}

// SealedCount returns the number of sealed handles — the cheap guard
// hot paths use to skip the cache entirely when nothing is sealed.
func (c *PersistentCache) SealedCount() int { return c.sealed }

// SealedForKey returns the sealed handles holding the exact packed
// tuple key, in seal order. The returned slice is the cache's internal
// index — read-only, valid until the next mutation, never allocated
// per call (the O(1), zero-allocation re-fire lookup).
func (c *PersistentCache) SealedForKey(key uint64) []HandleID { return c.byKey[key] }

// User returns the caller value stored at Alloc (nil for invalid ids).
func (c *PersistentCache) User(id HandleID) any {
	if !c.valid(id) {
		return nil
	}
	return c.arena[id].user
}

// InvalidateKey unseals every handle holding the exact tuple key,
// appending the unsealed ids to into and returning the result. Callers
// pass a reused scratch slice so steady-state invalidation-free steps
// allocate nothing. Each Unseal rewrites the index, so the loops below
// re-read it until it drains.
func (c *PersistentCache) InvalidateKey(key uint64, into []HandleID) []HandleID {
	for len(c.byKey[key]) > 0 {
		id := c.byKey[key][0]
		into = append(into, id)
		c.Unseal(id)
	}
	return into
}

// InvalidateShadow unseals every handle under the (comm, tag) shadow —
// the scope a concrete or MPI_ANY_SOURCE non-persistent post dirties.
func (c *PersistentCache) InvalidateShadow(comm envelope.Comm, tag envelope.Tag, into []HandleID) []HandleID {
	sk := shadowKey(comm, tag)
	for len(c.byShadow[sk]) > 0 {
		id := c.byShadow[sk][0]
		into = append(into, id)
		c.Unseal(id)
	}
	return into
}

// InvalidateComm unseals every handle on the communicator — the scope
// an MPI_ANY_TAG post dirties.
func (c *PersistentCache) InvalidateComm(comm envelope.Comm, into []HandleID) []HandleID {
	for len(c.byComm[comm]) > 0 {
		id := c.byComm[comm][0]
		into = append(into, id)
		c.Unseal(id)
	}
	return into
}
