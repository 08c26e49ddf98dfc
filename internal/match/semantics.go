package match

import (
	"fmt"

	"simtmp/internal/envelope"
)

// Semantics identifies how far an engine's assignments may diverge
// from the ordered oracle (DESIGN.md §6). Each engine declares its
// level through Contract; the conformance harness verifies that an
// engine is exactly as permissive as its declared level — no more.
type Semantics int

const (
	// Ordered engines must reproduce the oracle bit-exactly: requests
	// in posted order, each claiming the earliest unclaimed match.
	Ordered Semantics = iota
	// Unordered engines may pair any message with any tuple-equal
	// request, but must still produce a maximum-cardinality matching
	// (per-tuple min of multiplicities) — the §VI-C hash relaxation.
	Unordered
	// GreedyMaximal engines guarantee only tuple-correct injective
	// pairings and greedy maximality: no unmatched request may have an
	// unclaimed matching message left. The wildcard-hash extension
	// provides exactly this.
	GreedyMaximal
)

// String names the semantics level.
func (s Semantics) String() string {
	switch s {
	case Ordered:
		return "ordered"
	case Unordered:
		return "unordered"
	case GreedyMaximal:
		return "greedy-maximal"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// Contract states one engine's conformance obligations: which requests
// it admits and how its assignments may legally diverge from the
// oracle. A request carrying a prohibited wildcard must be rejected
// with the matching sentinel error (ErrSourceWildcard when only the
// source wildcard is prohibited, ErrWildcard when all are).
type Contract struct {
	// Semantics is the legality level of produced assignments.
	Semantics Semantics
	// SrcWildcard reports whether MPI_ANY_SOURCE requests are admitted.
	SrcWildcard bool
	// TagWildcard reports whether MPI_ANY_TAG requests are admitted.
	TagWildcard bool
	// StreamQualified weakens Ordered semantics to per-stream ordering
	// (MPIX Stream, DESIGN.md §17): the engine must reproduce the
	// posted-order oracle within each stream, but owes nothing about
	// the relative order of different streams. Because the stream field
	// admits no wildcard, streams partition the matching domain, so the
	// weaker obligation is checked by running the oracle stream by
	// stream (VerifyStreamOrdered).
	StreamQualified bool
}

// RejectionError returns the sentinel error the engine must wrap when
// rejecting a prohibited request, or nil if the contract admits the
// request.
func (c Contract) RejectionError(r envelope.Request) error {
	if !c.TagWildcard && r.HasWildcard() {
		return ErrWildcard
	}
	if !c.SrcWildcard && r.Src == envelope.AnySource {
		return ErrSourceWildcard
	}
	return nil
}

// Verify checks an assignment under the contract's semantics level.
func (c Contract) Verify(msgs []envelope.Envelope, reqs []envelope.Request, a Assignment) error {
	switch c.Semantics {
	case Ordered:
		if c.StreamQualified {
			return VerifyStreamOrdered(msgs, reqs, a)
		}
		return VerifyOrdered(msgs, reqs, a)
	case Unordered:
		return VerifyUnordered(msgs, reqs, a)
	case GreedyMaximal:
		return VerifyMaximal(msgs, reqs, a)
	default:
		return fmt.Errorf("match: unknown semantics %v", c.Semantics)
	}
}

// Contractor is implemented by engines that declare their conformance
// contract. Every engine in this package implements it; the
// conformance harness requires it.
type Contractor interface {
	Contract() Contract
}

// ContractOf returns the engine's declared contract. It fails for
// matchers that do not declare one.
func ContractOf(m Matcher) (Contract, error) {
	c, ok := m.(Contractor)
	if !ok {
		return Contract{}, fmt.Errorf("match: engine %s declares no contract", m.Name())
	}
	return c.Contract(), nil
}

// fullMPIContract is the contract of every engine keeping all MPI
// guarantees.
func fullMPIContract() Contract {
	return Contract{Semantics: Ordered, SrcWildcard: true, TagWildcard: true}
}

// CheckAssignment verifies the structural invariants every engine must
// uphold regardless of semantics level: one entry per request, message
// indices in range, no message claimed twice (injectivity), and every
// pairing satisfying its request's envelope criteria. Level-specific
// checks (ordering, maximality) build on top of it.
func CheckAssignment(msgs []envelope.Envelope, reqs []envelope.Request, a Assignment) error {
	if len(a) != len(reqs) {
		return fmt.Errorf("assignment has %d entries for %d requests", len(a), len(reqs))
	}
	used := make([]bool, len(msgs))
	for i, m := range a {
		if m == NoMatch {
			continue
		}
		if m < 0 || m >= len(msgs) {
			return fmt.Errorf("request %d: message index %d out of range [0,%d)", i, m, len(msgs))
		}
		if used[m] {
			return fmt.Errorf("message %d claimed twice", m)
		}
		used[m] = true
		if !reqs[i].Matches(msgs[m]) {
			return fmt.Errorf("request %d (%v) paired with non-matching message %d (%v)",
				i, reqs[i], m, msgs[m])
		}
	}
	return nil
}
