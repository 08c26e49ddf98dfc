package bench

import (
	"fmt"
	"io"

	"simtmp/internal/envelope"
	"simtmp/internal/match"
	"simtmp/internal/workload"
)

// CompactionRow reports the §VI-B compaction ablation.
type CompactionRow struct {
	QueueLen    int
	PlainRateM  float64
	CompactRate float64
	OverheadPct float64
}

// AblationCompaction measures the matching rate with and without the
// queue-compaction kernel (paper: about a 10% reduction).
func AblationCompaction() []CompactionRow {
	var out []CompactionRow
	for _, n := range []int{256, 512, 1024} {
		msgs, reqs := workload.FullyMatching(n, int64(n))
		plain := mustMatch(match.NewMatrixMatcher(match.MatrixConfig{}), msgs, reqs)
		comp := mustMatch(match.NewMatrixMatcher(match.MatrixConfig{Compact: true}), msgs, reqs)
		pr := mrate(plain.Assignment.Matched(), plain.SimSeconds)
		cr := mrate(comp.Assignment.Matched(), comp.SimSeconds)
		out = append(out, CompactionRow{
			QueueLen: n, PlainRateM: pr, CompactRate: cr,
			OverheadPct: 100 * (pr/cr - 1),
		})
	}
	return out
}

// PrintAblationCompaction formats the compaction ablation.
func PrintAblationCompaction(w io.Writer, rows []CompactionRow) {
	header(w, "Ablation: compaction overhead (§VI-B, paper: ~10%)")
	fmt.Fprintln(w, "queue_len  no-compact  compact  overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%9d  %8.2fM  %6.2fM  %7.1f%%\n", r.QueueLen, r.PlainRateM, r.CompactRate, r.OverheadPct)
	}
}

// FractionRow reports the §VI-B match-fraction ablation.
type FractionRow struct {
	Fraction  float64
	RateM     float64
	RelToFull float64
}

// AblationMatchFraction sweeps the fraction of requests with matching
// messages. The paper: "performance decreases linearly with the number
// of matched messages per iteration" — at 50% matched, about 50% rate.
func AblationMatchFraction() []FractionRow {
	const n = 1024
	fractions := []float64{1.0, 0.75, 0.5, 0.25}
	var out []FractionRow
	var fullRate float64
	for _, f := range fractions {
		msgs, reqs := workload.Generate(workload.Config{N: n, Peers: 64, Tags: 32, MatchFraction: f, Seed: 3})
		res := mustMatch(match.NewMatrixMatcher(match.MatrixConfig{Compact: true}), msgs, reqs)
		r := mrate(res.Assignment.Matched(), res.SimSeconds)
		if f == 1.0 {
			fullRate = r
		}
		out = append(out, FractionRow{Fraction: f, RateM: r, RelToFull: r / fullRate})
	}
	return out
}

// PrintAblationMatchFraction formats the match-fraction ablation.
func PrintAblationMatchFraction(w io.Writer, rows []FractionRow) {
	header(w, "Ablation: matched fraction (§VI-B, paper: rate scales with matches)")
	fmt.Fprintln(w, "fraction  matches/s  rel-to-full")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2f  %7.2fM  %11.2f\n", r.Fraction, r.RateM, r.RelToFull)
	}
}

// OrderRow reports the §V-B receive-queue order sensitivity beyond
// 1024 entries.
type OrderRow struct {
	QueueLen      int
	OrderedRateM  float64
	ReversedRateM float64
	Slowdown      float64
}

// OrderSensitivity compares an ordered receive queue against a
// reversed one for queues needing multiple iterations (paper: "an
// ordered queue would yield the same performance ... a reversed queue
// would decrease performance").
func OrderSensitivity() []OrderRow {
	var out []OrderRow
	for _, n := range []int{2048, 4096, 8192} {
		msgs, reqs := uniqueOrderedWorkload(n)
		m := match.NewMatrixMatcher(match.MatrixConfig{})
		fwd := mustMatch(m, msgs, reqs)
		rev := mustMatch(m, msgs, workload.Reverse(reqs))
		fr := mrate(fwd.Assignment.Matched(), fwd.SimSeconds)
		rr := mrate(rev.Assignment.Matched(), rev.SimSeconds)
		out = append(out, OrderRow{QueueLen: n, OrderedRateM: fr, ReversedRateM: rr, Slowdown: fr / rr})
	}
	return out
}

// PrintOrderSensitivity formats the order-sensitivity ablation.
func PrintOrderSensitivity(w io.Writer, rows []OrderRow) {
	header(w, "Ablation: receive-queue order beyond 1024 entries (§V-B)")
	fmt.Fprintln(w, "queue_len  ordered  reversed  slowdown")
	for _, r := range rows {
		fmt.Fprintf(w, "%9d  %6.2fM  %7.2fM  %7.2fx\n", r.QueueLen, r.OrderedRateM, r.ReversedRateM, r.Slowdown)
	}
}

// HashAblationRow reports one hash-function × collision-policy
// combination (the paper's stated future work).
type HashAblationRow struct {
	HashName string
	Policy   string
	RateM    float64
	Iters    int
	// DupRateM is the rate on a duplicate-heavy workload (small tuple
	// space), stressing collision handling.
	DupRateM float64
	DupIters int
}

// HashAblation sweeps hash functions and collision policies on both a
// unique-tuple and a duplicate-heavy workload.
func HashAblation() []HashAblationRow {
	const n = 1024
	var out []HashAblationRow
	uniqueMsgs, uniqueReqs := workload.UniqueTuples(n, 5)
	dupMsgs, dupReqs := workload.Generate(workload.Config{N: n, Peers: 8, Tags: 8, Seed: 5})
	for _, name := range []string{"jenkins", "fnv1a", "xorshift"} {
		for _, pol := range []match.CollisionPolicy{match.TwoLevel, match.LinearProbe} {
			h := match.MustHashMatcher(match.HashConfig{HashName: name, Policy: pol})
			u := mustMatch(h, uniqueMsgs, uniqueReqs)
			d := mustMatch(h, dupMsgs, dupReqs)
			out = append(out, HashAblationRow{
				HashName: name, Policy: pol.String(),
				RateM: mrate(u.Assignment.Matched(), u.SimSeconds), Iters: u.Iterations,
				DupRateM: mrate(d.Assignment.Matched(), d.SimSeconds), DupIters: d.Iterations,
			})
		}
	}
	return out
}

// PrintHashAblation formats the hash ablation.
func PrintHashAblation(w io.Writer, rows []HashAblationRow) {
	header(w, "Ablation: hash functions × collision policies (§VI-C future work)")
	fmt.Fprintln(w, "hash      policy        unique-rate  iters  dup-rate  iters")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-12s  %9.2fM  %5d  %6.2fM  %5d\n",
			r.HashName, r.Policy, r.RateM, r.Iters, r.DupRateM, r.DupIters)
	}
}

// WildcardHashRow reports the cost of supporting wildcards in the hash
// matcher (the §VI-C "theoretically possible" option, quantified).
type WildcardHashRow struct {
	WildcardPct float64
	RateM       float64
	RelToNone   float64
}

// AblationWildcardHash sweeps the source-wildcard fraction through the
// wildcard-capable hash matcher: the side list reintroduces serial
// work, so the rate collapses as wildcards grow — the quantitative
// argument for prohibiting them.
func AblationWildcardHash() []WildcardHashRow {
	const n = 1024
	fractions := []float64{0, 0.01, 0.05, 0.10, 0.25}
	var out []WildcardHashRow
	var base float64
	for _, f := range fractions {
		msgs, reqs := workload.Generate(workload.Config{
			N: n, Unique: true, Peers: 32, SrcWildcards: f, Seed: 7,
		})
		m, err := match.NewWildcardHashMatcher(match.HashConfig{CTAs: 32})
		if err != nil {
			panic(err)
		}
		res := mustMatch(m, msgs, reqs)
		r := mrate(res.Assignment.Matched(), res.SimSeconds)
		if f == 0 {
			base = r
		}
		out = append(out, WildcardHashRow{WildcardPct: 100 * f, RateM: r, RelToNone: r / base})
	}
	return out
}

// PrintAblationWildcardHash formats the wildcard-hash ablation.
func PrintAblationWildcardHash(w io.Writer, rows []WildcardHashRow) {
	header(w, "Ablation: wildcards in the hash matcher (§VI-C side-list option)")
	fmt.Fprintln(w, "wildcard%  matches/s  rel-to-none")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.1f%%  %8.2fM  %11.3f\n", r.WildcardPct, r.RateM, r.RelToNone)
	}
}

// WindowRow reports the scan-window ablation: the vote matrix width is
// a shared-memory / iteration-count trade the paper fixes implicitly
// (its matrix height is capped at 32 warps; the width is bounded by
// shared memory).
type WindowRow struct {
	Window int
	RateM  float64
}

// AblationWindow sweeps the matrix matcher's scan window at 1024
// elements.
func AblationWindow() []WindowRow {
	var out []WindowRow
	msgs, reqs := workload.FullyMatching(1024, 9)
	for _, win := range []int{32, 64, 96, 128} {
		m := match.NewMatrixMatcher(match.MatrixConfig{Window: win})
		res := mustMatch(m, msgs, reqs)
		out = append(out, WindowRow{Window: win, RateM: mrate(res.Assignment.Matched(), res.SimSeconds)})
	}
	return out
}

// PrintAblationWindow formats the window ablation.
func PrintAblationWindow(w io.Writer, rows []WindowRow) {
	header(w, "Ablation: scan-window width (vote-matrix shared-memory trade)")
	fmt.Fprintln(w, "window  matches/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d  %8.2fM\n", r.Window, r.RateM)
	}
}

// PrintAblations renders every ablation study in report order.
func PrintAblations(w io.Writer) {
	PrintAblationCompaction(w, AblationCompaction())
	PrintAblationMatchFraction(w, AblationMatchFraction())
	PrintOrderSensitivity(w, OrderSensitivity())
	PrintHashAblation(w, HashAblation())
	PrintAblationWildcardHash(w, AblationWildcardHash())
	PrintAblationWindow(w, AblationWindow())
}

// CommParRow reports the communicator-parallelism experiment (§VI's
// "top level" of parallelism, no relaxation needed).
type CommParRow struct {
	Comms   int
	RateM   float64
	Speedup float64
}

// CommParallel sweeps the communicator count at a fixed total load
// through the communicator-parallel engine: free speedup for apps like
// MiniDFT (7 communicators), nothing for the single-communicator
// majority — exactly the paper's observation.
func CommParallel() []CommParRow {
	const total = 1680
	var out []CommParRow
	var base float64
	for _, comms := range []int{1, 2, 4, 7} {
		var msgs []envelope.Envelope
		var reqs []envelope.Request
		for cm := 0; cm < comms; cm++ {
			m, r := workload.Generate(workload.Config{
				N: total / comms, Comm: envelope.Comm(cm), Seed: int64(10 + cm),
			})
			msgs = append(msgs, m...)
			reqs = append(reqs, r...)
		}
		cp := match.NewCommParallelMatcher(match.MatrixConfig{})
		res := mustMatch(cp, msgs, reqs)
		r := mrate(res.Assignment.Matched(), res.SimSeconds)
		if comms == 1 {
			base = r
		}
		out = append(out, CommParRow{Comms: comms, RateM: r, Speedup: r / base})
	}
	return out
}

// PrintCommParallel formats the communicator-parallelism experiment.
func PrintCommParallel(w io.Writer, rows []CommParRow) {
	header(w, "Communicator parallelism (§VI top level, full MPI semantics kept)")
	fmt.Fprintln(w, "comms  matches/s  speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d  %8.2fM  %6.2fx\n", r.Comms, r.RateM, r.Speedup)
	}
}
