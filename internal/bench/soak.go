// Open-loop soak SLOs in the regression suite: each profile runs a
// multi-seed soak (internal/soak) and contributes its latency
// quantiles, residency peaks, and cross-seed stability gate as tracked
// records, so a change that quietly worsens tail latency under load
// fails -regress exactly like a matching-rate regression would.
package bench

import (
	"fmt"

	"simtmp/internal/fault"
	"simtmp/internal/mpx"
	"simtmp/internal/soak"
)

// soakSeed is the default base seed for the soak profiles (the suite
// runs seed, seed+1, seed+2) — the paper's publication date, matching
// the chaos conformance matrix.
const soakSeed = 20170529

// soakMessages is the per-seed message count for regression profiles:
// large enough for stable p99.9 out of the exact records, small enough
// to keep -regress fast.
const soakMessages = 20_000

// SoakProfile names one tracked soak configuration. MaxSpread is the
// profile's cross-seed stability budget: the steady profile carries the
// beads-protocol 10% gate, while the heavy-tailed profiles get larger
// documented budgets — their tail quantiles disperse across seeds by
// construction (few burst episodes, rare retransmission spikes), and
// since the whole pipeline is deterministic the spread itself is a
// reproducible model property, not measurement noise. Same-seed replay
// variance is exactly zero and is pinned separately by the determinism
// tests in internal/soak.
type SoakProfile struct {
	Name      string
	Base      soak.Config
	MaxSpread float64
}

// SoakProfiles returns the tracked profiles. messages and seed override
// the defaults when positive / non-zero (the CLI smoke hooks). The
// MutateSoak mutation strips the overload profiles' queue caps: an
// uncapped run must fail -regress on exploded residency peaks and
// vanished shed counts, proving the overload gates actually bite.
func SoakProfiles(messages int, seed int64, mutate string) []SoakProfile {
	if messages <= 0 {
		messages = soakMessages
	}
	if seed == 0 {
		seed = soakSeed
	}
	base := soak.Config{
		Level:       mpx.Unordered,
		Seed:        seed,
		Messages:    messages,
		Warmup:      messages / 10,
		KeepRecords: true, // exact quantiles for the baseline
	}
	steady := base
	steady.Process = soak.Poisson
	steady.Utilization = 0.5

	stream := base
	stream.Level = mpx.StreamOrdered
	stream.Process = soak.Poisson
	stream.Utilization = 0.5

	bursty := base
	bursty.Process = soak.Bursty
	bursty.Utilization = 0.7

	faulty := base
	faulty.Process = soak.Poisson
	faulty.Utilization = 0.4
	faulty.Fault = &fault.Config{Seed: seed, Drop: 0.05}

	// Overload profiles: bounded queues + shed policy, offered load
	// pushed past capacity for the middle 30% of the run. The caps are
	// sized above the steady working set at the profiles' utilizations
	// so the steady phases run clean and only the overload excursion
	// sheds.
	overCaps := soak.OverloadConfig{UMQCap: 64, PRQCap: 256, StagingCap: 32}
	if mutate == MutateSoak {
		overCaps = soak.OverloadConfig{}
	}

	over15 := base
	over15.Process = soak.Poisson
	over15.Utilization = 0.4
	over15.Overload = overCaps
	over15.Overload.Factor = 1.5
	over15.Overload.Shed = mpx.ShedDropOldest

	over2 := base
	over2.Process = soak.Poisson
	over2.Utilization = 0.5
	over2.Overload = overCaps
	over2.Overload.Factor = 2.0
	over2.Overload.Shed = mpx.ShedReject

	slowFault := fault.SlowReceiverProfile(seed)
	overSlow := base
	overSlow.Process = soak.Poisson
	overSlow.Utilization = 0.5
	overSlow.Fault = &slowFault
	overSlow.Overload = overCaps
	overSlow.Overload.Shed = mpx.ShedDropNewest

	return []SoakProfile{
		// Poisson at half capacity: the baseline SLO, beads 10% gate.
		{"steady", steady, 0.10},
		// Same arrivals under StreamOrdered: the soak driver keeps all
		// traffic on the default stream, so this pins the stream engine's
		// latency when the relaxation is available but unused. The wire
		// is fault-free here, so frames arrive in per-flow order and the
		// SLO should track the steady profile closely.
		{"stream", stream, 0.15},
		// MMPP-2 at 70%: tail latency under bursts. ~8 burst episodes
		// per seed make the tail legitimately seed-sensitive (measured
		// spread ≈0.30); the budget allows 1.5× that.
		{"bursty", bursty, 0.45},
		// Lossy wire: the latency cost of retransmission. The tail is a
		// handful of RTO spikes per seed (measured spread ≈0.76).
		{"faulty", faulty, 0.90},
		// 1.5× overload, DropOldest: sheds park and retransmit; the
		// overload window's accepted-message tail dominates p99.9 and is
		// seed-sensitive, so the budget is generous — the hard gates for
		// these profiles are the caps_ok / shed_total / recovery records.
		{"overload/1.5x", over15, 0.90},
		// 2× overload, Reject: typed refusal at the staging cap; the
		// driver sheds client-side at the would-block probes.
		{"overload/2x", over2, 0.90},
		// Slow consumer at steady 0.5 utilization: drain-rate collapse
		// episodes (fault plane) back pressure up through ring credits
		// into staging sheds — overload without a rate excursion.
		{"overload/slow", overSlow, 0.90},
	}
}

// SoakResult is one profile's multi-seed outcome.
type SoakResult struct {
	Profile string
	Suite   *soak.SuiteReport
}

// RunSoak executes every tracked profile as a 3-seed suite. workers
// bounds the per-suite host fan-out (0 = GOMAXPROCS); results are
// identical either way. mutate is passed to SoakProfiles.
func RunSoak(workers, messages int, seed int64, mutate string) ([]SoakResult, error) {
	var out []SoakResult
	for _, p := range SoakProfiles(messages, seed, mutate) {
		sr, err := soak.RunSuite(soak.SuiteConfig{Base: p.Base, Workers: workers, MaxSpread: p.MaxSpread})
		if err != nil {
			return nil, fmt.Errorf("soak profile %s: %w", p.Name, err)
		}
		out = append(out, SoakResult{Profile: p.Name, Suite: sr})
	}
	return out, nil
}

// SoakRecords converts suite outcomes into tracked records:
// soak/<profile>/{p50,p99,p999}_us latency SLOs (lower is better),
// soak/<profile>/{prq,umq}_peak residency high-watermarks, and
// soak/<profile>/seed_spread_ok — the beads-style cross-seed stability
// gate (1 when the spread over 3 seeds stays within 10%), which turns a
// stability loss into a regression against any baseline that recorded 1.
func SoakRecords(results []SoakResult) []BenchRecord {
	slo := func(name string, v float64) BenchRecord {
		return BenchRecord{Name: name, Kind: KindSim, Value: v, Unit: "us", HigherIsBetter: false}
	}
	peak := func(name string, v int) BenchRecord {
		return BenchRecord{Name: name, Kind: KindSim, Value: float64(v), Unit: "msgs", HigherIsBetter: false}
	}
	boolRec := func(name string, v bool) BenchRecord {
		val := 0.0
		if v {
			val = 1
		}
		return BenchRecord{Name: name, Kind: KindSim, Value: val, Unit: "bool", HigherIsBetter: true}
	}
	var recs []BenchRecord
	for _, r := range results {
		pfx := "soak/" + r.Profile + "/"
		recs = append(recs,
			slo(pfx+"p50_us", r.Suite.P50),
			slo(pfx+"p99_us", r.Suite.P99),
			slo(pfx+"p999_us", r.Suite.P999),
			peak(pfx+"prq_peak", r.Suite.PRQPeak),
			peak(pfx+"umq_peak", r.Suite.UMQPeak),
			boolRec(pfx+"seed_spread_ok", r.Suite.SpreadOK),
		)
		recs = append(recs, overloadRecords(pfx, r.Suite.Runs)...)
	}
	return recs
}

// overloadRecords derives the overload-phase gates from a suite's
// per-seed reports (empty for profiles without an overload phase):
//
//   - caps_ok: 1 iff every seed kept both residency peaks under its
//     configured caps — the bounded-memory contract.
//   - shed_total: total sheds across seeds (driver-side arrivals shed
//     at typed backpressure + runtime-side sheds). Recorded as
//     higher-is-better on purpose: the record exists to prove the shed
//     machinery is exercising — turning the policy off (or inflating
//     the caps) makes the sheds vanish and fails the gate, while
//     runaway queue growth is caught by the peak records above.
//   - recovery_ok / recovery_s: whether every seed's post-overload p99
//     re-entered RecoveryFactor × steady p99, and the mean simulated
//     time that took — the recovery-time SLO.
func overloadRecords(pfx string, runs []*soak.Report) []BenchRecord {
	if len(runs) == 0 || runs[0].OverloadEnd == 0 {
		return nil
	}
	capsOK, shed, recovered, recAttempted := true, 0, true, false
	recSecs := 0.0
	for _, r := range runs {
		capsOK = capsOK && r.CapsOK
		shed += r.SheddedArrivals + r.Stats.Sheds
		if r.SteadyP99 > 0 {
			recAttempted = true
			recovered = recovered && r.Recovered
			recSecs += r.RecoverySimSeconds
		}
	}
	boolRec := func(name string, v bool) BenchRecord {
		val := 0.0
		if v {
			val = 1
		}
		return BenchRecord{Name: name, Kind: KindSim, Value: val, Unit: "bool", HigherIsBetter: true}
	}
	recs := []BenchRecord{
		boolRec(pfx+"caps_ok", capsOK),
		{Name: pfx + "shed_total", Kind: KindSim, Value: float64(shed), Unit: "msgs", HigherIsBetter: true},
	}
	if recAttempted {
		recs = append(recs, boolRec(pfx+"recovery_ok", recovered))
		if recovered {
			recs = append(recs, BenchRecord{
				Name: pfx + "recovery_s", Kind: KindSim,
				Value: recSecs / float64(len(runs)), Unit: "s", HigherIsBetter: false,
			})
		}
	}
	return recs
}
