package conformance

import (
	"flag"
	"testing"

	"simtmp/internal/fault"
	"simtmp/internal/mpx"
)

var chaosSeed = flag.Int64("chaos.seed", 1, "seed for the chaos conformance run")

// simStats drops the one host wall-clock counter from aggregated stats,
// leaving what a seeded run must reproduce bit for bit at any host
// fan-out.
func simStats(s mpx.Stats) mpx.Stats {
	s.DrainWallSeconds = 0
	return s
}

// TestChaosConformance is the acceptance gate: ≥1000 seeded workloads
// per semantic level (hence per matching engine) under the full fault
// mix, every one delivering exactly once, and every enabled fault
// class leaving a nonzero trace in the aggregated stats.
func TestChaosConformance(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 120
	}
	mix := ChaosMix()
	for _, rep := range RunChaos(*chaosSeed, n, mix) {
		rep := rep
		t.Run(rep.Level.String(), func(t *testing.T) {
			for i, f := range rep.Failures {
				if i >= 5 {
					t.Errorf("... and %d more failures", len(rep.Failures)-i)
					break
				}
				t.Error(f.String())
			}
			if len(rep.Failures) > 0 {
				return
			}
			if err := CheckChaosCoverage(rep, mix); err != nil {
				t.Error(err)
			}
			if rep.Stats.Matches != rep.Messages {
				t.Errorf("matches %d != messages sent %d", rep.Stats.Matches, rep.Messages)
			}
			t.Logf("%s engine: %d workloads, %d msgs, retries %d drops %d corrupt %d dups %d stallsteps %d",
				rep.Engine, rep.Workloads, rep.Messages, rep.Stats.Retries,
				rep.Stats.Drops, rep.Stats.Corrupt, rep.Stats.Duplicates, rep.Stats.StallSteps)
		})
	}
}

// TestChaosWorkloadReplayDeterminism: the replay handle reproduces a
// workload bit-for-bit — same stats, same verdict. Host wall-clock
// metering (Stats.DrainWallSeconds) is inherently non-deterministic
// and sits outside the simulated-determinism contract, so it is
// normalized before comparing.
func TestChaosWorkloadReplayDeterminism(t *testing.T) {
	mix := ChaosMix()
	for _, level := range ChaosLevels() {
		for i := 0; i < 5; i++ {
			s1, n1, e1 := ChaosWorkload(level, 77, i, mix)
			s2, n2, e2 := ChaosWorkload(level, 77, i, mix)
			s1.DrainWallSeconds, s2.DrainWallSeconds = 0, 0
			if s1 != s2 || n1 != n2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("%v workload %d replay diverged:\n%+v %d %v\n%+v %d %v",
					level, i, s1, n1, e1, s2, n2, e2)
			}
		}
	}
}

// TestChaosSingleFaultClasses isolates each fault class: the reliable
// layer must deliver exactly-once under each one alone, not only under
// the blended mix (which can mask a class-specific bug).
func TestChaosSingleFaultClasses(t *testing.T) {
	classes := map[string]fault.Config{
		"drop":      {Drop: 0.15},
		"duplicate": {Duplicate: 0.15},
		"corrupt":   {Corrupt: 0.15},
		"delay":     {Delay: 0.2, MaxDelaySteps: 6},
		"ackdrop":   {AckDrop: 0.3},
		"stall":     {Stall: 0.08},
		"starve":    {CreditStarve: 0.1},
	}
	for name, mix := range classes {
		mix := mix
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 40; i++ {
				if _, _, err := ChaosWorkload(mpx.FullMPI, 9, i, mix); err != nil {
					t.Fatalf("workload %d under %s-only faults: %v", i, name, err)
				}
			}
		})
	}
}

// TestChaosBackpressure is the overload conformance gate: seeded
// workloads per level with bounded staging/UMQ/PRQ and a randomized
// shed policy under the backpressure fault brew. Every accepted
// message delivers exactly once, every refusal is the typed
// ErrBackpressure the runtime also counted, every drop-policy shed is
// recovered before the drain settles, and the aggregated stats prove
// the machinery was exercised rather than idle.
func TestChaosBackpressure(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 120
	}
	mix := ChaosBackpressureMix()
	for _, rep := range RunChaosBackpressure(*chaosSeed, n, mix, 0) {
		rep := rep
		t.Run(rep.Level.String(), func(t *testing.T) {
			for i, f := range rep.Failures {
				if i >= 5 {
					t.Errorf("... and %d more failures", len(rep.Failures)-i)
					break
				}
				t.Error(f.String())
			}
			if len(rep.Failures) > 0 {
				return
			}
			if err := CheckBackpressureCoverage(rep, mix); err != nil {
				t.Error(err)
			}
			// Accepted messages all matched; refused ones never entered.
			if rep.Stats.Matches != rep.Messages-rep.Stats.ShedRejects {
				t.Errorf("matches %d != sends %d - rejects %d",
					rep.Stats.Matches, rep.Messages, rep.Stats.ShedRejects)
			}
			t.Logf("%s engine: %d workloads, %d msgs, sheds %d (rejects %d, drops %d, recovered %d), nacks %d, credit stalls %d, transitions %d, slow drains %d",
				rep.Engine, rep.Workloads, rep.Messages, rep.Stats.Sheds,
				rep.Stats.ShedRejects, rep.Stats.ShedDrops, rep.Stats.ShedRecovered,
				rep.Stats.Nacks, rep.Stats.CreditStalls, rep.Stats.StateTransitions,
				rep.Stats.SlowDrains)
		})
	}
}

// TestChaosBackpressureReplayDeterminism: the backpressure replay
// handle reproduces a workload bit-for-bit, shed decisions included.
func TestChaosBackpressureReplayDeterminism(t *testing.T) {
	mix := ChaosBackpressureMix()
	for _, level := range ChaosLevels() {
		for i := 0; i < 5; i++ {
			s1, n1, e1 := ChaosBackpressureWorkload(level, 77, i, mix)
			s2, n2, e2 := ChaosBackpressureWorkload(level, 77, i, mix)
			s1.DrainWallSeconds, s2.DrainWallSeconds = 0, 0
			if s1 != s2 || n1 != n2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("%v backpressure workload %d replay diverged:\n%+v %d %v\n%+v %d %v",
					level, i, s1, n1, e1, s2, n2, e2)
			}
		}
	}
}

// TestRunChaosBackpressureParallelMatchesSequential extends the
// sharding-invariance pin to the backpressure runner: shed decisions
// and recovery counts merge identically regardless of host fan-out.
func TestRunChaosBackpressureParallelMatchesSequential(t *testing.T) {
	const n = 40
	mix := ChaosBackpressureMix()
	seq := RunChaosBackpressure(99, n, mix, 1)
	par := RunChaosBackpressure(99, n, mix, 4)
	if len(seq) != len(par) {
		t.Fatalf("report counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Level != p.Level || s.Messages != p.Messages || simStats(s.Stats) != simStats(p.Stats) {
			t.Errorf("%v: reports diverge:\n%+v\n%+v", s.Level, s.Stats, p.Stats)
		}
		if len(s.Failures) != len(p.Failures) {
			t.Errorf("%v: failure counts differ: %d vs %d", s.Level, len(s.Failures), len(p.Failures))
		}
	}
}

// TestRunChaosParallelMatchesSequential: sharding the chaos workloads
// across a host worker pool must not change the reports — same
// aggregated stats, same message counts, same failures in the same
// order — because each workload is deterministic per (seed, index,
// level) and results merge in index order.
func TestRunChaosParallelMatchesSequential(t *testing.T) {
	const n = 40
	mix := ChaosMix()
	seq := RunChaosParallel(99, n, mix, 1)
	par := RunChaosParallel(99, n, mix, 4)
	if len(seq) != len(par) {
		t.Fatalf("report counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Level != p.Level || s.Workloads != p.Workloads || s.Messages != p.Messages {
			t.Errorf("%v: headline fields diverge: %+v vs %+v", s.Level, s, p)
		}
		if simStats(s.Stats) != simStats(p.Stats) {
			t.Errorf("%v: stats diverge:\n%+v\n%+v", s.Level, s.Stats, p.Stats)
		}
		if len(s.Failures) != len(p.Failures) {
			t.Fatalf("%v: failure counts differ: %d vs %d", s.Level, len(s.Failures), len(p.Failures))
		}
		for j := range s.Failures {
			if s.Failures[j].String() != p.Failures[j].String() {
				t.Errorf("%v: failure %d differs:\n%s\n%s", s.Level, j, s.Failures[j], p.Failures[j])
			}
		}
	}
}
