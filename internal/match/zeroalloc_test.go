package match

import (
	"testing"

	"simtmp/internal/arch"
	"simtmp/internal/telemetry"
	"simtmp/internal/workload"
)

// reusableCases builds steady-state MatchInto cases per GPU engine on
// representative workloads, each both telemetry-disabled (nil
// recorder) and telemetry-enabled with a small ring that wraps within
// warm-up: a full flight-recorder ring overwrites in place, so enabling
// telemetry must not reintroduce steady-state allocations. Beside the
// default configurations, the cases cover the compaction kernel
// (Compact: true, the mode the runtime uses), multi-SM wave combining
// (SMs: 4) and explicit host parallelism (Workers: 2). The last matters
// because testing.AllocsPerRun pins GOMAXPROCS to 1, so Workers: 0
// resolves to the sequential loop and never reaches the ParallelFor
// helpers.
func reusableCases() []struct {
	name string
	m    ReusableMatcher
	run  func(res *Result) error
} {
	a := arch.PascalGTX1080()
	fullMsgs, fullReqs := workload.FullyMatching(256, 1)
	partMsgs, partReqs := workload.Generate(workload.Config{N: 1024, Peers: 64, Tags: 32, Seed: 1})
	uniqMsgs, uniqReqs := workload.UniqueTuples(1024, 1)

	type c = struct {
		name string
		m    ReusableMatcher
		run  func(res *Result) error
	}
	var cases []c
	for _, traced := range []bool{false, true} {
		var rec *telemetry.Recorder
		suffix := ""
		if traced {
			// A deliberately tiny ring: one warm-up call fills it, so the
			// measured calls exercise the at-capacity overwrite path.
			rec = telemetry.New(telemetry.Config{Enabled: true, Tracks: 1, BufferSize: 16})
			suffix = "+telemetry"
		}
		{
			m := NewMatrixMatcher(MatrixConfig{Arch: a, Recorder: rec})
			cases = append(cases, c{"matrix" + suffix, m, func(res *Result) error {
				return m.MatchInto(res, fullMsgs, fullReqs)
			}})
		}
		{
			m := NewPartitionedMatcher(PartitionedConfig{Arch: a, Queues: 8, MaxCTAs: 2, Recorder: rec})
			cases = append(cases, c{"partitioned" + suffix, m, func(res *Result) error {
				return m.MatchInto(res, partMsgs, partReqs)
			}})
		}
		{
			m := MustHashMatcher(HashConfig{Arch: a, CTAs: 4, Recorder: rec})
			cases = append(cases, c{"hash" + suffix, m, func(res *Result) error {
				return m.MatchInto(res, uniqMsgs, uniqReqs)
			}})
		}
	}
	matrix := func(name string, cfg MatrixConfig) {
		cfg.Arch = a
		m := NewMatrixMatcher(cfg)
		cases = append(cases, c{name, m, func(res *Result) error {
			return m.MatchInto(res, fullMsgs, fullReqs)
		}})
	}
	partitioned := func(name string, cfg PartitionedConfig) {
		cfg.Arch, cfg.Queues, cfg.MaxCTAs = a, 8, 2
		m := NewPartitionedMatcher(cfg)
		cases = append(cases, c{name, m, func(res *Result) error {
			return m.MatchInto(res, partMsgs, partReqs)
		}})
	}
	matrix("matrix+compact", MatrixConfig{Compact: true})
	matrix("matrix+workers2", MatrixConfig{Workers: 2})
	matrix("matrix+compact+workers2", MatrixConfig{Compact: true, Workers: 2})
	// 4096 messages over 4 CTAs per round, one per SM.
	bigMsgs, bigReqs := workload.FullyMatching(4096, 1)
	{
		m := NewMatrixMatcher(MatrixConfig{Arch: a, MaxCTAs: 4, SMs: 4})
		cases = append(cases, c{"matrix+sms4", m, func(res *Result) error {
			return m.MatchInto(res, bigMsgs, bigReqs)
		}})
	}
	partitioned("partitioned+compact", PartitionedConfig{Compact: true})
	partitioned("partitioned+workers2", PartitionedConfig{Workers: 2})
	{
		m := MustHashMatcher(HashConfig{Arch: a, CTAs: 4, Workers: 2})
		cases = append(cases, c{"hash+workers2", m, func(res *Result) error {
			return m.MatchInto(res, uniqMsgs, uniqReqs)
		}})
	}
	return cases
}

// TestMatchIntoZeroAlloc asserts the steady-state zero-allocation
// contract: after one warm-up call grows the scratch buffers, repeated
// MatchInto calls on the same shape allocate nothing.
func TestMatchIntoZeroAlloc(t *testing.T) {
	for _, c := range reusableCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var res Result
			if err := c.run(&res); err != nil { // warm scratch
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := c.run(&res); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: MatchInto allocates %v per steady-state call, want 0", c.name, allocs)
			}
		})
	}
}

// BenchmarkMatchInto is the benchmark-backed form of the contract:
// run with -benchmem to see ns/op and allocs/op per engine.
func BenchmarkMatchInto(b *testing.B) {
	for _, c := range reusableCases() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var res Result
			if err := c.run(&res); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.run(&res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
