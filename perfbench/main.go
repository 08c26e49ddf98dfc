// Command perfbench is the repository benchmark: closed-loop rounds of
// the mpx runtime on three workloads, reporting host-clock and
// simulated-clock end-to-end metrics (--trace 0) or per-layer metrics
// from a traced run (--trace 1). See README.md beside it.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fullmpi-wildcard --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The command exits 1 on
// any correctness, coverage or simulated-identity failure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// buildCommit is the git commit of the checkout ("none" outside a git
// work tree), set at link time by run.sh.
var buildCommit string

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fullmpi-wildcard, unordered-lossy or persistent-halo")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "seconds of timed rounds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "traces"), "directory for the traced run's span and CPU profile files")
	digests := fs.String("write-digests", "", "record the simulated digests of the default seeds into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	env, err := fingerprint()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	envJSON, _ := json.Marshal(env) // plain struct of strings and ints
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	if *digests != "" {
		if err := writeDigests(*digests, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	s, ok := lookup(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	b := &bench{spec: s, seed: *seed, out: stdout}
	if *trace == 1 {
		err = b.traced(budget, *out)
	} else {
		err = b.endToEnd(budget)
	}
	if err != nil {
		b.tl.fail("%v", err)
	}
	if b.tl.first != "" {
		fmt.Fprintf(stdout, "FAIL %s: %d of %d operations failed; first: %s\n", s.name, b.tl.failed, b.tl.attempted, b.tl.first)
	}
	res := result{
		Correct:   b.tl.failed == 0,
		Attempted: max(b.tl.attempted, 1),
		Failed:    b.tl.failed,
		Metrics:   b.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, s := range specs {
		n = append(n, s.name)
	}
	return strings.Join(n, ", ")
}

// bench is one run of one workload.
type bench struct {
	spec    spec
	seed    int64
	out     io.Writer
	tl      tally
	metrics map[string]metric
}

func (b *bench) set(name string, v float64, unit string) {
	if b.metrics == nil {
		b.metrics = map[string]metric{}
	}
	if v != v { // NaN: a ratio over nothing
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// setUp builds the workload for a phase of rounds and returns it with
// its set-up time.
func (b *bench) setUp(measureAllocs bool) (workload, float64, error) {
	w, d, err := setup(b.spec, b.seed, measureAllocs, &b.tl)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return w, d.Seconds(), nil
}

// extraSetUp is runPhase's pause between timed rounds: one more set-up
// of the workload, timed and then dropped, so that setup_s samples the
// host across the whole run rather than in one burst at its start.
func (b *bench) extraSetUp(times *[]float64) func() {
	return func() {
		// A tally of its own keeps its warm-up receives out of the
		// phase's wildcard count.
		var tl tally
		_, d, err := setup(b.spec, b.seed, false, &tl)
		b.tl.attempted += tl.attempted
		b.tl.failed += tl.failed
		if b.tl.first == "" {
			b.tl.first = tl.first
		}
		if err != nil {
			b.tl.fail("set-up: %v", err)
			return
		}
		*times = append(*times, d.Seconds())
	}
}

// checkPhase runs the workload's coverage check and the
// simulated-identity check on a finished phase.
func (b *bench) checkPhase(w workload, p *phase) {
	if msg := b.spec.covered(p.delta(), p.wildcards); msg != "" {
		b.tl.fail("coverage: %s %s", b.spec.name, msg)
	}
	got := simDigest(p.digest)
	want, ok, err := recorded(b.spec.name, b.seed)
	status := "unrecorded seed"
	switch {
	case err != nil:
		status = err.Error()
		b.tl.fail("simulated identity: %v", err)
	case ok && want == got:
		status = "matches recorded"
	case ok:
		status = "MISMATCH, recorded " + want
		b.tl.fail("simulated identity: digest %s, recorded %s", got, want)
	}
	st := p.digest
	fmt.Fprintf(b.out, "sim-digest %s seed=%d rounds=%d: %s (%s) matches=%d sim_s=%.9g iterations=%d instructions=%d bytes_moved=%d\n",
		b.spec.name, b.seed, w.warmup()+digestRounds, got, status,
		st.Matches, st.SimSeconds, st.Iterations, st.Counters.Instructions(), st.BytesMoved)
}

// endToEnd is the untraced run: set-ups, then timed rounds.
func (b *bench) endToEnd(budget time.Duration) error {
	w, d, err := b.setUp(false)
	if err != nil {
		return err
	}
	setups := []float64{d}
	p, err := runPhase(w, w.warmup(), budget, nil, nil, b.extraSetUp(&setups), &b.tl)
	if err != nil {
		return err
	}
	setupS := median(setups)
	fmt.Fprintf(b.out, "warmup %s: %d rounds per set-up, %d set-ups, set-up seconds %v\n",
		b.spec.name, w.warmup(), len(setups), setups)
	b.checkPhase(w, p)
	rs := p.stats()
	b.checkLate(rs.late)
	rounds, wall := p.rounds(), p.wall()
	// The round log grows with the round count; drop it before the
	// allocation window and the live-heap measurement.
	p.durs = nil
	a, err := allocWindow(w, p.next, &b.tl)
	if err != nil {
		return err
	}
	b.checkAllocs(a)
	heap := liveHeapMiB()

	b.set("msgs_per_s", rs.rate, "msg/s")
	b.set("live_heap_mb", heap, "MiB")
	b.set("setup_s", setupS, "s")

	name := b.spec.name
	fmt.Fprintf(b.out, "rounds %s: %d timed rounds of %d messages in %.3f s of round time; first/last quarter median round time %.3g\n",
		name, rounds, w.msgsPerRound(), wall, rs.late)
	for _, l := range []struct {
		k    string
		v    float64
		unit string
		note string
	}{
		{"msgs_per_s", rs.rate, "msg/s", fmt.Sprintf(" (all but the slowest %.0f%% of rounds; all rounds %.6g)", 100*trimShare, rs.allRate)},
		{"round_p50_us", float64(rs.p50) / 1e3, "us", ""},
		{"round_p99_us", float64(rs.p99) / 1e3, "us", fmt.Sprintf(" (%d rounds, %d beyond p99)", rounds, rs.beyond)},
		{"allocs_per_msg", a.perMsg(), "alloc/msg", fmt.Sprintf(" (%d-round window; ceiling %.6g)", a.rounds, b.spec.maxAllocs)},
		{"alloc_bytes_per_msg", a.bytesPerMsg(), "B/msg", fmt.Sprintf(" (%d-round window; ceiling %.6g)", a.rounds, b.spec.maxAllocBytes)},
		{"live_heap_mb", heap, "MiB", ""},
		{"setup_s", setupS, "s", fmt.Sprintf(" (median of %d set-ups)", len(setups))},
		{"sim_matches_per_s", p.digest.Rate(), "match/sim-s", " (simulated clock, exact per seed)"},
		{"failed_ops_frac", ratio(float64(b.tl.failed), float64(b.tl.attempted)), "frac", ""},
	} {
		fmt.Fprintf(b.out, "e2e %s %-20s %.6g %s%s\n", name, l.k, l.v, l.unit, l.note)
	}
	return nil
}

// checkLate fails a run whose rounds slowed down as it went on: a
// per-round cost that grows with the run.
func (b *bench) checkLate(late float64) {
	if late < minLateRate {
		b.tl.fail("rate decay: %s's last quarter ran at %.3g of its first quarter's median round rate (floor %g)",
			b.spec.name, late, minLateRate)
	}
}

// checkAllocs fails a run whose allocation window allocated more per
// message than the workload's ceiling.
func (b *bench) checkAllocs(a allocs) {
	s := b.spec
	if a.perMsg() > s.maxAllocs || a.bytesPerMsg() > s.maxAllocBytes {
		b.tl.fail("allocations: %s allocated %.6g objects and %.6g B per message over %d rounds; ceilings %.6g and %.6g",
			s.name, a.perMsg(), a.bytesPerMsg(), a.rounds, s.maxAllocs, s.maxAllocBytes)
	}
}

// traced is the per-layer run: an untraced phase on one runtime, then
// a traced phase (spans, pprof labels, CPU profile, layer replays) on a
// second runtime that also samples Drain's allocations.
func (b *bench) traced(budget time.Duration, outDir string) error {
	name := b.spec.name
	wu, _, err := b.setUp(false)
	if err != nil {
		return err
	}
	pu, err := runPhase(wu, wu.warmup(), budget*2/5, nil, nil, nil, &b.tl)
	if err != nil {
		return err
	}
	b.checkPhase(wu, pu)
	rsU := pu.stats()
	b.checkLate(rsU.late)
	a, err := allocWindow(wu, pu.next, &b.tl)
	if err != nil {
		return err
	}
	b.checkAllocs(a)

	wt, _, err := b.setUp(true)
	if err != nil {
		return err
	}
	tr := newTracer(name)
	rp := newReplayer(wt.level())
	// Grow the replay engines' scratch before measuring them.
	rp.replay(nil, wt.traffic(0), true, 1, &b.tl)
	rp.tot = replayTotals{}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, b.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	pt, err := runPhase(wt, wt.warmup(), budget*3/5, tr, rp, nil, &b.tl)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.checkPhase(wt, pt)
	if err := tr.writeSpans(base + ".trace.json"); err != nil {
		return err
	}
	tr.writeTable(b.out, name)
	fmt.Fprintf(b.out, "trace %s: spans %s.trace.json (%d kept, %d past the cap), CPU profile %s.cpu.pprof (pprof labels workload, layer)\n",
		name, base, len(tr.spans), tr.dropped, base)

	dt := pt.delta()
	msgsU, msgsT := float64(pu.msgs), float64(pt.msgs)
	matches := float64(dt.Matches)
	roundsT := float64(pt.rounds())
	persistent := dt.PersistentRecvs > 0

	b.set("mpx.send_ns", tr.nsPerOp(lSend), "ns")
	b.set("mpx.post_ns", tr.nsPerOp(lPost), "ns")
	b.set("mpx.drain_ns_per_msg", float64(tr.total[lDrain])/msgsT, "ns/msg")
	b.set("mpx.read_ns", tr.nsPerOp(lRead), "ns")
	b.set("mpx.steps_per_round", float64(dt.ProgressSteps)/roundsT, "steps/round")
	b.set("mpx.drain_allocs_per_msg", float64(dt.DrainAllocs)/msgsT, "alloc/msg")
	b.set("mpx.unexpected_frac", 1-ratio(float64(dt.PrePostedMsgs), matches), "frac")

	b.set("reliable.retx_per_msg", ratio(float64(dt.Retries), matches), "count/msg")
	b.set("reliable.dups_per_msg", ratio(float64(dt.Duplicates), matches), "count/msg")
	b.set("reliable.acks_per_msg", ratio(float64(dt.Acks), matches), "count/msg")
	b.set("reliable.goodput_ratio", ratio(matches, float64(dt.Sends+dt.Retries)), "frac")
	b.set("reliable.credit_stalls_per_msg", ratio(float64(dt.CreditStalls), matches), "count/msg")

	calls := float64(rp.tot.matchCalls)
	b.set("match.calls_per_round", calls/roundsT, "calls/round")
	b.set("match.ns_per_call", ratio(float64(rp.tot.matchNs), calls), "ns/call")
	b.set("match.allocs_per_call", ratio(float64(rp.tot.matchAllocs), calls), "alloc/call")
	b.set("match.sim_instr_per_call", ratio(float64(rp.tot.matchInstr), calls), "instr/call")
	b.set("match.sim_us_per_call", ratio(rp.tot.matchSim*1e6, calls), "us/call")
	b.set("match.host_ns_per_sim_instr", ratio(float64(rp.tot.matchNs), float64(rp.tot.matchInstr)), "ns/instr")

	b.set("simt.launch_ns", ratio(float64(rp.tot.launchNs), float64(rp.tot.launches)), "ns")
	b.set("simt.allocs_per_launch", ratio(float64(rp.tot.launchAllocs), float64(rp.tot.launches)), "alloc/launch")
	b.set("simt.shared_access_ns", ratio(float64(rp.tot.sharedNs), float64(rp.tot.sharedOps)), "ns")
	b.set("simt.ballot_ns", ratio(float64(rp.tot.ballotNs), float64(rp.tot.ballots)), "ns")

	b.set("queue.compact_ns", ratio(float64(rp.tot.compactNs), float64(rp.tot.compacts)), "ns")
	b.set("queue.compact_allocs", ratio(float64(rp.tot.compactAllocs), float64(rp.tot.compacts)), "alloc/call")

	b.set("envelope.pack_ns", ratio(float64(rp.tot.packNs), float64(rp.tot.envOps)), "ns")
	b.set("envelope.unpack_ns", ratio(float64(rp.tot.unpackNs), float64(rp.tot.envOps)), "ns")
	b.set("envelope.match_packed_ns", ratio(float64(rp.tot.matchPackedNs), float64(rp.tot.matchPackedOps)), "ns")

	b.set("gas.put_ns", ratio(float64(rp.tot.putNs), float64(rp.tot.gasMsgs)), "ns")
	b.set("gas.drain_ns_per_msg", ratio(float64(rp.tot.drainNs), float64(rp.tot.gasMsgs)), "ns/msg")
	b.set("gas.allocs_per_msg", ratio(float64(rp.tot.gasAllocs), float64(rp.tot.gasMsgs)), "alloc/msg")
	b.set("ring.push_pop_ns", ratio(float64(rp.tot.ringNs), float64(rp.tot.ringOps)), "ns")

	b.set("fault.injected_per_msg", float64(pt.injected())/msgsT, "count/msg")

	hits, misses := float64(dt.CacheHits), float64(dt.CacheMisses)
	b.set("persist.hit_ratio", ratio(hits, hits+misses), "frac")
	refire, iterAllocs := 0.0, 0.0
	if persistent {
		refire = float64(tr.total[lPost]+tr.total[lSend]+tr.total[lDrain]) / msgsT
		iterAllocs = float64(a.mallocs) / float64(a.rounds)
	}
	b.set("persist.refire_ns_per_msg", refire, "ns/msg")
	b.set("persist.allocs_per_iter", iterAllocs, "alloc/iter")

	b.set("gc.cycles_per_kmsg", float64(pu.gcs)/(msgsU/1000), "gc/kmsg")
	b.set("gc.cpu_frac", ratio(pu.gcCPU, pu.cpu), "frac")

	// The end-to-end figures that cannot carry a bound (see README.md),
	// from the untraced phase.
	b.set("round_p50_us", float64(rsU.p50)/1e3, "us")
	b.set("round_p99_us", float64(rsU.p99)/1e3, "us")
	b.set("allocs_per_msg", a.perMsg(), "alloc/msg")
	b.set("alloc_bytes_per_msg", a.bytesPerMsg(), "B/msg")
	b.set("sim_matches_per_s", pu.digest.Rate(), "match/sim-s")
	b.set("failed_ops_frac", ratio(float64(b.tl.failed), float64(b.tl.attempted)), "frac")

	// What msgs_per_s leaves out, and the rate-decay ratio.
	b.set("host.all_rounds_msgs_per_s", rsU.allRate, "msg/s")
	b.set("host.late_over_early_rate", rsU.late, "ratio")

	// The traced rate counts round time only, not the replays.
	b.set("trace.overhead_frac", 1-pt.stats().rate/rsU.rate, "frac")
	var replayed int64
	for _, l := range replayLayers {
		replayed += tr.total[l]
	}
	b.set("trace.replay_coverage", ratio(float64(replayed), float64(tr.total[lProgress]+tr.total[lDrain])), "frac")
	return nil
}

// envFingerprint identifies what produced a run, after the
// benchmark-validation protocol: commit, the digest of the sources the
// binary was freshly built from (run.sh rebuilds before every run), the
// binary itself, toolchain and parallelism.
type envFingerprint struct {
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_sha256"`
	BinarySHA256 string `json:"binary_sha256"`
	Go           string `json:"go"`
	OS           string `json:"os"`
	Arch         string `json:"arch"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
}

func fingerprint() (envFingerprint, error) {
	e := envFingerprint{
		Commit: buildCommit, Go: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	if e.Commit == "" {
		e.Commit = "unknown (not built by run.sh)"
	}
	src, err := sourceDigest(".")
	if err != nil {
		return e, fmt.Errorf("source digest: %w", err)
	}
	e.SourceDigest = src
	exe, err := os.Executable()
	if err == nil {
		e.BinarySHA256, err = fileSHA256(exe)
	}
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return e, fmt.Errorf("binary digest: %w", err)
	}
	return e, nil
}
