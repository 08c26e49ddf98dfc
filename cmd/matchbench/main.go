// Command matchbench regenerates the paper's matching-rate figures and
// tables on the simulated GPUs: Figure 4 (MPI-compliant matrix),
// Figure 5 (rank-partitioned), Figure 6b (hash table), Table II (the
// relaxation summary), the ablation and extension studies, and the CPU
// matcher reference measured in real wall-clock. Pass -csv for
// machine-readable output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"simtmp/internal/bench"
	"simtmp/internal/conformance"
	"simtmp/internal/telemetry"
)

// section is one runnable experiment.
type section struct {
	flagName string
	help     string
	run      func(w io.Writer, csv bool) error
}

// sections lists every runnable experiment in report order.
func sections() []section {
	csvOr := func(rows any, print func(io.Writer)) func(w io.Writer, csv bool) error {
		return func(w io.Writer, csv bool) error {
			if csv {
				return bench.WriteCSV(w, rows)
			}
			print(w)
			return nil
		}
	}
	return []section{
		{"fig4", "Figure 4: single-CTA matrix matching rate", func(w io.Writer, csv bool) error {
			rows := bench.Figure4()
			return csvOr(rows, func(w io.Writer) { bench.PrintFigure4(w, rows) })(w, csv)
		}},
		{"fig5", "Figure 5: rank-partitioned matching rate", func(w io.Writer, csv bool) error {
			rows := bench.Figure5()
			if csv {
				return bench.WriteCSV(w, rows)
			}
			bench.PrintFigure5(w, rows)
			overK, overM := bench.Figure5Speedups()
			fmt.Fprintf(w, "average Pascal speedup: %.2fx over K80 (paper: 2.12x), %.2fx over M40 (paper: 1.56x)\n", overK, overM)
			return nil
		}},
		{"fig6b", "Figure 6b: hash-table matching rate", func(w io.Writer, csv bool) error {
			rows := bench.Figure6b()
			return csvOr(rows, func(w io.Writer) { bench.PrintFigure6b(w, rows) })(w, csv)
		}},
		{"table2", "Table II: relaxation summary", func(w io.Writer, csv bool) error {
			rows := bench.TableII()
			return csvOr(rows, func(w io.Writer) { bench.PrintTableII(w, rows) })(w, csv)
		}},
		{"cpu", "CPU matchers: list baseline vs hash bins (host wall-clock)", func(w io.Writer, csv bool) error {
			rows := bench.CPUReference()
			return csvOr(rows, func(w io.Writer) { bench.PrintCPUReference(w, rows) })(w, csv)
		}},
		{"applicability", "per-application engine applicability matrix", func(w io.Writer, csv bool) error {
			rows := bench.Applicability(1)
			return csvOr(rows, func(w io.Writer) { bench.PrintApplicability(w, rows) })(w, csv)
		}},
		{"stream", "sustained-load dynamics (offered vs delivered)", func(w io.Writer, csv bool) error {
			rows := bench.Streaming()
			return csvOr(rows, func(w io.Writer) { bench.PrintStreaming(w, rows) })(w, csv)
		}},
		{"msgsize", "message-size sweep (protocol + bandwidth)", func(w io.Writer, csv bool) error {
			rows := bench.MessageSizes()
			return csvOr(rows, func(w io.Writer) { bench.PrintMessageSizes(w, rows) })(w, csv)
		}},
		{"smsweep", "multi-SM scaling of the communication kernel", func(w io.Writer, csv bool) error {
			rows := bench.SMSweep()
			return csvOr(rows, func(w io.Writer) { bench.PrintSMSweep(w, rows) })(w, csv)
		}},
		{"endpoints", "CTA-endpoint scaling (the paper's motivation)", func(w io.Writer, csv bool) error {
			rows := bench.Endpoints()
			return csvOr(rows, func(w io.Writer) { bench.PrintEndpoints(w, rows) })(w, csv)
		}},
		{"commparallel", "communicator-level parallelism (§VI top level)", func(w io.Writer, csv bool) error {
			rows := bench.CommParallel()
			return csvOr(rows, func(w io.Writer) { bench.PrintCommParallel(w, rows) })(w, csv)
		}},
		{"streams", "MPIX stream scaling: stream-concurrent engine vs full-MPI matrix", func(w io.Writer, csv bool) error {
			rows := bench.StreamScaling()
			return csvOr(rows, func(w io.Writer) { bench.PrintStreamScaling(w, rows) })(w, csv)
		}},
		{"chaos", "chaos conformance: exactly-once delivery under fault injection", func(w io.Writer, csv bool) error {
			rows := bench.Chaos(1, 250)
			return csvOr(rows, func(w io.Writer) { bench.PrintChaos(w, rows) })(w, csv)
		}},
		{"ablation", "ablation studies (compaction, fraction, order, hash, wildcards, window)", func(w io.Writer, csv bool) error {
			if csv {
				for _, rows := range []any{
					bench.AblationCompaction(),
					bench.AblationMatchFraction(),
					bench.OrderSensitivity(),
					bench.HashAblation(),
					bench.AblationWildcardHash(),
					bench.AblationWindow(),
				} {
					if err := bench.WriteCSV(w, rows); err != nil {
						return err
					}
				}
				return nil
			}
			bench.PrintAblations(w)
			return nil
		}},
	}
}

// run is the testable entry point: it parses args (without the program
// name), writes results to stdout and diagnostics to stderr, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("matchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csvOut := fs.Bool("csv", false, "emit CSV instead of formatted tables")
	all := fs.Bool("all", false, "run everything")
	regress := fs.Bool("regress", false, "run the benchmark regression suite against the latest BENCH_*.json baseline")
	regressDir := fs.String("regress.dir", ".", "directory holding BENCH_*.json baselines")
	regressWrite := fs.Bool("regress.write", false, "write a fresh BENCH_<date>.json baseline after the -regress run")
	regressWall := fs.Bool("regress.wall", false, "also compare wall-clock records under -regress (host-dependent)")
	soakRun := fs.Bool("soak", false, "run the open-loop traffic soak profiles (per-message latency SLOs)")
	soakSeed := fs.Int64("soak.seed", 0, "with -soak: override the base seed (0 = the tracked default)")
	soakMessages := fs.Int("soak.messages", 0, "with -soak: per-seed message count (0 = the tracked default)")
	persistent := fs.Bool("persistent", false, "run the persistent-channel sweep (first-iteration cost, steady-state re-fire rate, cache hit rate)")
	mutate := fs.String("mutate", "", "apply a gate-validation mutation: "+mutationHelp()+
		"; -regress then exits 0 only if the family's records regress")
	var trace telemetry.CLIFlags
	trace.Register(fs)

	secs := sections()
	enabled := make(map[string]*bool, len(secs))
	for _, s := range secs {
		enabled[s.flagName] = fs.Bool(s.flagName, false, s.help)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var mut bench.Mutation
	if *mutate != "" {
		var ok bool
		if mut, ok = bench.LookupMutation(*mutate); !ok {
			fmt.Fprintf(stderr, "matchbench: unknown -mutate family %q (want %s)\n", *mutate, mutationHelp())
			return 2
		}
		if !*regress && !(*persistent && *mutate == bench.MutatePersist) && !(*soakRun && *mutate == bench.MutateSoak) {
			fmt.Fprintf(stderr, "matchbench: -mutate=%s needs -regress or its own family's mode\n", *mutate)
			return 2
		}
	}

	if *regress {
		return runRegress(stdout, stderr, *regressDir, *regressWrite, *regressWall, mut)
	}
	if *persistent {
		return runPersistent(stdout, stderr, *csvOut, *mutate)
	}
	if *soakRun {
		return runSoak(stdout, stderr, *csvOut, *soakSeed, *soakMessages, *mutate)
	}
	if trace.Active() {
		return trace.Run(stdout, stderr, "matchbench", func(cfg telemetry.Config) (*telemetry.Recorder, error) {
			return conformance.RunChaosTrace(trace.Seed, cfg)
		})
	}

	ran := false
	for _, s := range secs {
		if !*enabled[s.flagName] && !*all {
			continue
		}
		if err := s.run(stdout, *csvOut); err != nil {
			fmt.Fprintln(stderr, "matchbench:", err)
			return 1
		}
		if !*csvOut {
			fmt.Fprintln(stdout)
		}
		ran = true
	}
	if !ran {
		fs.Usage()
		return 2
	}
	return 0
}

// mutationHelp lists the -mutate families and what each breaks.
func mutationHelp() string {
	var parts []string
	for _, m := range bench.Mutations {
		parts = append(parts, m.Name+" ("+m.Effect+")")
	}
	return strings.Join(parts, ", ")
}

// runRegress executes the benchmark regression suite, compares it
// against the latest committed baseline in dir, and optionally writes
// the run as the new baseline. Exit codes: 0 clean, 1 regressions (or
// a missing baseline without -regress.write). Under a mutation (m is
// not the zero Mutation) the run checks the gate instead: 0 when at
// least one record of the mutated family regressed, 1 when none did;
// other families' regressions are printed but do not count.
func runRegress(stdout, stderr io.Writer, dir string, write, wall bool, m bench.Mutation) int {
	if write && m.Name != "" {
		fmt.Fprintf(stderr, "matchbench: refusing to bless a mutated run as a baseline; drop -mutate=%s\n", m.Name)
		return 2
	}
	rep := bench.RunRegress(0, m.Name)
	base, path, err := bench.LoadLatestBaseline(dir)
	if errors.Is(err, os.ErrNotExist) {
		if !write {
			fmt.Fprintf(stderr, "matchbench: no BENCH_*.json baseline in %s (rerun with -regress.write to create one)\n", dir)
			return 1
		}
		p, werr := bench.WriteBaseline(dir, rep)
		if werr != nil {
			fmt.Fprintln(stderr, "matchbench:", werr)
			return 1
		}
		fmt.Fprintf(stdout, "regress: wrote first baseline %s (%d records)\n", p, len(rep.Records))
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "matchbench:", err)
		return 1
	}
	regs := bench.Compare(base, rep, bench.Tolerance, wall)
	bench.PrintRegress(stdout, rep, path, regs)
	if m.Name != "" {
		tripped := 0
		for _, r := range regs {
			if strings.HasPrefix(r.Name, m.Prefix) {
				tripped++
			}
		}
		fmt.Fprintf(stdout, "mutate %s: %d %s* records regressed\n", m.Name, tripped, m.Prefix)
		if tripped == 0 {
			fmt.Fprintf(stderr, "matchbench: mutation %s moved no %s* record; that gate cannot fail\n", m.Name, m.Prefix)
			return 1
		}
		return 0
	}
	if write {
		p, werr := bench.WriteBaseline(dir, rep)
		if werr != nil {
			fmt.Fprintln(stderr, "matchbench:", werr)
			return 1
		}
		fmt.Fprintf(stdout, "regress: wrote baseline %s\n", p)
	}
	if len(regs) > 0 {
		return 1
	}
	return 0
}

// runPersistent executes the persistent-channel iteration sweep — the
// -persistent mode: per iteration count, the first-iteration
// (full-engine match + seal) cost, the steady-state O(1) re-fire rate,
// the cache hit rate and the speedup over matching every iteration.
func runPersistent(stdout, stderr io.Writer, csv bool, mutate string) int {
	rows, err := bench.PersistSweep(mutate)
	if err != nil {
		fmt.Fprintln(stderr, "matchbench:", err)
		return 1
	}
	if csv {
		if err := bench.WriteCSV(stdout, rows); err != nil {
			fmt.Fprintln(stderr, "matchbench:", err)
			return 1
		}
		return 0
	}
	bench.PrintPersistSweep(stdout, rows)
	return 0
}

// runSoak executes the tracked open-loop soak profiles and prints
// their latency SLOs; -regress gates the same soak/* records against
// the baseline. seed and messages override the defaults for smoke
// runs. Exit codes: 0 clean, 1 on a tripped cross-seed spread budget
// or run failure.
func runSoak(stdout, stderr io.Writer, csv bool, seed int64, messages int, mutate string) int {
	results, err := bench.RunSoak(0, messages, seed, mutate)
	if err != nil {
		fmt.Fprintln(stderr, "matchbench:", err)
		return 1
	}

	if csv {
		if err := bench.WriteCSV(stdout, bench.SoakRecords(results)); err != nil {
			fmt.Fprintln(stderr, "matchbench:", err)
			return 1
		}
	} else {
		for _, r := range results {
			s := r.Suite
			fmt.Fprintf(stdout, "soak/%-7s p50 %8.2fus  p99 %8.2fus  p99.9 %8.2fus  PRQ peak %5d  UMQ peak %3d  spread %5.1f%%\n",
				r.Profile, s.P50, s.P99, s.P999, s.PRQPeak, s.UMQPeak, 100*s.Spread)
		}
	}

	// The stability budgets are calibrated at the tracked profile size,
	// so only a default-configuration run is held to them; smoke runs
	// with -soak.seed/-soak.messages just report their spread.
	code := 0
	if seed == 0 && messages == 0 {
		for _, r := range results {
			if !r.Suite.SpreadOK {
				fmt.Fprintf(stderr, "matchbench: soak profile %s cross-seed spread %.1f%% exceeds its stability budget\n",
					r.Profile, 100*r.Suite.Spread)
				code = 1
			}
		}
	}
	return code
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
