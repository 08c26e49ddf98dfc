// Command experiments runs the complete reproduction — every table,
// figure and ablation of the paper — and prints one consolidated
// report (the source of EXPERIMENTS.md's measured columns). Pass
// -trace-only for just the quick trace-statistics sections (Table I,
// Figure 2, Figure 6a, application sizes, Table II).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"simtmp/internal/bench"
	"simtmp/internal/conformance"
	"simtmp/internal/telemetry"
)

// traceReport prints the trace-derived statistics sections, the cheap
// subset that smoke tests exercise.
func traceReport(w io.Writer) {
	bench.PrintTableI(w, bench.TableI(1))
	fmt.Fprintln(w)
	bench.PrintFigure2(w, bench.Figure2(1))
	fmt.Fprintln(w)
	bench.PrintFigure6a(w, bench.Figure6a(1))
	fmt.Fprintln(w)
	bench.PrintAppSizes(w, bench.AppSizes(1))
	fmt.Fprintln(w)
	tab2 := bench.TableII()
	bench.PrintTableII(w, tab2)
	fmt.Fprintln(w)
	bench.ChartTableII(w, tab2)
}

// fullReport prints the complete reproduction.
func fullReport(w io.Writer) {
	bench.PrintTableI(w, bench.TableI(1))
	fmt.Fprintln(w)
	bench.PrintFigure2(w, bench.Figure2(1))
	fmt.Fprintln(w)
	bench.PrintFigure6a(w, bench.Figure6a(1))
	fmt.Fprintln(w)
	bench.PrintAppSizes(w, bench.AppSizes(1))
	fmt.Fprintln(w)
	bench.PrintCPUReference(w, bench.CPUReference())
	fmt.Fprintln(w)
	fig4 := bench.Figure4()
	bench.PrintFigure4(w, fig4)
	fmt.Fprintln(w)
	bench.ChartFigure4(w, fig4)
	fmt.Fprintln(w)
	fig5 := bench.Figure5()
	bench.PrintFigure5(w, fig5)
	fmt.Fprintln(w)
	bench.ChartFigure5(w, fig5)
	overK, overM := bench.Figure5Speedups()
	fmt.Fprintf(w, "average Pascal speedup: %.2fx over K80 (paper: 2.12x), %.2fx over M40 (paper: 1.56x)\n\n", overK, overM)
	fig6b := bench.Figure6b()
	bench.PrintFigure6b(w, fig6b)
	fmt.Fprintln(w)
	bench.ChartFigure6b(w, fig6b)
	fmt.Fprintln(w)
	tab2 := bench.TableII()
	bench.PrintTableII(w, tab2)
	fmt.Fprintln(w)
	bench.ChartTableII(w, tab2)
	fmt.Fprintln(w)
	bench.PrintStreamScaling(w, bench.StreamScaling())
	fmt.Fprintln(w)
	bench.PrintApplicability(w, bench.Applicability(1))
	fmt.Fprintln(w)
	bench.PrintStreaming(w, bench.Streaming())
	fmt.Fprintln(w)
	bench.PrintMessageSizes(w, bench.MessageSizes())
	fmt.Fprintln(w)
	bench.PrintSMSweep(w, bench.SMSweep())
	fmt.Fprintln(w)
	bench.PrintEndpoints(w, bench.Endpoints())
	fmt.Fprintln(w)
	bench.PrintCommParallel(w, bench.CommParallel())
	fmt.Fprintln(w)
	bench.PrintAblations(w)
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	traceOnly := fs.Bool("trace-only", false, "print only the trace-statistics sections (quick)")
	var trace telemetry.CLIFlags
	trace.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if trace.Active() {
		return trace.Run(stdout, stderr, "experiments", func(cfg telemetry.Config) (*telemetry.Recorder, error) {
			return conformance.RunChaosTrace(trace.Seed, cfg)
		})
	}
	fmt.Fprintln(stdout, "Reproduction report: Klenk et al., IPDPS 2017")
	fmt.Fprintln(stdout, "=============================================")
	fmt.Fprintln(stdout)
	if *traceOnly {
		traceReport(stdout)
	} else {
		fullReport(stdout)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
