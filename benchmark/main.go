// Command benchmark is the repository's end-to-end benchmark: one process
// that exercises the costs a CaliQEC deployment pays — warm LER sweeps,
// live decode serving over loopback TCP, the analytic Table 2 runtime, and
// cold Monte-Carlo evaluation of every patch the program's calibration
// batches deform — and checks every output it produces.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	sh benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> --serve-rate <traces/s>
//
// A run of ler-sweep, decode-serve or table2-runtime executes those three
// phases, interleaved step by step over the whole run so that each phase's
// figures average over the same stretch of machine time. The named
// workload's phase gets half of --seconds and each other phase a quarter,
// so every metric is measured on every workload while the named one
// dominates the run. A run of insitu-deform executes that phase alone.
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 the same seed runs traced (spans from
// this package's own files around each layer call) and the line carries
// the per-layer metrics instead, while the span dump is written under
// .bench_out/. The exit code is non-zero when any correctness check fails.
// See README.md for the metrics and checks.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, runs the benchmark and prints its result line. It
// returns the process exit code: 0 when every check passed, 1 when a check
// failed or the benchmark could not run, 2 on bad flags.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to emphasise: "+workloadList())
	seed := fs.Uint64("seed", 2025, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 50, "measured seconds, split over the run's phases")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	serveRate := fs.Float64("serve-rate", 0, "decode-serve phase-B offered load in traces/s")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		traced:    *trace == 1,
		serveRate: *serveRate,
		root:      ".",
		sz:        fullSizes(),
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	res, err := runBenchmark(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// config is one benchmark run.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	serveRate float64 // phase-B offered load, traces/s
	root      string  // checkout root: results/ is read and .bench_out/ written here
	sz        sizes
}

func (c config) validate() error {
	if !slices.Contains(workloads, c.workload) {
		return fmt.Errorf("unknown --workload %q (want one of %s)", c.workload, workloadList())
	}
	if c.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if c.serveRate <= 0 {
		return fmt.Errorf("--serve-rate must be positive")
	}
	return nil
}

// phaseNames lists the phases a run executes, in phase order.
// insitu-deform runs alone; any other workload runs the other three.
func (c config) phaseNames() []string {
	if c.workload == "insitu-deform" {
		return workloads[:1]
	}
	return workloads[1:]
}

// share is the fraction of the measured time the named phase gets: all of
// it when the phase runs alone, else half for the named workload and a
// quarter for each other phase.
func (c config) share(name string) float64 {
	switch {
	case len(c.phaseNames()) == 1:
		return 1
	case name == c.workload:
		return 0.5
	}
	return 0.25
}
