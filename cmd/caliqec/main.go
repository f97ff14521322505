// Command caliqec drives the CaliQEC pipeline from the shell.
//
// Subcommands:
//
//	caliqec characterize -topology square -d 5       preparation stage
//	caliqec schedule     -topology hex -d 5 -ler 1e-3 compilation stage
//	caliqec run          -d 5 -intervals 4           full in-situ loop
//	caliqec simulate     -d 3,5,7 -p 2e-3 -shots 20000   Monte-Carlo LER sweep (batched)
//	caliqec record       -d 3 -shots 20000 -o t.bin  persist a syndrome trace
//	caliqec replay       -d 3 -check t.bin           decode a trace (optionally verify)
//	caliqec serve        -addr :8790 -d 3,5          live-decode TCP streams on a shared pool
//	caliqec serve        -fleet -tenant-rate 5e4     … shedding instead of stalling when full
//	caliqec loadgen      -streams 256 -tenants 4     drive a fleet and check its SLOs
//	caliqec health       -addr 127.0.0.1:8791        poll a replay/serve drift-health endpoint
//	caliqec vet          -d 3                        static IR + deformation-log checks
//	caliqec instructions                             print Table 1
package main

import (
	"caliqec"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/rng"
	"caliqec/internal/runtime"
	"caliqec/internal/workload"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "characterize":
		err = cmdCharacterize(args)
	case "schedule":
		err = cmdSchedule(args)
	case "run":
		err = cmdRun(args)
	case "simulate":
		err = cmdSimulate(args)
	case "record":
		err = cmdRecord(args)
	case "replay":
		err = cmdReplay(args)
	case "serve":
		err = cmdServe(args)
	case "loadgen":
		err = cmdLoadgen(args)
	case "health":
		err = cmdHealth(args)
	case "vet":
		err = cmdVet(args)
	case "instructions":
		err = cmdInstructions()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "caliqec:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: caliqec <characterize|schedule|run|simulate|record|replay|serve|loadgen|health|vet|instructions> [flags]`)
}

func topoFlag(fs *flag.FlagSet) *string {
	return fs.String("topology", "square", "lattice topology: square | hex")
}

func parseTopo(s string) (caliqec.Topology, error) {
	switch s {
	case "square":
		return caliqec.Square, nil
	case "hex", "heavy-hex", "heavyhex":
		return caliqec.HeavyHex, nil
	}
	return 0, fmt.Errorf("unknown topology %q", s)
}

func cmdCharacterize(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	topo := topoFlag(fs)
	d := fs.Int("d", 5, "code distance")
	seed := fs.Uint64("seed", 1, "random seed")
	limit := fs.Int("limit", 20, "gates to print (0 = all)")
	fs.Parse(args)
	tp, err := parseTopo(*topo)
	if err != nil {
		return err
	}
	sys, err := caliqec.NewSystem(tp, *d, caliqec.Options{Seed: *seed})
	if err != nil {
		return err
	}
	ch := sys.Characterize()
	fmt.Printf("characterized %d gates on %v d=%d (%d physical qubits)\n\n",
		len(ch.Gates), tp, *d, sys.Device.Lat.NumQubits())
	fmt.Printf("%-6s %-10s %-12s %-12s %-10s %s\n", "gate", "kind", "p0(est)", "Tdrift(est)", "Tcali", "|nbr|")
	n := 0
	for _, gc := range ch.Gates {
		g := sys.Device.Gate(gc.GateID)
		fmt.Printf("%-6d %-10v %-12.3g %-12.2f %-10.3f %d\n",
			gc.GateID, g.Kind, gc.Drift.P0, gc.Drift.TDrift, gc.CaliHours, len(gc.Nbr))
		n++
		if *limit > 0 && n >= *limit {
			fmt.Printf("... (%d more)\n", len(ch.Gates)-n)
			break
		}
	}
	return nil
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	topo := topoFlag(fs)
	d := fs.Int("d", 5, "code distance")
	seed := fs.Uint64("seed", 1, "random seed")
	ler := fs.Float64("ler", 1e-3, "target logical error rate per cycle")
	fs.Parse(args)
	tp, err := parseTopo(*topo)
	if err != nil {
		return err
	}
	sys, err := caliqec.NewSystem(tp, *d, caliqec.Options{Seed: *seed})
	if err != nil {
		return err
	}
	plan, err := sys.Compile(sys.Characterize(), *ler)
	if err != nil {
		return err
	}
	fmt.Printf("p_tar = %.4g (LER target %.3g at d=%d)\n", plan.PTar, *ler, *d)
	fmt.Printf("base interval T_Cali = %.3f h, total frequency = %.3f cal/h\n\n",
		plan.Grouping.TCaliHours, plan.Grouping.TotalFrequency())
	var ks []int
	for k := range plan.Grouping.Groups {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		fmt.Printf("group k=%-3d period %6.2f h: %d gates\n",
			k, float64(k)*plan.Grouping.TCaliHours, len(plan.Grouping.Groups[k]))
	}
	return nil
}

func cmdRun(args []string) (err error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	topo := topoFlag(fs)
	d := fs.Int("d", 5, "code distance")
	seed := fs.Uint64("seed", 1, "random seed")
	ler := fs.Float64("ler", 1e-3, "target logical error rate per cycle")
	intervals := fs.Int("intervals", 4, "calibration intervals to execute")
	shots := fs.Int("shots", 0, "when > 0, Monte-Carlo-measure the patch LER after each interval with this shot budget")
	account := fs.Bool("account", true, "run the Table-2 strategy accounting (no-cal / LSC / CaliQEC retry risk) after the intervals")
	oc := addObsFlags(fs)
	fs.Parse(args)
	tp, err := parseTopo(*topo)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = oc.start(ctx)
	defer func() {
		if ferr := oc.finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	sys, err := caliqec.NewSystem(tp, *d, caliqec.Options{Seed: *seed})
	if err != nil {
		return err
	}
	plan, err := sys.Compile(sys.Characterize(), *ler)
	if err != nil {
		return err
	}
	fmt.Printf("in-situ calibration on %v d=%d: T_Cali=%.2fh p_tar=%.4g\n\n",
		tp, *d, plan.Grouping.TCaliHours, plan.PTar)
	now := 0.0
	for n := 1; n <= *intervals; n++ {
		rep, err := sys.RunIntervalContext(ctx, plan, n, now)
		if err != nil {
			return err
		}
		fmt.Printf("interval %d (t=%6.2fh): %3d due, %3d calibrated in %d batches (Δd≤%d, enlarged=%v, %.2fh)\n",
			n, now, len(rep.DueGates), rep.Calibrated, rep.Batches, rep.MaxDeltaD, rep.Enlarged, rep.ElapsedHours)
		if err := sys.Patch().Validate(); err != nil {
			return fmt.Errorf("patch invalid after interval %d: %w", n, err)
		}
		if *shots > 0 {
			res, err := sys.MeasureLERContext(ctx, now, *d, *shots)
			if err != nil {
				return err
			}
			fmt.Printf("  patch LER at t=%.2fh: %v (per-round %.4g)\n", now, res, res.PerRoundLER)
		}
		now += plan.Grouping.TCaliHours
	}
	fmt.Printf("\npatch valid, distance (%d, %d), %d checks\n",
		sys.Patch().Distance(lattice.BasisX), sys.Patch().Distance(lattice.BasisZ), len(sys.Patch().Checks))
	if *account {
		fmt.Printf("\nstrategy accounting (Hubbard-10-10, d=25, retry budget 1%%):\n")
		cfg := runtime.Config{Prog: workload.Hubbard(10, 10), D: 25, RetryTarget: 0.01, Seed: *seed}
		for _, strat := range []runtime.Strategy{runtime.StrategyNoCal, runtime.StrategyLSC, runtime.StrategyCaliQEC} {
			res, err := runtime.Run(ctx, cfg, strat)
			if err != nil {
				return err
			}
			fmt.Printf("  %v\n", res)
		}
	}
	return nil
}

// parseDistances parses the simulate -d value: a single distance or a
// comma-separated list for a batched multi-distance sweep.
func parseDistances(s string) ([]int, error) {
	var ds []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := strconv.Atoi(part)
		if err != nil || d < 3 || d%2 == 0 {
			return nil, fmt.Errorf("invalid distance %q (want odd integers ≥ 3, comma-separated)", part)
		}
		ds = append(ds, d)
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("no distances in %q", s)
	}
	return ds, nil
}

func cmdSimulate(args []string) (err error) {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	topo := topoFlag(fs)
	dList := fs.String("d", "3", "code distance, or comma-separated distances (e.g. 3,5,7) for one batched sweep")
	p := fs.Float64("p", 1e-3, "physical error rate")
	rounds := fs.Int("rounds", 0, "QEC rounds (default: the distance)")
	shots := fs.Int("shots", 20000, "Monte-Carlo shot budget per distance")
	seed := fs.Uint64("seed", 1, "random seed")
	isolate := fs.Bool("isolate", false, "isolate the central data qubit first (DataQ_RM)")
	targetFails := fs.Int("target-failures", 0, "stop early once this many logical failures are seen (0 = run the full budget)")
	progress := fs.Bool("progress", false, "print a live shots/failures status line to stderr")
	oc := addObsFlags(fs)
	fs.Parse(args)
	tp, err := parseTopo(*topo)
	if err != nil {
		return err
	}
	ds, err := parseDistances(*dList)
	if err != nil {
		return err
	}
	specs := make([]mc.Spec, len(ds))
	roundsOf := make([]int, len(ds))
	for i, d := range ds {
		r := *rounds
		if r == 0 {
			r = d
		}
		roundsOf[i] = r
		var lat *lattice.Lattice
		if tp == caliqec.Square {
			lat = lattice.NewSquare(d)
		} else {
			lat = lattice.NewHeavyHex(d)
		}
		patch := code.NewPatch(lat)
		if *isolate {
			df := deform.NewDeformer(patch)
			q := lat.DataID[[2]int{d / 2, d / 2}]
			rec, err := df.IsolateQubit(q, "cli")
			if err != nil {
				return err
			}
			patch = df.Patch
			fmt.Printf("d=%d: isolated qubit %d: %v\n", d, q, rec)
		}
		c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: r, Basis: lattice.BasisZ, Noise: code.UniformNoise(*p)})
		if err != nil {
			return err
		}
		// Each distance seeds its own generator (seed+i, so a single -d run
		// reproduces the historical rng.New(seed) stream exactly); batching
		// the sweep cannot perturb any distance's result.
		specs[i] = mc.Spec{
			Circuit: c, Decoder: decoder.KindUnionFind,
			Shots: *shots, Rounds: r, RNG: rng.New(*seed + uint64(i)),
			TargetFailures: *targetFails,
		}
		if *progress {
			d := d
			specs[i].Progress = func(done, failures int) {
				fmt.Fprintf(os.Stderr, "\rd=%d: %d/%d shots, %d failures", d, done, *shots, failures)
			}
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = oc.start(ctx)
	defer func() {
		if ferr := oc.finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	results, err := mc.EvaluateBatch(ctx, specs)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	for i, res := range results {
		fmt.Printf("%v d=%d p=%.3g rounds=%d: %v (per-round %.4g)\n", tp, ds[i], *p, roundsOf[i], res.Result, res.PerRoundLER)
		if res.EarlyStopped {
			fmt.Printf("early stop: %d of %d budgeted shots spent\n", res.Shots, res.Requested)
		}
	}
	return nil
}

func cmdInstructions() error {
	for _, kind := range []lattice.Kind{lattice.Square, lattice.HeavyHex} {
		fmt.Printf("%-10s:", kind)
		for _, op := range deform.InstructionSet(kind) {
			fmt.Printf(" %s", op)
		}
		fmt.Println()
	}
	return nil
}
