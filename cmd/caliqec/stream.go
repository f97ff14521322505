package main

import (
	"bufio"
	"caliqec"
	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/fleet"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/stream"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
)

// buildMemoryCircuit rebuilds the memory-experiment circuit the stream
// subcommands operate on. Record and replay must construct it from the same
// flags: the trace header's circuit fingerprint is checked against it before
// a single frame is decoded.
func buildMemoryCircuit(tp caliqec.Topology, d, rounds int, p float64) (*circuit.Circuit, int, error) {
	if rounds == 0 {
		rounds = d
	}
	var lat *lattice.Lattice
	if tp == caliqec.Square {
		lat = lattice.NewSquare(d)
	} else {
		lat = lattice.NewHeavyHex(d)
	}
	c, err := code.NewPatch(lat).MemoryCircuit(code.MemoryOptions{Rounds: rounds, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
	return c, rounds, err
}

func cmdRecord(args []string) (err error) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	topo := topoFlag(fs)
	d := fs.Int("d", 3, "code distance")
	p := fs.Float64("p", 1e-3, "physical error rate")
	rounds := fs.Int("rounds", 0, "QEC rounds (default: the distance)")
	shots := fs.Int("shots", 20000, "shots to record")
	seed := fs.Uint64("seed", 1, "random seed (stored in the trace header)")
	out := fs.String("o", "trace.bin", "output trace file")
	oc := addObsFlags(fs)
	fs.Parse(args)
	tp, err := parseTopo(*topo)
	if err != nil {
		return err
	}
	c, r, err := buildMemoryCircuit(tp, *d, *rounds, *p)
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
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	spec := mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: *shots, Rounds: r, Seed: *seed}
	n, rerr := stream.Record(ctx, spec, bw)
	if ferr := bw.Flush(); rerr == nil {
		rerr = ferr
	}
	if ferr := f.Close(); rerr == nil {
		rerr = ferr
	}
	if rerr != nil {
		return rerr
	}
	fmt.Printf("recorded %d shots of %v d=%d p=%.3g rounds=%d (fingerprint %x) to %s\n",
		n, tp, *d, *p, r, mc.Fingerprint(c), *out)
	return nil
}

func cmdReplay(args []string) (err error) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	topo := topoFlag(fs)
	d := fs.Int("d", 3, "code distance the trace was recorded at")
	p := fs.Float64("p", 1e-3, "physical error rate the trace was recorded at")
	rounds := fs.Int("rounds", 0, "QEC rounds (default: the distance)")
	window := fs.Int("window", 0, "decode through a sliding round window of this many rounds (0 = whole-shot); resident decode state is O(window)")
	check := fs.Bool("check", false, "re-run the in-process evaluation from the trace's seed metadata and fail on any count mismatch")
	to := fs.String("to", "", "stream the trace to a caliqec serve instance at this TCP address instead of decoding locally")
	oc := addObsFlags(fs)
	dc := addDriftFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: caliqec replay [flags] <trace file>")
	}
	path := fs.Arg(0)

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	if *to != "" {
		conn, err := net.Dial("tcp", *to)
		if err != nil {
			return err
		}
		defer conn.Close()
		sum, err := stream.SendTrace(conn, bufio.NewReader(f))
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		return enc.Encode(sum)
	}

	tp, err := parseTopo(*topo)
	if err != nil {
		return err
	}
	c, r, err := buildMemoryCircuit(tp, *d, *rounds, *p)
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
	est, err := dc.start()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := dc.finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	tr, err := stream.NewReader(bufio.NewReader(f))
	if err != nil {
		return err
	}
	h := tr.Header()
	if h.Fingerprint != mc.Fingerprint(c) {
		return fmt.Errorf("trace fingerprint %x does not match %v d=%d p=%.3g rounds=%d (%x); pass the flags the trace was recorded with",
			h.Fingerprint, tp, *d, *p, r, mc.Fingerprint(c))
	}
	eng := mc.New(mc.Options{})
	var scorer stream.FrameScorer
	if *window > 0 {
		wd, err := eng.WindowedFrameDecoder(c, *window)
		if err != nil {
			return err
		}
		if h.Rounds > 0 && h.Rounds != wd.NumRounds() {
			return fmt.Errorf("trace records %d rounds/shot but the circuit has %d", h.Rounds, wd.NumRounds())
		}
		fmt.Printf("windowed decoding: W=%d of %d rounds\n", *window, wd.NumRounds())
		scorer = wd
	} else {
		fd, err := eng.FrameDecoder(c, decoder.KindUnionFind)
		if err != nil {
			return err
		}
		scorer = fd
	}
	stats, rerr := stream.Replay(ctx, tr, scorer, stream.PipelineOptions{Estimator: est})
	if rerr != nil && !errors.Is(rerr, stream.ErrTruncated) {
		return rerr
	}
	ler := 0.0
	if stats.Frames > 0 {
		ler = float64(stats.Failures) / float64(stats.Frames)
	}
	fmt.Printf("replayed %d frames: %d failures, LER %.4g", stats.Frames, stats.Failures, ler)
	if stats.Truncated {
		fmt.Printf(" (trace truncated after %d of %d promised frames)", stats.Frames, h.Shots)
	}
	fmt.Println()
	if dc.enabled() {
		fmt.Printf("drift: %d events over %d-frame windows", stats.DriftEvents, est.Window)
		if mon := est.Health.Get("replay"); mon != nil {
			if qs := mon.Snapshot().DriftingQubits; len(qs) > 0 {
				fmt.Printf("; drifting qubits %v", qs)
			}
		}
		fmt.Println()
	}

	if *check {
		if stats.Truncated {
			return fmt.Errorf("-check: cannot verify a truncated trace")
		}
		if *window > 0 && *window < c.NumRounds {
			return fmt.Errorf("-check: a sliding window (W=%d < %d rounds) is not bit-identical to the whole-shot evaluation; use -window 0 or >= %d", *window, c.NumRounds, c.NumRounds)
		}
		if h.Shots == 0 {
			return fmt.Errorf("-check: trace header carries no shot count")
		}
		want, err := eng.Evaluate(ctx, mc.Spec{
			Circuit: c, Decoder: decoder.KindUnionFind,
			Shots: int(h.Shots), Rounds: r, Seed: h.Seed,
		})
		if err != nil {
			return err
		}
		if want.Failures != stats.Failures || want.Shots != stats.Frames {
			return fmt.Errorf("-check FAILED: replay counted %d failures over %d frames, in-process evaluation %d over %d",
				stats.Failures, stats.Frames, want.Failures, want.Shots)
		}
		fmt.Printf("check ok: in-process evaluation reproduces %d failures over %d shots\n", want.Failures, want.Shots)
	}
	return nil
}

func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	topo := topoFlag(fs)
	dList := fs.String("d", "3", "code distance, or comma-separated distances, to serve decoders for")
	p := fs.Float64("p", 1e-3, "physical error rate of the served decoding graphs")
	rounds := fs.Int("rounds", 0, "QEC rounds (default: the distance)")
	addr := fs.String("addr", "127.0.0.1:8790", "TCP listen address")
	window := fs.Int("window", 0, "serve sliding-window decoders with this round window (0 = whole-shot); traces recording a different rounds/shot are rejected")
	ff := addFleetFlags(fs)
	oc := addObsFlags(fs)
	dc := addDriftFlags(fs)
	fs.Parse(args)
	tp, err := parseTopo(*topo)
	if err != nil {
		return err
	}
	ds, err := parseDistances(*dList)
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
	est, err := dc.start()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := dc.finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	eng := mc.New(mc.Options{})
	cat := stream.NewCatalog()
	for _, d := range ds {
		c, r, err := buildMemoryCircuit(tp, d, *rounds, *p)
		if err != nil {
			return err
		}
		var (
			scorer stream.FrameScorer
			fp     [16]byte
			mode   string
		)
		if *window > 0 {
			wd, err := eng.WindowedFrameDecoder(c, *window)
			if err != nil {
				return err
			}
			scorer, fp = wd, wd.CircuitFingerprint()
			mode = fmt.Sprintf(" window=%d/%d", *window, wd.NumRounds())
		} else {
			fd, err := eng.FrameDecoder(c, decoder.KindUnionFind)
			if err != nil {
				return err
			}
			scorer, fp = fd, fd.CircuitFingerprint()
		}
		cat.Register(fp, scorer)
		fmt.Printf("serving %v d=%d p=%.3g rounds=%d%s: fingerprint %x\n", tp, d, *p, r, mode, fp)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	cfg, err := ff.config(est)
	if err != nil {
		return err
	}
	srv := fleet.NewServer(cfg, cat.Resolve)
	backpressure := "stalls the sender"
	if !cfg.Block {
		backpressure = "sheds"
	}
	fmt.Printf("listening on %s (%d circuits, pool of %d workers; a full stream queue %s); Ctrl-C drains and exits\n",
		ln.Addr(), cat.Len(), srv.Pool().Workers(), backpressure)
	return srv.Serve(ctx, ln)
}
