package main

import (
	"context"
	"fmt"
	"time"

	"caliqec"
	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"caliqec/internal/rng"
)

const (
	// insituShots is the Monte-Carlo budget of every deformed patch.
	insituShots = 1024
	// insituLERTarget is the logical-error budget the calibration plans
	// are compiled for, as in the repository's examples and tests.
	insituLERTarget = 1e-3
)

// patchKind is a CaliQEC system the insitu phase calibrates.
type patchKind struct {
	tp caliqec.Topology
	d  int
}

func (k patchKind) String() string { return fmt.Sprintf("%v d=%d", k.tp, k.d) }

func (k patchKind) lattice() *lattice.Lattice {
	if k.tp == caliqec.HeavyHex {
		return lattice.NewHeavyHex(k.d)
	}
	return lattice.NewSquare(k.d)
}

// calBatch is one calibration batch as the program ran it: the number of
// enlargements on both axes RunInterval applied first, then the isolation
// instructions it issued, replayable on a pristine patch. err is set
// instead when the program failed the batch's interval.
type calBatch struct {
	pk    patchKind
	grow  int
	instr []deform.LogEntry
	err   error
}

// calibrationBatches runs the program's calibration path for one seeded
// system — characterize, compile a plan, then RunInterval for each
// interval — and reads every batch it ran back from the deformer's
// instruction history. An interval the program fails ends the list with a
// batch carrying the error.
func calibrationBatches(k patchKind, seed uint64, intervals int) []calBatch {
	sys, err := caliqec.NewSystem(k.tp, k.d, caliqec.Options{Seed: seed})
	if err != nil {
		return []calBatch{{pk: k, err: err}}
	}
	plan, err := sys.Compile(sys.Characterize(), insituLERTarget)
	if err != nil {
		return []calBatch{{pk: k, err: err}}
	}
	var out []calBatch
	now := 0.0
	for n := 1; n <= intervals; n++ {
		h0 := len(sys.Deformer.History)
		if _, err := sys.RunInterval(plan, n, now); err != nil {
			return append(out, calBatch{pk: k, err: fmt.Errorf("interval %d: %w", n, err)})
		}
		out = append(out, splitBatches(k, sys.Deformer.History[h0:])...)
		now += plan.Grouping.TCaliHours
	}
	return out
}

// splitBatches cuts one interval's instruction history into its batches.
// RunInterval issues each batch as PatchQ_AD pairs (rows, then columns),
// the region's isolation instructions, a reintegration, and the shrinks
// that undo the enlargement.
func splitBatches(k patchKind, hist []deform.LogEntry) []calBatch {
	var out []calBatch
	cur, enlargements := calBatch{pk: k}, 0
	for _, e := range hist {
		switch e.Op {
		case deform.PatchQAD:
			enlargements++
		case deform.PatchQRM:
		case deform.OpReintegrate:
			cur.grow = enlargements / 2
			out = append(out, cur)
			cur, enlargements = calBatch{pk: k}, 0
		default:
			cur.instr = append(cur.instr, e)
		}
	}
	return out
}

// replay applies b to a pristine patch: enlarge as RunInterval did, then
// issue the recorded isolation instructions, resolved by coordinate.
func replay(b calBatch) (*deform.Deformer, error) {
	df := deform.NewDeformer(code.NewPatch(b.pk.lattice()))
	for g := 0; g < b.grow; g++ {
		if err := df.Enlarge(true); err != nil {
			return nil, err
		}
		if err := df.Enlarge(false); err != nil {
			return nil, err
		}
	}
	for _, e := range b.instr {
		q, err := df.QubitAt(e.Row, e.Col)
		if err != nil {
			return nil, err
		}
		if _, err := df.ApplyQubit(e.Op, q, e.Tag); err != nil {
			return nil, err
		}
	}
	return df, nil
}

// deformedCircuit replays b and builds the deformed patch's d-round memory
// circuit at physical error rate p, with one span per layer call.
func deformedCircuit(ctx context.Context, b calBatch, p float64) (*circuit.Circuit, error) {
	_, span := obs.StartSpan(ctx, "deform.isolate")
	df, err := replay(b)
	span.End()
	if err != nil {
		return nil, err
	}
	_, span = obs.StartSpan(ctx, "code.circuit")
	defer span.End()
	return df.Patch.MemoryCircuit(code.MemoryOptions{
		Rounds: b.pk.d, Basis: lattice.BasisZ, Noise: code.UniformNoise(p),
	})
}

// insitu is the insitu-deform phase: a closed loop of one caller that
// takes the program's calibration batches in turn and evaluates each
// deformed patch cold on one long-lived engine.
type insitu struct {
	cfg     config
	batches []calBatch // the systems' batches, interleaved round-robin
	eng     *mc.Engine
	r       *rng.RNG
	pos     int // next batch

	opMs   []float64
	graphs []graphStats
}

func newInsitu(cfg config) *insitu { return &insitu{cfg: cfg} }

func (s *insitu) setup(context.Context) error {
	var per [][]calBatch
	for i, k := range s.cfg.sz.insituKinds {
		per = append(per, calibrationBatches(k, s.cfg.seed+uint64(i), s.cfg.sz.insituIntervals))
	}
	s.batches = nil
	for j, more := 0, true; more; j++ {
		more = false
		for _, bs := range per {
			if j < len(bs) {
				s.batches, more = append(s.batches, bs[j]), true
			}
		}
	}
	if len(s.batches) == 0 {
		return fmt.Errorf("no calibration interval had a due gate")
	}
	// Every deformed circuit is new, so the cache only ever holds recent
	// misses; a fixed small size keeps the heap independent of how many
	// deformations a run completes.
	s.eng = mc.New(mc.Options{CacheSize: 8, Metrics: obs.NewRegistry(nil)})
	s.r = rng.New(s.cfg.seed ^ 0x1d5e7)
	s.pos, s.opMs, s.graphs = 0, nil, nil
	return nil
}

func (s *insitu) close() { s.eng = nil }

// step runs the next batch; every batch is a whole cycle. A batch the
// program failed to run counts as a failed operation.
func (s *insitu) step(ctx context.Context, traced bool, chk *checker) (bool, error) {
	b := s.batches[s.pos]
	s.pos = (s.pos + 1) % len(s.batches)
	p, seed := 1e-3+2e-3*s.r.Float64(), s.r.Uint64()
	what := fmt.Sprintf("insitu %v grow %d, %d instructions, p=%.4g", b.pk, b.grow, len(b.instr), p)
	if b.err != nil {
		chk.op(fmt.Sprintf("insitu %v calibration", b.pk), b.err)
		return true, nil
	}
	chk.op(what, s.deform(ctx, b, p, seed, traced))
	return true, nil
}

// deform evaluates one batch's deformed patch. Untraced, it is timed
// through Evaluate and then recounted outside the clock from the engine's
// cached graph; traced, it is timed through the layer-by-layer
// decomposition and then checked against an untraced Evaluate.
func (s *insitu) deform(ctx context.Context, b calBatch, p float64, seed uint64, traced bool) error {
	t0 := time.Now()
	c, err := deformedCircuit(ctx, b, p)
	if err != nil {
		return err
	}
	spec := mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: insituShots, Rounds: b.pk.d, Seed: seed}
	if traced {
		t, err := s.decompose(ctx, spec)
		s.opMs = append(s.opMs, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		res, err := s.eng.Evaluate(untraced(ctx), spec)
		if err != nil {
			return err
		}
		return t.check(res)
	}
	res, err := s.eng.Evaluate(ctx, spec)
	s.opMs = append(s.opMs, ms(time.Since(t0)))
	if err != nil {
		return err
	}
	return s.recount(ctx, spec, res)
}

// decompose is Evaluate one layer at a time under an mc.evaluate span.
func (s *insitu) decompose(ctx context.Context, spec mc.Spec) (tally, error) {
	ctx, span := obs.StartSpan(ctx, "mc.evaluate")
	defer span.End()
	g, st, err := extractGraph(ctx, spec.Circuit)
	if err != nil {
		return tally{}, err
	}
	s.graphs = append(s.graphs, st)
	return sampleAndDecode(ctx, spec, decoder.New(spec.Decoder, g).Decode)
}

// recount re-scores spec's shots through a FrameDecoder over the graph the
// engine cached for it and checks Evaluate's result against that.
func (s *insitu) recount(ctx context.Context, spec mc.Spec, res mc.Result) error {
	fd, err := s.eng.FrameDecoder(spec.Circuit, spec.Decoder)
	if err != nil {
		return err
	}
	t, err := sampleAndDecode(ctx, spec, fd.DecodeFrame)
	if err != nil {
		return err
	}
	return t.check(res)
}

func (s *insitu) endToEnd(m metricSet) {
	m.set("patches_per_s", "1/s", float64(len(s.opMs))/(sum(s.opMs)/1e3))
	m.set("patch_ms_p50", "ms", quantile(s.opMs, 0.5))
	m.set("patch_ms_p90", "ms", quantile(s.opMs, 0.9))
}

func (s *insitu) layers(m metricSet, spans *spanIndex) {
	const ph = "insitu-deform"
	m.set("deform.isolate_ms", "ms", spans.meanMs(ph, "deform.isolate"))
	m.set("code.circuit_ms", "ms", spans.meanMs(ph, "code.circuit"))
	m.set("dem.extract_share", "share", spans.totalMs(ph, "dem.extract")/spans.totalMs(ph, "mc.evaluate"))
	graphLayers(m, spans, ph, s.graphs)
}

// graphLayers sets the DEM extraction and graph-building metrics of a
// phase from its traced extractions.
func graphLayers(m metricSet, spans *spanIndex, ph string, graphs []graphStats) {
	m.set("dem.extract_ms", "ms", spans.meanMs(ph, "dem.extract"))
	m.set("decoder.graph_ms", "ms", spans.meanMs(ph, "decoder.graph"))
	var mech, edges, allocs float64
	for _, g := range graphs {
		mech += float64(g.mechanisms)
		edges += float64(g.edges)
		allocs += float64(g.allocs)
	}
	n := float64(len(graphs))
	m.set("dem.mechanisms", "count", mech/n)
	m.set("decoder.graph_edges", "count", edges/n)
	m.set("dem.allocs_per_extract", "count", allocs/n)
}

// untraced strips the tracer from ctx so a call made only to check a
// traced result leaves no spans.
func untraced(ctx context.Context) context.Context {
	return obs.WithTracer(ctx, nil)
}
