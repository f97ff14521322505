package main

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"caliqec/internal/circuit"
	"caliqec/internal/decoder"
	"caliqec/internal/dem"
	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"caliqec/internal/sim"
)

// tally is one Monte-Carlo evaluation counted outside the engine.
type tally struct {
	shots    int
	decodes  int // shots with a non-empty syndrome, each decoded once
	failures int // shots whose predicted observable mask missed the sampled one
	noFlip   int // failures of a decoder that always predicts no flip
}

// check compares t with the engine's result for the same spec: the
// failure counts must agree exactly, and decoding must beat predicting no
// flip.
func (t tally) check(res mc.Result) error {
	if t.shots != res.Shots || t.failures != res.Failures {
		return fmt.Errorf("recount %d failures in %d shots, Evaluate %d in %d", t.failures, t.shots, res.Failures, res.Shots)
	}
	if t.failures >= t.noFlip {
		return fmt.Errorf("decoder fails %d shots, predicting no flip fails %d", t.failures, t.noFlip)
	}
	return nil
}

// graphStats describes one traced DEM extraction.
type graphStats struct {
	mechanisms int
	edges      int
	allocs     uint64 // heap allocations made by dem.FromCircuit
}

// extractGraph builds c's decoding graph through the public layer calls,
// one span each: dem.FromCircuit, then decoder.BuildGraph. The allocation
// count reads the runtime's malloc counter around the extraction, so it
// assumes nothing else allocates meanwhile (the phases run one at a time).
func extractGraph(ctx context.Context, c *circuit.Circuit) (*decoder.Graph, graphStats, error) {
	var st graphStats
	var before, after runtime.MemStats
	_, span := obs.StartSpan(ctx, "dem.extract")
	runtime.ReadMemStats(&before)
	model, err := dem.FromCircuit(c)
	runtime.ReadMemStats(&after)
	span.End()
	if err != nil {
		return nil, st, err
	}
	st.mechanisms = len(model.Mechanisms)
	st.allocs = after.Mallocs - before.Mallocs
	_, span = obs.StartSpan(ctx, "decoder.graph")
	g, err := decoder.BuildGraph(model)
	span.End()
	if err != nil {
		return nil, st, err
	}
	st.edges = len(g.Edges)
	return g, st, nil
}

// obsMask selects a circuit's observable bits.
func obsMask(numObs int) uint64 {
	if numObs >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(numObs) - 1
}

// sampleAndDecode draws spec's shot stream with mc.SampleChunks — the
// exact randomness Evaluate consumes — and scores it the way the engine
// does: a shot with an empty syndrome takes the decoder's empty-syndrome
// prediction, every other shot is decoded once. The sampling runs under a
// sim.sample span; each batch's scoring (syndrome gathering and the
// empty-syndrome popcount) runs under an mc.score child and its decodes
// under a decoder.decode child, so the sampler's self time is the sampling
// alone.
func sampleAndDecode(ctx context.Context, spec mc.Spec, decode func([]int) uint64) (tally, error) {
	ctx, span := obs.StartSpan(ctx, "sim.sample")
	defer span.End()
	mask := obsMask(spec.Circuit.NumObs)
	emptyPred := decode(nil) & mask
	var (
		t      tally
		syn    [sim.LaneShots][]int
		actual [sim.LaneShots]uint64
		fired  [sim.LaneWords]uint64
	)
	err := mc.SampleChunks(ctx, spec, func(b sim.BatchResult) error {
		_, ssp := obs.StartSpan(ctx, "mc.score")
		words := b.Words()
		for w := 0; w < words; w++ {
			base := w * 64
			var f, flipped uint64
			for d := range b.Detectors {
				f |= b.Detectors[d][w]
			}
			for o := range b.Observables {
				flipped |= b.Observables[o][w]
			}
			t.noFlip += bits.OnesCount64(flipped)
			if emptyPred == 0 {
				t.failures += bits.OnesCount64(flipped &^ f)
			} else {
				f = ^uint64(0)
				if rem := b.Shots - base; rem < 64 {
					f = uint64(1)<<uint(rem) - 1
				}
			}
			fired[w] = f
			for m := f; m != 0; m &= m - 1 {
				s := base + bits.TrailingZeros64(m)
				syn[s] = syn[s][:0]
				actual[s] = 0
			}
			for d := range b.Detectors {
				for x := b.Detectors[d][w]; x != 0; x &= x - 1 {
					s := base + bits.TrailingZeros64(x)
					syn[s] = append(syn[s], d)
				}
			}
			for o := range b.Observables {
				for x := b.Observables[o][w] & f; x != 0; x &= x - 1 {
					actual[base+bits.TrailingZeros64(x)] |= 1 << uint(o)
				}
			}
		}
		t.shots += b.Shots
		ssp.End()
		_, dsp := obs.StartSpan(ctx, "decoder.decode")
		for w := 0; w < words; w++ {
			for m := fired[w]; m != 0; m &= m - 1 {
				s := w*64 + bits.TrailingZeros64(m)
				t.decodes++
				if decode(syn[s])&mask != actual[s] {
					t.failures++
				}
			}
		}
		dsp.End()
		return nil
	})
	return t, err
}
