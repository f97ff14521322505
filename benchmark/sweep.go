package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"caliqec/internal/rng"
)

// sweep is the ler-sweep phase: repeated EvaluateBatch calls over pristine
// square patches on an engine primed during set-up, so sampling, decoding
// and scoring do the timed work and DEM extraction none.
type sweep struct {
	cfg      config
	circuits []*circuit.Circuit
	rounds   []int
	eng      *mc.Engine
	r        *rng.RNG
	batches  int

	rates []float64 // shots per CPU-second of each full-pool batch

	// Traced: the parallel and Workers=1 batches, the decomposition's own
	// decoders and their graphs (built on first use), and its tallies.
	decs                 []decoder.Decoder
	graphs               []graphStats
	parShots, parSecs    float64
	serShots, serSecs    float64
	serBatches           int
	mallocs              uint64
	simShots, simDecodes int
}

func newSweep(cfg config) *sweep { return &sweep{cfg: cfg} }

func (s *sweep) setup(ctx context.Context) error {
	*s = sweep{cfg: s.cfg}
	for _, d := range s.cfg.sz.sweepDists {
		for _, p := range s.cfg.sz.sweepRates {
			c, err := code.NewPatch(lattice.NewSquare(d)).MemoryCircuit(code.MemoryOptions{
				Rounds: d, Basis: lattice.BasisZ, Noise: code.UniformNoise(p),
			})
			if err != nil {
				return err
			}
			s.circuits = append(s.circuits, c)
			s.rounds = append(s.rounds, d)
		}
	}
	s.eng = mc.New(mc.Options{Metrics: obs.NewRegistry(nil)})
	s.r = rng.New(s.cfg.seed ^ 0x5eee9)
	// Prime the cache: one chunk per spec builds every DEM and graph.
	prime := s.specs(mc.ChunkShots, 0)
	_, err := s.eng.EvaluateBatch(ctx, prime)
	return err
}

func (s *sweep) close() { s.eng = nil }

// specs returns one spec per (d, p) with fresh seeds.
func (s *sweep) specs(shots, workers int) []mc.Spec {
	out := make([]mc.Spec, len(s.circuits))
	for i, c := range s.circuits {
		out[i] = mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: s.rounds[i], Seed: s.r.Uint64(), Workers: workers}
	}
	return out
}

// step evaluates one batch; every batch is a whole cycle.
func (s *sweep) step(ctx context.Context, traced bool, chk *checker) (bool, error) {
	specs := s.specs(s.cfg.sz.sweepShots, 0)
	s.batches++
	if traced {
		return true, s.tracedBatch(ctx, specs, chk)
	}
	s.batch(ctx, specs, chk)
	return true, nil
}

func (s *sweep) batch(ctx context.Context, specs []mc.Spec, chk *checker) {
	c0 := cpuTime()
	res, err := s.eng.EvaluateBatch(ctx, specs)
	s.rates = append(s.rates, float64(batchShots(specs))/(cpuTime()-c0).Seconds())
	if err != nil {
		chk.op("ler-sweep batch", err)
		return
	}
	// Recount one spec per batch, rotating, outside the clock.
	k := (s.batches - 1) % len(specs)
	for i, spec := range specs {
		err := plausible(spec, res[i])
		if err == nil && i == k {
			err = s.recount(ctx, spec, res[i])
		}
		chk.op(fmt.Sprintf("ler-sweep d=%d spec %d", spec.Rounds, i), err)
	}
}

func batchShots(specs []mc.Spec) int {
	n := 0
	for _, sp := range specs {
		n += sp.Shots
	}
	return n
}

// plausible checks what every result must satisfy: the whole budget spent
// and no more failures than shots.
func plausible(spec mc.Spec, res mc.Result) error {
	if res.Shots != spec.Shots || res.EarlyStopped || res.Failures < 0 || res.Failures > res.Shots {
		return fmt.Errorf("implausible result %+v for %d shots", res, spec.Shots)
	}
	return nil
}

func (s *sweep) recount(ctx context.Context, spec mc.Spec, res mc.Result) error {
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

// tracedBatch evaluates the batch three ways — EvaluateBatch on the full
// pool, EvaluateBatch with Workers=1, and the traced decomposition — and
// checks all three agree exactly.
func (s *sweep) tracedBatch(ctx context.Context, specs []mc.Spec, chk *checker) error {
	if s.decs == nil {
		for _, c := range s.circuits {
			g, st, err := extractGraph(ctx, c)
			if err != nil {
				return err
			}
			s.decs = append(s.decs, decoder.New(decoder.KindUnionFind, g))
			s.graphs = append(s.graphs, st)
		}
	}
	shots := batchShots(specs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0, c0 := time.Now(), cpuTime()
	par, err := s.eng.EvaluateBatch(untraced(ctx), specs)
	el, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
	runtime.ReadMemStats(&after)
	s.parSecs += el
	s.rates = append(s.rates, float64(shots)/cpu)
	s.mallocs += after.Mallocs - before.Mallocs
	s.parShots += float64(shots)
	if err != nil {
		chk.op("ler-sweep batch", err)
		return nil
	}
	serial := append([]mc.Spec(nil), specs...)
	for i := range serial {
		serial[i].Workers = 1
	}
	t0 = time.Now()
	ser, err := s.eng.EvaluateBatch(untraced(ctx), serial)
	s.serSecs += time.Since(t0).Seconds()
	s.serShots += float64(shots)
	s.serBatches++
	if err != nil {
		chk.op("ler-sweep serial batch", err)
		return nil
	}
	for i, spec := range specs {
		err := plausible(spec, par[i])
		if err == nil && ser[i] != par[i] {
			err = fmt.Errorf("Workers=1 gives %+v, the full pool %+v", ser[i], par[i])
		}
		if err == nil {
			var t tally
			t, err = s.decompose(ctx, spec, s.decs[i])
			if err == nil {
				err = t.check(par[i])
			}
		}
		chk.op(fmt.Sprintf("ler-sweep d=%d spec %d", spec.Rounds, i), err)
	}
	return nil
}

func (s *sweep) decompose(ctx context.Context, spec mc.Spec, dec decoder.Decoder) (tally, error) {
	t, err := sampleAndDecode(ctx, spec, dec.Decode)
	s.simShots += t.shots
	s.simDecodes += t.decodes
	return t, err
}

func (s *sweep) endToEnd(m metricSet) {
	m.set("shots_per_s", "1/s", median(s.rates))
}

func (s *sweep) layers(m metricSet, spans *spanIndex) {
	const ph = "ler-sweep"
	shots, decodes := float64(s.simShots), float64(s.simDecodes)
	m.set("sim.ns_per_shot", "ns", spans.selfMs(ph, "sim.sample")*1e6/shots)
	m.set("sim.shots", "count", shots)
	m.set("decoder.ns_per_decode", "ns", spans.totalMs(ph, "decoder.decode")*1e6/decodes)
	m.set("decoder.decodes", "count", decodes)
	m.set("decoder.fired_share", "share", decodes/shots)
	// The engine's own share of a Workers=1 EvaluateBatch: its wall time
	// less the sampling and decoding the decomposition timed for the same
	// specs. What remains is the engine's scoring, scheduling and pooling.
	serMs := s.serSecs * 1e3
	m.set("mc.evaluate_ms", "ms", serMs/float64(s.serBatches))
	m.set("mc.self_share", "share", (serMs-spans.selfMs(ph, "sim.sample")-spans.totalMs(ph, "decoder.decode"))/serMs)
	hits, misses, _ := s.eng.CacheStats()
	m.set("mc.cache_hits", "count", float64(hits))
	m.set("mc.cache_misses", "count", float64(misses))
	m.set("mc.allocs_per_shot", "count", float64(s.mallocs)/s.parShots)
	serial := s.serShots / s.serSecs
	m.set("mc.serial_shots_per_s", "1/s", serial)
	m.set("mc.parallel_efficiency", "share", s.parShots/s.parSecs/(serial*float64(runtime.GOMAXPROCS(0))))
	graphLayers(m, spans, ph, s.graphs)
}
