package mc

import (
	"caliqec/internal/circuit"
	"caliqec/internal/decoder"
	"caliqec/internal/dem"
	"caliqec/internal/rng"
	"caliqec/internal/sim"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
)

// fingerprint is a 128-bit content hash of a circuit: structure AND noise
// parameters. Two circuits with identical instruction sequences but
// different channel probabilities hash differently, so they never share a
// cached decoding graph.
type fingerprint [16]byte

// Fingerprint hashes c's full content — dimensions, every instruction's
// opcode, targets, record references, annotation index, and the float bits
// of its probability argument (FNV-1a 128).
func Fingerprint(c *circuit.Circuit) [16]byte {
	h := fnv.New128a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(c.NumQubits))
	put(uint64(c.NumMeas))
	put(uint64(c.NumDetectors))
	put(uint64(c.NumObs))
	put(uint64(len(c.Instructions)))
	for _, in := range c.Instructions {
		put(uint64(in.Op))
		put(math.Float64bits(in.Arg))
		put(uint64(in.Index))
		put(uint64(len(in.Targets)))
		for _, t := range in.Targets {
			put(uint64(t))
		}
		put(uint64(len(in.Recs)))
		for _, r := range in.Recs {
			put(uint64(r))
		}
	}
	var fp fingerprint
	h.Sum(fp[:0])
	return fp
}

// fpMemo caches fingerprints by circuit pointer identity. Circuits are
// immutable once built (the builder is the only writer, and the simulator
// pool already relies on pointer identity meaning "same compiled program"),
// so a pointer seen before hashes to the same fingerprint — which turns the
// per-Evaluate rehash of a warm sweep's unchanged prior (a measurable
// fraction of warm evaluation time) into one map lookup. Bounded to a
// batch's working set: at fpMemoMax entries the map is dropped wholesale,
// which also releases the circuit pointers it keeps alive, so a stream of
// fresh circuits (every in-situ deformation is one) holds at most
// fpMemoMax of them. A dropped entry costs one rehash, small against the
// sampling of the Evaluate that asks for it.
var fpMemo struct {
	sync.Mutex
	m map[*circuit.Circuit]fingerprint
}

const fpMemoMax = 64

// fingerprintOf is Fingerprint memoized by pointer identity.
func fingerprintOf(c *circuit.Circuit) fingerprint {
	fpMemo.Lock()
	if fp, ok := fpMemo.m[c]; ok {
		fpMemo.Unlock()
		return fp
	}
	fpMemo.Unlock()
	// Hash outside the lock; concurrent misses on one circuit hash twice
	// but agree on the result.
	fp := Fingerprint(c)
	fpMemo.Lock()
	if fpMemo.m == nil || len(fpMemo.m) >= fpMemoMax {
		fpMemo.m = make(map[*circuit.Circuit]fingerprint, fpMemoMax)
	}
	fpMemo.m[c] = fp
	fpMemo.Unlock()
	return fp
}

// cacheEntry holds everything derivable from one prior circuit: the
// decoding graph built from its DEM, a pool of reusable decoder instances
// per kind (decoders carry scratch state, so one instance serves one worker
// at a time; pooling avoids rebuilding their adjacency scans every chunk),
// and a free list of frame simulators (a simulator's compiled program and
// frame storage are reusable across chunks after a Reset).
type cacheEntry struct {
	graph *decoder.Graph
	pools [2]sync.Pool // indexed by decoder.DecoderKind

	simMu sync.Mutex
	sims  []*sim.FrameSimulator
}

func newCacheEntry(prior *circuit.Circuit) (*cacheEntry, error) {
	model, err := dem.FromCircuit(prior)
	if err != nil {
		return nil, fmt.Errorf("mc: extracting DEM: %w", err)
	}
	g, err := decoder.BuildGraph(model)
	if err != nil {
		return nil, fmt.Errorf("mc: building graph: %w", err)
	}
	ent := &cacheEntry{graph: g}
	for kind := range ent.pools {
		k := decoder.DecoderKind(kind)
		ent.pools[kind].New = func() interface{} { return decoder.New(k, g) }
	}
	return ent, nil
}

func (ent *cacheEntry) getDecoder(kind decoder.DecoderKind) decoder.Decoder {
	return ent.pools[poolIndex(kind)].Get().(decoder.Decoder)
}

func (ent *cacheEntry) putDecoder(kind decoder.DecoderKind, dec decoder.Decoder) {
	ent.pools[poolIndex(kind)].Put(dec)
}

func poolIndex(kind decoder.DecoderKind) int {
	if kind == decoder.KindGreedy {
		return 1
	}
	return 0
}

// getSim returns a pooled frame simulator compiled for exactly c, rebound
// to r, or builds a fresh one. Matching is by circuit identity: stale-prior
// specs share a cache entry keyed by the prior but sample a *different*
// circuit, so a free simulator is only reused when it was compiled for the
// same circuit pointer.
func (ent *cacheEntry) getSim(c *circuit.Circuit, r *rng.RNG) *sim.FrameSimulator {
	ent.simMu.Lock()
	for i := len(ent.sims) - 1; i >= 0; i-- {
		if ent.sims[i].Circuit() == c {
			fs := ent.sims[i]
			last := len(ent.sims) - 1
			ent.sims[i] = ent.sims[last]
			ent.sims[last] = nil
			ent.sims = ent.sims[:last]
			ent.simMu.Unlock()
			fs.Reset(r)
			return fs
		}
	}
	ent.simMu.Unlock()
	return sim.NewFrameSimulator(c, r)
}

// putSim returns a simulator to the free list, bounded at twice GOMAXPROCS
// so an entry never hoards more simulators than a full worker pool can use.
func (ent *cacheEntry) putSim(fs *sim.FrameSimulator) {
	ent.simMu.Lock()
	if len(ent.sims) < 2*runtime.GOMAXPROCS(0) {
		ent.sims = append(ent.sims, fs)
	}
	ent.simMu.Unlock()
}

// entryFor returns the cached DEM+graph for prior, building and inserting
// it on a miss (LRU eviction beyond the configured size).
func (e *Engine) entryFor(prior *circuit.Circuit) (*cacheEntry, error) {
	fp := fingerprintOf(prior)
	e.mu.Lock()
	if ent, ok := e.cache[fp]; ok {
		e.hits++
		e.touch(fp)
		e.mu.Unlock()
		return ent, nil
	}
	e.misses++
	e.mu.Unlock()

	// Built outside the lock: concurrent misses on the same circuit may
	// build twice, but the first insert wins and every caller gets it.
	ent, err := newCacheEntry(prior)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if _, ok := e.cache[fp]; !ok {
		e.cache[fp] = ent
		e.order = append(e.order, fp)
		for len(e.cache) > e.maxEntry {
			oldest := e.order[0]
			e.order = e.order[1:]
			delete(e.cache, oldest)
		}
	}
	ent = e.cache[fp]
	e.mu.Unlock()
	return ent, nil
}

// touch moves fp to the most-recently-used end. Called with e.mu held.
func (e *Engine) touch(fp fingerprint) {
	for i, f := range e.order {
		if f == fp {
			copy(e.order[i:], e.order[i+1:])
			e.order[len(e.order)-1] = fp
			return
		}
	}
}
