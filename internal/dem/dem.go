// Package dem extracts a detector error model (DEM) from a noisy stabilizer
// circuit: the list of independent elementary error mechanisms, each with
// its probability, the set of detectors it flips, and the logical
// observables it flips.
//
// The extraction exploits the linearity of Pauli-frame propagation: every
// noise channel decomposes into elementary Pauli errors at a circuit
// location, and each such error deterministically flips a fixed set of
// measurement record bits, hence a fixed set of detectors — its symptom.
// Symptoms are found in one backward sweep over the circuit, as Stim does:
// walking from the last instruction to the first, the extractor keeps for
// every qubit the symptom an X error there would cause and the symptom a Z
// error would cause, and maps both back through each instruction by fixed
// rules (H swaps them, CX(c,t) folds X_t into X_c and Z_c into Z_t, a
// measurement adds its record bit to the flipped basis and clears the
// other, a reset clears both). An elementary error's symptom is then the
// XOR of at most four per-qubit symptoms, so the cost is linear in circuit
// size rather than in faults × depth. Mechanisms whose symptom involves
// more than two detectors (e.g. a Y error straddling both stabilizer types)
// are decomposed into their X and Z parts — which, for the CSS circuits
// generated in this repository, are always graph-like (≤ 2 detectors).
// This reproduces the Stim circuit→DEM→matching-graph pipeline the paper's
// evaluation uses.
package dem

import (
	"caliqec/internal/circuit"
	"fmt"
	"strings"
)

// Mechanism is one independent elementary error: with probability P it
// flips every detector in Detectors and the observables in ObsMask.
type Mechanism struct {
	Detectors []int  // sorted detector indices, length 0..2 after decomposition
	ObsMask   uint64 // bit i set = flips observable i
	P         float64
}

// Model is the full detector error model of a circuit.
type Model struct {
	NumDetectors int
	NumObs       int
	Mechanisms   []Mechanism
	// NumRounds and DetectorRounds carry the source circuit's round
	// structure through extraction: DetectorRounds[d] is the QEC round in
	// which detector d fires. Both are zero/nil when the circuit predates
	// round tracking; the decoder then falls back to whole-shot decoding.
	NumRounds      int
	DetectorRounds []int
	// DetectorQubits maps each detector to the physical qubit whose
	// measurement closed it (circuit.DetectorQubits), -1 when unknown; nil
	// when the source circuit was not available. Drift observability uses
	// it, via the decoding graph, to name the hardware qubit behind an
	// anomalous detector.
	DetectorQubits []int
}

// Validate checks the model's round map when present: length matching
// NumDetectors, rounds within [0, NumRounds), and monotone non-decreasing
// in detector order (the contract the windowed decoder's round splitter
// relies on).
func (m *Model) Validate() error {
	if m.DetectorQubits != nil && len(m.DetectorQubits) != m.NumDetectors {
		return fmt.Errorf("dem: %d detector qubits for %d detectors", len(m.DetectorQubits), m.NumDetectors)
	}
	if m.NumRounds == 0 && m.DetectorRounds == nil {
		return nil
	}
	if m.NumRounds <= 0 {
		return fmt.Errorf("dem: DetectorRounds set but NumRounds=%d", m.NumRounds)
	}
	if len(m.DetectorRounds) != m.NumDetectors {
		return fmt.Errorf("dem: %d detector rounds for %d detectors", len(m.DetectorRounds), m.NumDetectors)
	}
	prev := 0
	for d, r := range m.DetectorRounds {
		if r < 0 || r >= m.NumRounds {
			return fmt.Errorf("dem: detector %d round %d out of range [0,%d)", d, r, m.NumRounds)
		}
		if r < prev {
			return fmt.Errorf("dem: detector %d round %d after round %d (rounds must be non-decreasing)", d, r, prev)
		}
		prev = r
	}
	return nil
}

// String renders the model, one mechanism per line, for debugging.
func (m *Model) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DEM: %d detectors, %d observables, %d mechanisms\n",
		m.NumDetectors, m.NumObs, len(m.Mechanisms))
	for _, mech := range m.Mechanisms {
		fmt.Fprintf(&sb, "  p=%.6g D%v obs=%b\n", mech.P, mech.Detectors, mech.ObsMask)
	}
	return sb.String()
}

const (
	bitX uint8 = 2
	bitZ uint8 = 1
)

// flips is the Pauli error of each single-qubit channel; a reset's Arg is
// the probability of the error left after preparing |0> or |+>.
var flips = map[circuit.OpCode]uint8{
	circuit.OpXError: bitX, circuit.OpZError: bitZ, circuit.OpYError: bitX | bitZ,
	circuit.OpReset: bitX, circuit.OpResetX: bitZ,
}

// symptom is what one Pauli error flips: sorted detector indices and an
// observable mask. A symptom is never mutated once built, so the sweep
// shares them freely between qubits.
type symptom struct {
	dets []int
	obs  uint64
}

// xor returns the symmetric difference of a and b.
func (a symptom) xor(b symptom) symptom {
	switch {
	case len(b.dets) == 0:
		return symptom{a.dets, a.obs ^ b.obs}
	case len(a.dets) == 0:
		return symptom{b.dets, a.obs ^ b.obs}
	}
	out := make([]int, 0, len(a.dets)+len(b.dets))
	i, j := 0, 0
	for i < len(a.dets) && j < len(b.dets) {
		switch {
		case a.dets[i] < b.dets[j]:
			out = append(out, a.dets[i])
			i++
		case a.dets[i] > b.dets[j]:
			out = append(out, b.dets[j])
			j++
		default:
			i++
			j++
		}
	}
	out = append(append(out, a.dets[i:]...), b.dets[j:]...)
	if len(out) == 0 {
		out = nil
	}
	return symptom{out, a.obs ^ b.obs}
}

// key identifies a graph-like symptom in the merge map.
type key struct {
	n   int
	d   [2]int
	obs uint64
}

// term is one elementary error found by the sweep: its symptom and
// probability, waiting to be merged.
type term struct {
	k key
	p float64
}

// FromCircuit extracts the DEM of c. It returns an error if any mechanism
// remains non-graph-like (more than two detectors) after X/Z decomposition,
// which indicates the circuit is outside the CSS family this package
// supports; with several such mechanisms, the one earliest in the circuit
// is named.
func FromCircuit(c *circuit.Circuit) (*Model, error) {
	sw := &sweep{
		x:   make([]symptom, c.NumQubits),
		z:   make([]symptom, c.NumQubits),
		rec: make([]symptom, c.NumMeas),
	}
	for i := range c.Instructions {
		in := &c.Instructions[i]
		switch in.Op {
		case circuit.OpDetector:
			for _, r := range in.Recs {
				sw.rec[r] = sw.rec[r].xor(symptom{dets: []int{in.Index}})
			}
		case circuit.OpObservable:
			for _, r := range in.Recs {
				sw.rec[r].obs ^= 1 << uint(in.Index)
			}
		}
	}

	// Sweep backward, collecting each instruction's terms in forward target
	// order; starts[k] is where the k-th instruction visited (counting from
	// the end of the circuit) begins in sw.terms.
	var (
		starts   = make([]int, 0, len(c.Instructions))
		firstErr error
		rec      = c.NumMeas
	)
	for i := len(c.Instructions) - 1; i >= 0; i-- {
		in := &c.Instructions[i]
		starts = append(starts, len(sw.terms))
		if err := sw.noise(i, in, rec); err != nil {
			firstErr = err
		}
		rec = sw.unapply(in, rec)
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Merge in forward instruction order, so every probability is folded in
	// the same sequence as the circuit's noise channels.
	m := &Model{
		NumDetectors:   c.NumDetectors,
		NumObs:         c.NumObs,
		NumRounds:      c.NumRounds,
		DetectorRounds: c.DetectorRounds(),
		DetectorQubits: c.DetectorQubits(),
	}
	merged := make(map[key]int)
	end := len(sw.terms)
	for k := len(starts) - 1; k >= 0; k-- {
		for _, t := range sw.terms[starts[k]:end] {
			if idx, ok := merged[t.k]; ok {
				mech := &m.Mechanisms[idx]
				mech.P = mech.P*(1-t.p) + t.p*(1-mech.P)
				continue
			}
			merged[t.k] = len(m.Mechanisms)
			m.Mechanisms = append(m.Mechanisms, Mechanism{
				Detectors: append([]int(nil), t.k.d[:t.k.n]...), ObsMask: t.k.obs, P: t.p,
			})
		}
		end = starts[k]
	}
	kept := m.Mechanisms[:0]
	for _, mech := range m.Mechanisms {
		if mech.P > 0 {
			kept = append(kept, mech)
		}
	}
	m.Mechanisms = kept
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// sweep is the backward pass's state: x[q] and z[q] are the symptoms of an
// X and a Z error on qubit q at the current point of the walk, rec[r] the
// symptom of flipping measurement record bit r.
type sweep struct {
	x, z  []symptom
	rec   []symptom
	terms []term
}

// noise records the elementary errors of instruction i, which occur
// immediately after it; rec is the number of record bits produced up to
// and including instruction i.
func (sw *sweep) noise(i int, in *circuit.Instruction, rec int) error {
	switch in.Op {
	case circuit.OpXError, circuit.OpZError, circuit.OpYError, circuit.OpReset, circuit.OpResetX:
		for _, q := range in.Targets {
			if err := sw.pauli(i, q, flips[in.Op], 0, 0, in.Arg); err != nil {
				return err
			}
		}
	case circuit.OpDepolarize1:
		for _, q := range in.Targets {
			for _, pb := range [3]uint8{bitX, bitX | bitZ, bitZ} {
				if err := sw.pauli(i, q, pb, 0, 0, in.Arg/3); err != nil {
					return err
				}
			}
		}
	case circuit.OpDepolarize2:
		for j := 0; j < len(in.Targets); j += 2 {
			for k := 1; k < 16; k++ {
				if err := sw.pauli(i, in.Targets[j], uint8(k&3), in.Targets[j+1], uint8(k>>2), in.Arg/15); err != nil {
					return err
				}
			}
		}
	case circuit.OpM, circuit.OpMX:
		if in.Arg <= 0 {
			return nil
		}
		for r := rec - len(in.Targets); r < rec; r++ {
			if s := sw.rec[r]; len(s.dets) > 2 {
				return fmt.Errorf("dem: measurement record %d appears in %d detectors", r, len(s.dets))
			}
			sw.record(sw.rec[r], in.Arg)
		}
	}
	return nil
}

// pauli records the error applying Pauli pa to qubit a and pb to qubit b
// (pb = 0 for a single-qubit error, b then unused), decomposing it into
// its X and Z parts when its full symptom is non-graph-like, and a part
// further into its two qubits' shares when that part alone is still
// non-graph-like, qubit a first.
func (sw *sweep) pauli(i, a int, pa uint8, b int, pb uint8, p float64) error {
	if p <= 0 {
		return nil
	}
	var (
		shares [2][2]symptom // [X part, Z part][qubit a, qubit b]
		parts  [2]symptom
	)
	for s, per := range [2][]symptom{sw.x, sw.z} {
		bit := [2]uint8{bitX, bitZ}[s]
		if pa&bit != 0 {
			shares[s][0] = per[a]
		}
		if pb&bit != 0 {
			shares[s][1] = per[b]
		}
		parts[s] = shares[s][0].xor(shares[s][1])
	}
	if full := parts[0].xor(parts[1]); len(full.dets) <= 2 {
		sw.record(full, p)
		return nil
	}
	for s, bit := range [2]uint8{bitX, bitZ} {
		onA, onB := pa&bit != 0, pb&bit != 0
		switch {
		case !onA && !onB:
			continue
		case len(parts[s].dets) <= 2:
			sw.record(parts[s], p)
			continue
		case onA && onB && len(shares[s][0].dets) <= 2 && len(shares[s][1].dets) <= 2:
			sw.record(shares[s][0], p)
			sw.record(shares[s][1], p)
			continue
		}
		return fmt.Errorf("dem: non-graph-like mechanism at instruction %d (%d detectors)", i, len(parts[s].dets))
	}
	return nil
}

// record queues a graph-like symptom for merging; invisible errors (no
// detectors, no logical effect) are dropped.
func (sw *sweep) record(s symptom, p float64) {
	if len(s.dets) == 0 && s.obs == 0 {
		return
	}
	k := key{n: len(s.dets), obs: s.obs}
	copy(k.d[:], s.dets)
	sw.terms = append(sw.terms, term{k, p})
}

// unapply maps the per-qubit symptoms from just after in to just before
// it, walking pairs and measurement targets in reverse, and returns the
// number of record bits produced before in.
func (sw *sweep) unapply(in *circuit.Instruction, rec int) int {
	x, z, t := sw.x, sw.z, in.Targets
	switch in.Op {
	case circuit.OpH:
		for _, q := range t {
			x[q], z[q] = z[q], x[q]
		}
	case circuit.OpS:
		for _, q := range t {
			x[q] = x[q].xor(z[q])
		}
	case circuit.OpCX:
		for j := len(t) - 2; j >= 0; j -= 2 {
			c, tg := t[j], t[j+1]
			x[c] = x[c].xor(x[tg])
			z[tg] = z[tg].xor(z[c])
		}
	case circuit.OpCZ:
		for j := len(t) - 2; j >= 0; j -= 2 {
			a, b := t[j], t[j+1]
			x[a] = x[a].xor(z[b])
			x[b] = x[b].xor(z[a])
		}
	case circuit.OpSwap:
		for j := len(t) - 2; j >= 0; j -= 2 {
			a, b := t[j], t[j+1]
			x[a], x[b] = x[b], x[a]
			z[a], z[b] = z[b], z[a]
		}
	case circuit.OpReset, circuit.OpResetX:
		for _, q := range t {
			x[q], z[q] = symptom{}, symptom{}
		}
	case circuit.OpM:
		for j := len(t) - 1; j >= 0; j-- {
			rec--
			x[t[j]], z[t[j]] = x[t[j]].xor(sw.rec[rec]), symptom{}
		}
	case circuit.OpMX:
		for j := len(t) - 1; j >= 0; j-- {
			rec--
			x[t[j]], z[t[j]] = symptom{}, z[t[j]].xor(sw.rec[rec])
		}
	}
	return rec
}
