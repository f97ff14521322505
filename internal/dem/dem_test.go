package dem

import (
	"caliqec/internal/circuit"
	"math"
	"reflect"
	"testing"
)

// repCode builds a 3-qubit repetition code round with data X noise p and
// measurement flip q.
func repCode(rounds int, p, q float64) *circuit.Circuit {
	b := circuit.NewBuilder(5)
	b.Reset(0, 0, 1, 2)
	var prev []int
	for r := 0; r < rounds; r++ {
		b.XError(p, 0, 1, 2)
		b.Reset(0, 3, 4)
		b.CX(0, 3, 1, 3)
		b.CX(1, 4, 2, 4)
		recs := b.M(q, 3, 4)
		if r == 0 {
			b.Detector(recs[0])
			b.Detector(recs[1])
		} else {
			b.Detector(prev[0], recs[0])
			b.Detector(prev[1], recs[1])
		}
		prev = recs
	}
	dr := b.M(0, 0, 1, 2)
	b.Detector(prev[0], dr[0], dr[1])
	b.Detector(prev[1], dr[1], dr[2])
	b.Observable(0, dr[0])
	return b.Build()
}

func TestRepCodeDEMStructure(t *testing.T) {
	m, err := FromCircuit(repCode(2, 1e-3, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDetectors != 6 || m.NumObs != 1 {
		t.Fatalf("detectors=%d obs=%d", m.NumDetectors, m.NumObs)
	}
	// Every mechanism is graph-like and has sane probability.
	edgeCount, boundaryCount := 0, 0
	for _, mech := range m.Mechanisms {
		if len(mech.Detectors) > 2 {
			t.Fatalf("non-graph-like mechanism %v", mech)
		}
		if mech.P <= 0 || mech.P > 0.5 {
			t.Errorf("probability out of range: %v", mech)
		}
		if len(mech.Detectors) == 2 {
			edgeCount++
		} else {
			boundaryCount++
		}
	}
	if edgeCount == 0 || boundaryCount == 0 {
		t.Errorf("edges=%d boundary=%d; expected both kinds", edgeCount, boundaryCount)
	}
	// An X error on the edge qubit q0 in round 0 flips detector 0 and the
	// observable: find that boundary mechanism.
	found := false
	for _, mech := range m.Mechanisms {
		if len(mech.Detectors) == 1 && mech.Detectors[0] == 0 && mech.ObsMask == 1 {
			found = true
		}
	}
	if !found {
		t.Error("missing boundary mechanism with observable flip (X on q0)")
	}
}

func TestMergedProbabilities(t *testing.T) {
	// Two identical X error channels on the same qubit must merge:
	// p = p1(1-p2) + p2(1-p1).
	b := circuit.NewBuilder(2)
	b.Reset(0, 0)
	b.XError(0.1, 0)
	b.XError(0.2, 0)
	b.Reset(0, 1)
	b.CX(0, 1)
	recs := b.M(0, 1)
	b.Detector(recs[0])
	m, err := FromCircuit(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Mechanisms) != 1 {
		t.Fatalf("want 1 merged mechanism, got %d", len(m.Mechanisms))
	}
	want := 0.1*0.8 + 0.2*0.9
	if math.Abs(m.Mechanisms[0].P-want) > 1e-12 {
		t.Errorf("merged p=%.6f, want %.6f", m.Mechanisms[0].P, want)
	}
}

func TestInvisibleErrorDropped(t *testing.T) {
	// A Z error on a qubit that is only ever Z-measured is invisible.
	b := circuit.NewBuilder(1)
	b.Reset(0, 0)
	b.ZError(0.3, 0)
	recs := b.M(0, 0)
	b.Detector(recs[0])
	m, err := FromCircuit(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Mechanisms) != 0 {
		t.Errorf("invisible error produced mechanisms: %v", m.Mechanisms)
	}
}

func TestDepolarize1Decomposition(t *testing.T) {
	// DEPOLARIZE1 on a qubit measured in Z: X and Y components flip the
	// outcome (each p/3, merged), Z component invisible.
	b := circuit.NewBuilder(1)
	b.Reset(0, 0)
	b.Depolarize1(0.3, 0)
	recs := b.M(0, 0)
	b.Detector(recs[0])
	m, err := FromCircuit(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Mechanisms) != 1 {
		t.Fatalf("want 1 mechanism, got %d: %v", len(m.Mechanisms), m.Mechanisms)
	}
	// X and Y components (0.1 each) merge: 0.1·0.9 + 0.1·0.9 = 0.18.
	if got := m.Mechanisms[0].P; math.Abs(got-0.18) > 1e-12 {
		t.Errorf("merged DEPOLARIZE1 visibility %.6f, want 0.18", got)
	}
}

func TestYErrorDecomposesWhenNonGraphlike(t *testing.T) {
	// Construct a circuit where a Y error flips 4 detectors (2 from its X
	// part, 2 from its Z part): the extractor must split it.
	b := circuit.NewBuilder(6) // data 0; Z-ancillas 1,2; X-ancillas 3,4; spare 5
	b.Reset(0, 0)
	b.ResetX(0, 5)
	var prevZ, prevX []int
	for r := 0; r < 2; r++ {
		if r == 1 {
			b.YError(0.1, 0)
		}
		// Z-parity checks touching qubit 0 twice (two ancillas).
		b.Reset(0, 1, 2)
		b.CX(0, 1, 0, 2)
		zr := b.M(0, 1, 2)
		// X-parity checks: ancilla in |+>, CX(anc→data), measure X.
		b.ResetX(0, 3)
		b.ResetX(0, 4)
		b.CX(3, 0, 4, 0)
		b.CX(3, 5, 4, 5) // anchor second support so X checks are 2-qubit
		xr := b.MX(0, 3, 4)
		if r == 0 {
			b.Detector(zr[0])
			b.Detector(zr[1])
		} else {
			b.Detector(prevZ[0], zr[0])
			b.Detector(prevZ[1], zr[1])
			b.Detector(prevX[0], xr[0])
			b.Detector(prevX[1], xr[1])
		}
		prevZ = zr
		prevX = xr
	}
	m, err := FromCircuit(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range m.Mechanisms {
		if len(mech.Detectors) > 2 {
			t.Fatalf("Y decomposition failed: %v", mech)
		}
	}
}

// mergeN folds n independent sources of probability p with the merge rule.
func mergeN(p float64, n int) float64 {
	acc := p
	for i := 1; i < n; i++ {
		acc = acc*(1-p) + p*(1-acc)
	}
	return acc
}

// TestDepolarize2PerQubitFallback: each qubit's X error flips its own pair
// of detectors, so the XX part of a DEPOLARIZE2 term flips four and is
// non-graph-like while each qubit's part is graph-like. The extractor must
// fall back to per-qubit mechanisms, qubit a before qubit b, and produce
// the same model on every extraction.
func TestDepolarize2PerQubitFallback(t *testing.T) {
	b := circuit.NewBuilder(2)
	b.Reset(0, 0, 1)
	b.Depolarize2(0.15, 0, 1)
	r := b.M(0, 0, 1)
	b.Detector(r[0])
	b.Detector(r[0])
	b.Detector(r[1])
	b.Detector(r[1])
	c := b.Build()
	m, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	// Of the 15 terms, the 8 with an X or Y on qubit 0 flip {D0,D1} —
	// directly or through the fallback — and likewise for qubit 1; Z parts
	// are invisible to Z measurements.
	p := mergeN(0.15/15, 8)
	want := []Mechanism{
		{Detectors: []int{0, 1}, P: p},
		{Detectors: []int{2, 3}, P: p},
	}
	if !reflect.DeepEqual(m.Mechanisms, want) {
		t.Fatalf("mechanisms %v, want %v", m.Mechanisms, want)
	}
	for i := 0; i < 20; i++ {
		again, err := FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("extraction %d differs: %v vs %v", i, again.Mechanisms, m.Mechanisms)
		}
	}
}

// TestNonGraphLikeError: a single X error flipping three detectors cannot be
// decomposed further and must be reported at its instruction.
func TestNonGraphLikeError(t *testing.T) {
	b := circuit.NewBuilder(2)
	b.Reset(0, 0, 1)
	b.XError(0.1, 0) // instruction 1
	b.CX(0, 1)
	r := b.M(0, 0, 1)
	b.Detector(r[0])
	b.Detector(r[0])
	b.Detector(r[1])
	_, err := FromCircuit(b.Build())
	if err == nil || err.Error() != "dem: non-graph-like mechanism at instruction 1 (3 detectors)" {
		t.Fatalf("err = %v", err)
	}
}

// TestMeasurementInThreeDetectors: a noisy readout whose record bit feeds
// three detectors is non-graph-like and must be reported by record.
func TestMeasurementInThreeDetectors(t *testing.T) {
	b := circuit.NewBuilder(1)
	b.Reset(0, 0)
	r := b.M(0.1, 0)
	b.Detector(r[0])
	b.Detector(r[0])
	b.Detector(r[0])
	_, err := FromCircuit(b.Build())
	if err == nil || err.Error() != "dem: measurement record 0 appears in 3 detectors" {
		t.Fatalf("err = %v", err)
	}
}

// TestFirstErrorWins: with two non-graph-like instructions, the error named
// is the one earliest in the circuit, whichever kind it is.
func TestFirstErrorWins(t *testing.T) {
	build := func(readoutFirst bool) *circuit.Circuit {
		b := circuit.NewBuilder(2)
		b.Reset(0, 0, 1)
		var r0 []int
		if readoutFirst {
			r0 = b.M(0.1, 0) // instruction 1
			b.XError(0.1, 1) // instruction 2
		} else {
			b.XError(0.1, 1) // instruction 1
			r0 = b.M(0.1, 0) // instruction 2
		}
		r1 := b.M(0, 1)
		for i := 0; i < 3; i++ {
			b.Detector(r0[0], r1[0])
		}
		return b.Build()
	}
	for _, tc := range []struct {
		readoutFirst bool
		want         string
	}{
		{true, "dem: measurement record 0 appears in 3 detectors"},
		{false, "dem: non-graph-like mechanism at instruction 1 (3 detectors)"},
	} {
		_, err := FromCircuit(build(tc.readoutFirst))
		if err == nil || err.Error() != tc.want {
			t.Errorf("readoutFirst=%v: err = %v, want %q", tc.readoutFirst, err, tc.want)
		}
	}
}
