package dem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"caliqec/internal/circuit"
	"caliqec/internal/code"
	"caliqec/internal/deform"
	"caliqec/internal/lattice"
)

// The digests below were captured from the per-fault forward-propagation
// extractor that preceded the backward sweep. They cover every mechanism's
// detectors, observable mask and probability bits, in order, so any change
// to extraction order, symptom computation or merge arithmetic shows up
// here, not as a statistical wobble further downstream.

// modelDigest hashes the parts of m that decoding depends on: detector and
// observable counts, the round map, and each mechanism in order.
func modelDigest(m *Model) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(m.NumDetectors))
	put(uint64(m.NumObs))
	put(uint64(len(m.DetectorRounds)))
	for _, r := range m.DetectorRounds {
		put(uint64(r))
	}
	put(uint64(len(m.Mechanisms)))
	for _, mech := range m.Mechanisms {
		put(uint64(len(mech.Detectors)))
		for _, d := range mech.Detectors {
			put(uint64(d))
		}
		put(mech.ObsMask)
		put(math.Float64bits(mech.P))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// memory builds the rounds-round memory circuit of patch at p=1e-3.
func memory(t *testing.T, p *code.Patch, rounds int, basis lattice.Basis, interleaved bool) *circuit.Circuit {
	t.Helper()
	c, err := p.MemoryCircuit(code.MemoryOptions{
		Rounds: rounds, Basis: basis, Noise: code.UniformNoise(1e-3), Interleaved: interleaved,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// deformed isolates the data qubit at code-grid (1,1) of a square patch
// and, for d ≥ 5, also the one at (3,2) followed by one PatchQ_AD
// enlargement.
func deformed(t *testing.T, d int) *circuit.Circuit {
	t.Helper()
	df := deform.NewDeformer(code.NewPatch(lattice.NewSquare(d)))
	coords := [][2]int{{1, 1}}
	if d >= 5 {
		coords = append(coords, [2]int{3, 2})
	}
	for _, rc := range coords {
		if _, err := df.IsolateQubit(df.Patch.Lat.DataID[rc], "golden"); err != nil {
			t.Fatal(err)
		}
	}
	if d >= 5 {
		if err := df.Enlarge(true); err != nil {
			t.Fatal(err)
		}
	}
	return memory(t, df.Patch, d, lattice.BasisZ, false)
}

// allGates is a hand-built circuit using every IR operation: H, S, CX, CZ,
// SWAP, R, RX, M, MX, all five noise channels, and reset and readout
// noise. Generated memory circuits never emit S, CZ or SWAP, so this is
// the only golden case that pins those gates' propagation rules. Chained
// pairs (CX 0 1 1 2, ...) pin the order in which pairs are applied, and
// qubits that carry on after a mid-circuit M or MX without a reset pin
// what a measurement leaves of an error. Two
// detectors keep every mechanism graph-like; one observable per
// measurement makes each mechanism's mask spell out exactly which records
// it flips.
func allGates() *circuit.Circuit {
	b := circuit.NewBuilder(5)
	b.Reset(0.011, 0, 1, 2)
	b.ResetX(0.013, 3, 4)
	b.H(0, 4)
	b.Depolarize1(0.017, 0, 1, 2, 3, 4)
	b.S(0, 3)
	b.XError(0.019, 1)
	b.CX(0, 1, 1, 2, 3, 4)
	b.Depolarize2(0.023, 0, 1, 1, 2, 3, 4)
	b.CZ(2, 3, 3, 0)
	b.ZError(0.029, 2, 4)
	b.Swap(1, 4, 4, 2)
	b.YError(0.031, 3, 0)
	b.S(1, 2)
	b.H(3)
	mid := append(b.M(0.037, 0, 2), b.MX(0.039, 3)...)
	b.Tick()
	b.Reset(0.041, 1)
	b.CX(0, 1, 2, 3)
	b.Depolarize2(0.043, 1, 3, 0, 2)
	b.CZ(0, 4, 1, 2)
	b.Swap(0, 3)
	b.Depolarize1(0.047, 1, 4)
	final := append(b.M(0.053, 0, 1, 2), b.MX(0.059, 3, 4)...)
	b.Detector(mid[0], final[0])
	b.Detector(mid[2], final[3])
	for i, r := range append(mid, final...) {
		b.Observable(i, r)
	}
	return b.Build()
}

func TestGoldenDEMDigests(t *testing.T) {
	square := func(d int) *code.Patch { return code.NewPatch(lattice.NewSquare(d)) }
	heavyHex := func(d int) *code.Patch { return code.NewPatch(lattice.NewHeavyHex(d)) }
	cases := []struct {
		name string
		circ func(t *testing.T) *circuit.Circuit
		want string
	}{
		{"square-d3-Z", func(t *testing.T) *circuit.Circuit { return memory(t, square(3), 3, lattice.BasisZ, false) }, "ac9a6e3fb478c8c6edd0bfeb803e199acbed1409ae4e5eb2e97039c0bb646545"},
		{"square-d3-X", func(t *testing.T) *circuit.Circuit { return memory(t, square(3), 3, lattice.BasisX, false) }, "fd9fc9ed1e65b87884b309f5832b59ba5888412155a0f0ec7b5f5c208d7c1e50"},
		{"square-d5-Z", func(t *testing.T) *circuit.Circuit { return memory(t, square(5), 5, lattice.BasisZ, false) }, "01d4f730393ee84b624d7dec095b18650cdb835058ca5265a67aa67fe1c22618"},
		{"square-d5-X", func(t *testing.T) *circuit.Circuit { return memory(t, square(5), 5, lattice.BasisX, false) }, "1520b9e4e747027100a96479885308220ea241b3781d91906c5f587b5a2de6cc"},
		{"square-d7-Z", func(t *testing.T) *circuit.Circuit { return memory(t, square(7), 7, lattice.BasisZ, false) }, "22883e3abf9530b06e5fa2a7a48da64fd79966a4b6267a88fc419a8f54ddf8de"},
		{"square-d7-X", func(t *testing.T) *circuit.Circuit { return memory(t, square(7), 7, lattice.BasisX, false) }, "a0c67a50d342967e9743b89347316f4c329e212998d87f2f8ee8400e5d5d82aa"},
		{"square-d5-Z-interleaved", func(t *testing.T) *circuit.Circuit { return memory(t, square(5), 5, lattice.BasisZ, true) }, "f53157a59d50edbf3f67924297f9d99929528ed0c132e5b0bb57bfc5ca8bb384"},
		{"heavyhex-d3-Z", func(t *testing.T) *circuit.Circuit { return memory(t, heavyHex(3), 3, lattice.BasisZ, false) }, "6d12a94eb25af9f553db9c2db2db8846d741c60ce8110d39dd48e6ff5ea332e9"},
		{"heavyhex-d3-X", func(t *testing.T) *circuit.Circuit { return memory(t, heavyHex(3), 3, lattice.BasisX, false) }, "d30e0856dbb7a214e6fd99a78fc893dfe8b6123822bdaf56143172c596b025f8"},
		{"heavyhex-d5-Z", func(t *testing.T) *circuit.Circuit { return memory(t, heavyHex(5), 5, lattice.BasisZ, false) }, "b694895b71bcb9c4b16d678c295c4ef4877a964afc3ade94c4a0d238f3ffbae0"},
		{"deformed-d3", func(t *testing.T) *circuit.Circuit { return deformed(t, 3) }, "7add49e93033896ae772e6f52cb0b610a7b8ed0cdce38c4b49e8e394edef0b88"},
		{"deformed-d5-enlarged", func(t *testing.T) *circuit.Circuit { return deformed(t, 5) }, "7acae6eadeed08765ba88f2159abf6f2a1faa1ef72286a61cbf6d7261c405a62"},
		{"deformed-d7-enlarged", func(t *testing.T) *circuit.Circuit { return deformed(t, 7) }, "596a7b7bb5ce46aef6888f9076eb0803343d20f2049d289d96bbc8487443737d"},
		{"repcode", func(*testing.T) *circuit.Circuit { return repCode(3, 1e-3, 2e-3) }, "f43d06e24401c0f9027345f2b6771046aebd4e0f57397a8e4630f473f576af6a"},
		{"all-gates", func(*testing.T) *circuit.Circuit { return allGates() }, "eb8bbc167390e3498def3e9b6868129b455464f3abbff29b40a1a1e065f8c4d6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := FromCircuit(tc.circ(t))
			if err != nil {
				t.Fatal(err)
			}
			if got := modelDigest(m); got != tc.want {
				t.Errorf("digest %s (%d mechanisms), want %s", got, len(m.Mechanisms), tc.want)
			}
		})
	}
}
