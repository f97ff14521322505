package mc

import (
	"caliqec/internal/circuit"
	"runtime"
	"testing"
	"time"
)

// TestFingerprintMemoReleasesCircuits: the fingerprint memo keeps at most
// fpMemoMax circuits alive, so a stream of fresh circuits cannot grow the
// heap. Once fpMemoMax+1 fresh circuits have passed through fingerprintOf,
// the first of them is collectable.
func TestFingerprintMemoReleasesCircuits(t *testing.T) {
	collected := make(chan struct{})
	memoizeTracked(collected)
	for i := 0; i < fpMemoMax; i++ {
		fingerprintOf(freshCircuit(i))
	}
	for try := 0; try < 50; try++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("the first circuit is still alive after %d more passed through the memo", fpMemoMax)
}

// memoizeTracked passes a fresh circuit through fingerprintOf and closes
// collected when the garbage collector frees it. It keeps no reference.
func memoizeTracked(collected chan struct{}) {
	c := freshCircuit(-1)
	runtime.SetFinalizer(c, func(*circuit.Circuit) { close(collected) })
	fingerprintOf(c)
}

// freshCircuit returns a new one-instruction circuit; i varies its content.
func freshCircuit(i int) *circuit.Circuit {
	return &circuit.Circuit{
		Instructions: []circuit.Instruction{{Op: circuit.OpH, Targets: []int{i & 7}}},
		NumQubits:    8,
	}
}
