package fleet

import (
	"testing"
	"time"

	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

// slowScorer takes a fixed time per frame, so a stall-mode producer always
// refills the queue before the worker drains it.
type slowScorer struct{}

func (slowScorer) ScoreFrame([]int, uint64) bool {
	time.Sleep(20 * time.Microsecond)
	return false
}

// TestStallModeQueueStaysBounded: in stall mode a sustained sender keeps
// its stream queue from ever emptying, so the queue's backing array must be
// reused rather than grown with every admitted frame.
func TestStallModeQueueStaysBounded(t *testing.T) {
	const queue, n = 4, 500
	p := NewPool(Config{Workers: 1, StreamQueue: queue, Quantum: 1, Block: true, Metrics: obs.Discard})
	defer p.Close()
	st, err := p.Open(stream.Header{NumDetectors: 8, NumObs: 1}, slowScorer{}, "s")
	if err != nil {
		t.Fatal(err)
	}
	packed := make([]byte, 1)
	maxCap := 0
	for i := 0; i < n; i++ {
		if !st.Offer(packed, 0) {
			t.Fatalf("frame %d shed in stall mode", i)
		}
		p.mu.Lock()
		if c := cap(st.queue); c > maxCap {
			maxCap = c
		}
		p.mu.Unlock()
	}
	st.CloseSend()
	<-st.Done()
	st.Close()
	if maxCap > 4*queue {
		t.Fatalf("stream queue backing grew to %d frames for a %d-frame queue", maxCap, queue)
	}
}
