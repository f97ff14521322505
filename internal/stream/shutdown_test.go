package stream_test

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"caliqec/internal/fleet"
	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

// TestServerShutdownFlushesPartialWindowEvents is the shutdown-ordering
// regression test: a client streams one clean baseline window plus a final
// PARTIAL window containing a hot detector, keeps its write side open, and
// the server is cancelled. The drift event from that partial window must
// still be on the event sink's writer by the time Serve returns — i.e. the
// draining handler finalized the monitor's pending window and Serve flushed
// the sink before handing control back. Before that ordering existed, the
// trailing frames never reached the estimators and the event was lost.
func TestServerShutdownFlushesPartialWindowEvents(t *testing.T) {
	const (
		numDet = 8
		window = 100
		steady = window // one full window to learn the baseline
		tail   = 50     // final partial window carrying the drift
		hotDet = 3
	)

	// Open-ended trace (Shots 0): steady frames fire detector i%numDet;
	// tail frames all fire hotDet, pushing its windowed rate from ~1/8 to
	// 1.0 — far past the CUSUM threshold once the baseline window is done.
	var trace bytes.Buffer
	w, err := stream.NewWriter(&trace, stream.Header{NumDetectors: numDet, NumObs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steady+tail; i++ {
		packed := make([]byte, stream.FrameBytes(numDet))
		d := i % numDet
		if i >= steady {
			d = hotDet
		}
		packed[d/8] |= 1 << (d % 8)
		if err := w.WriteFrame(packed, 0); err != nil {
			t.Fatal(err)
		}
	}

	var events bytes.Buffer
	sink := obs.NewEventSink(&events, 64)
	defer sink.Close()
	health := stream.NewHealthRegistry()
	addr, cancel, served := startTestServer(t,
		func(stream.Header) (stream.FrameScorer, error) { return parityScorer{}, nil },
		fleet.Config{
			Block: true, Workers: 2, Metrics: obs.Discard,
			Estimator: stream.EstimatorConfig{
				Window:          window,
				BaselineWindows: 1,
				Health:          health,
				Events:          sink,
			},
		})
	defer cancel()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(trace.Bytes()); err != nil {
		t.Fatal(err)
	}
	// No half-close: from the server's view the stream never ends, so only
	// shutdown can finalize the trailing partial window.

	// Wait until every sent frame has been decoded and observed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := health.Get("t0-conn-1")
		if m != nil && m.Snapshot().Frames == steady+tail {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not decode all frames in time")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}

	// The draining handler finalized the pending partial window.
	snap := health.Get("t0-conn-1").Snapshot()
	if snap.Windows != 2 || snap.PendingFrames != 0 {
		t.Fatalf("snapshot after shutdown: %d windows / %d pending frames, want 2 / 0 (partial window finalized)",
			snap.Windows, snap.PendingFrames)
	}

	// And Serve flushed the sink before returning: the hot detector's event
	// is already on the writer, no Close needed to see it. (Reading the
	// buffer here is safe — every sink write happened before Flush acked,
	// which happened before Serve returned.)
	var got []stream.DriftEvent
	for _, line := range bytes.Split(bytes.TrimSpace(events.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev stream.DriftEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		got = append(got, ev)
	}
	found := false
	for _, ev := range got {
		if ev.Kind == stream.DriftFireRate && ev.Detector == hotDet && ev.Window == 2 && ev.Stream == "t0-conn-1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fire-rate event for detector %d in partial window 2 lost at shutdown; sink has %+v", hotDet, got)
	}
	if dropped := sink.Dropped(); dropped != 0 {
		t.Fatalf("%d events dropped", dropped)
	}
}
