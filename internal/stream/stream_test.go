package stream_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/fleet"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

func memorySpec(t testing.TB, d int, p float64, shots int) mc.Spec {
	t.Helper()
	patch := code.NewPatch(lattice.NewSquare(d))
	c, err := patch.MemoryCircuit(code.MemoryOptions{Rounds: 3, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
	if err != nil {
		t.Fatal(err)
	}
	return mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: 3, Seed: 42}
}

// recordTrace records spec to memory and returns the encoded trace.
func recordTrace(t testing.TB, spec mc.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := stream.Record(context.Background(), spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != spec.Shots {
		t.Fatalf("recorded %d shots, want %d", n, spec.Shots)
	}
	return buf.Bytes()
}

// TestRecordReplayMatchesEvaluate is the round-trip oracle: a recorded
// trace replayed through Replay must reproduce the logical failure count of
// the in-process evaluation it mirrors, bit-identically.
func TestRecordReplayMatchesEvaluate(t *testing.T) {
	spec := memorySpec(t, 3, 3e-3, 5000) // not a ChunkShots multiple: tail chunk
	eng := mc.New(mc.Options{})
	want, err := eng.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want.Failures == 0 {
		t.Fatal("test vacuous: no failures at this noise level")
	}

	raw := recordTrace(t, spec)
	fd, err := eng.FrameDecoder(spec.Circuit, spec.Decoder)
	if err != nil {
		t.Fatal(err)
	}
	r, err := stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.Fingerprint != mc.Fingerprint(spec.Circuit) ||
		h.Seed != spec.Seed || h.Shots != uint64(spec.Shots) {
		t.Fatalf("trace header %+v does not carry spec metadata", h)
	}
	stats, err := stream.Replay(context.Background(), r, fd, stream.PipelineOptions{Metrics: obs.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != spec.Shots {
		t.Fatalf("replayed %d frames, want %d", stats.Frames, spec.Shots)
	}
	if stats.Failures != want.Failures {
		t.Fatalf("replay counted %d failures, Evaluate counted %d", stats.Failures, want.Failures)
	}
}

// gatedScorer blocks every ScoreFrame call until its gate closes, so tests
// can hold the decode stage and observe how far the read runs ahead.
type gatedScorer struct {
	gate   chan struct{}
	scored atomic.Int64
}

func (g *gatedScorer) ScoreFrame(syndrome []int, actual uint64) bool {
	<-g.gate
	g.scored.Add(1)
	return actual&1 == 1
}

// countingReader tallies bytes consumed from the underlying reader so tests
// can see how far a replay has read into a stream.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// syntheticTrace builds a trace of n frames with obs = i&1, so half the
// frames "fail" under gatedScorer.
func syntheticTrace(t testing.TB, numDet, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, stream.Header{NumDetectors: numDet, NumObs: 1, Shots: uint64(n)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.WriteSyndrome([]int{i % numDet}, uint64(i&1)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// waitStable polls load until its value stops changing for a few
// consecutive checks, returning the settled value.
func waitStable(t testing.TB, load func() int64) int64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last, stable := load(), 0
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		cur := load()
		if cur == last {
			stable++
			if stable >= 5 {
				return cur
			}
		} else {
			last, stable = cur, 0
		}
	}
	t.Fatal("value never stabilized")
	return 0
}

// TestReplayBackpressure: with the decode stage held, Replay reads nothing
// past the frame in hand — it must not slurp the stream into memory.
func TestReplayBackpressure(t *testing.T) {
	const (
		numDet = 16
		frames = 500
	)
	raw := syntheticTrace(t, numDet, frames)
	frameLen := 4 + 8 + stream.FrameBytes(numDet) + 4

	cr := &countingReader{r: bytes.NewReader(raw)}
	r, err := stream.NewReader(cr)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedScorer{gate: make(chan struct{})}
	type out struct {
		stats stream.Stats
		err   error
	}
	done := make(chan out, 1)
	go func() {
		stats, err := stream.Replay(context.Background(), r, g, stream.PipelineOptions{Metrics: obs.Discard})
		done <- out{stats, err}
	}()

	consumed := waitStable(t, cr.n.Load)
	// The header plus the one frame being scored is the ceiling; anything
	// more means the read runs ahead of the decode.
	hdrLen := int64(len(raw) - frames*frameLen)
	if got := (consumed - hdrLen) / int64(frameLen); got > 1 {
		t.Fatalf("reader consumed %d frames with decode stalled, want ≤ 1", got)
	}

	close(g.gate)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.stats.Frames != frames || g.scored.Load() != frames {
		t.Fatalf("frames=%d scored=%d, want %d", res.stats.Frames, g.scored.Load(), frames)
	}
	if res.stats.Failures != frames/2 {
		t.Fatalf("failures=%d, want %d", res.stats.Failures, frames/2)
	}
}

// TestReplayCancellationDrains: cancelling mid-stream stops the read
// promptly but the frame in hand is still scored, and the returned stats
// account for exactly the scored frames.
func TestReplayCancellationDrains(t *testing.T) {
	raw := syntheticTrace(t, 16, 200)
	cr := &countingReader{r: bytes.NewReader(raw)}
	r, err := stream.NewReader(cr)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedScorer{gate: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type out struct {
		stats stream.Stats
		err   error
	}
	done := make(chan out, 1)
	go func() {
		stats, err := stream.Replay(ctx, r, g, stream.PipelineOptions{Metrics: obs.Discard})
		done <- out{stats, err}
	}()

	waitStable(t, cr.n.Load) // first frame read, its decode held at the gate
	cancel()
	close(g.gate) // release the decode stage so the frame in hand finishes
	res := <-done
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.err)
	}
	if res.stats.Frames == 0 {
		t.Fatal("no frames drained after cancellation")
	}
	if int64(res.stats.Frames) != g.scored.Load() {
		t.Fatalf("stats count %d frames but scorer saw %d", res.stats.Frames, g.scored.Load())
	}
	// The frame in hand is everything that can be committed once the
	// context is cancelled.
	if res.stats.Frames > 1 {
		t.Fatalf("drained %d frames, want ≤ 1", res.stats.Frames)
	}
}

// TestReplayTruncatedTrace: Replay surfaces truncation as partial
// stats plus ErrTruncated, matching the Reader contract.
func TestReplayTruncatedTrace(t *testing.T) {
	raw := syntheticTrace(t, 16, 50)
	frameLen := 4 + 8 + stream.FrameBytes(16) + 4
	r, err := stream.NewReader(bytes.NewReader(raw[:len(raw)-frameLen/2]))
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedScorer{gate: make(chan struct{})}
	close(g.gate)
	stats, err := stream.Replay(context.Background(), r, g, stream.PipelineOptions{Metrics: obs.Discard})
	if !errors.Is(err, stream.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if !stats.Truncated || stats.Frames != 49 {
		t.Fatalf("stats = %+v, want Truncated with 49 frames", stats)
	}
}

// TestServerConcurrentStreams: several clients stream the same recorded
// trace concurrently; every summary must carry the oracle's exact failure
// count, and cancelling the server afterwards shuts Serve down cleanly.
func TestServerConcurrentStreams(t *testing.T) {
	spec := memorySpec(t, 3, 3e-3, 2000)
	eng := mc.New(mc.Options{})
	want, err := eng.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	raw := recordTrace(t, spec)
	fd, err := eng.FrameDecoder(spec.Circuit, spec.Decoder)
	if err != nil {
		t.Fatal(err)
	}
	cat := stream.NewCatalog()
	cat.Register(fd.CircuitFingerprint(), fd)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := fleet.NewServer(fleet.Config{Block: true, Workers: 2, Metrics: obs.Discard}, cat.Resolve)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			sum, err := stream.SendTrace(conn, bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			if sum.Error != "" || sum.Frames != spec.Shots || sum.Failures != want.Failures {
				errs <- errors.New("summary mismatch: " + sum.Error)
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
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
}

// TestServerRejectsUnknownCircuit: a trace whose fingerprint is not in the
// catalog gets an error summary, not a decode.
func TestServerRejectsUnknownCircuit(t *testing.T) {
	var buf bytes.Buffer
	h := stream.Header{NumDetectors: 8, NumObs: 1, Shots: 2}
	h.Fingerprint[0] = 0xAB
	w, err := stream.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.WriteSyndrome([]int{i}, 0); err != nil {
			t.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := fleet.NewServer(fleet.Config{Block: true, Metrics: obs.Discard}, stream.NewCatalog().Resolve)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sum, err := stream.SendTrace(conn, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Error == "" {
		t.Fatal("unknown fingerprint accepted")
	}
	cancel()
	<-served
}

// TestServerDrainingShutdown: cancelling the server while a client is
// mid-stream (header sent, write side still open) must unblock the pending
// connection read and return from Serve; the stalled client sees its
// connection closed.
func TestServerDrainingShutdown(t *testing.T) {
	g := &gatedScorer{gate: make(chan struct{})}
	close(g.gate)
	resolve := func(stream.Header) (stream.FrameScorer, error) { return g, nil }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := fleet.NewServer(fleet.Config{Block: true, Metrics: obs.Discard}, resolve)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a header plus one frame, then stall with the stream open.
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, stream.Header{NumDetectors: 8, NumObs: 1, Shots: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSyndrome([]int{3}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain the stalled connection")
	}
	// The server side closed our connection; the read eventually fails.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err == nil {
		// EOF from the closed server side is the expected clean outcome;
		// ReadAll maps it to nil, which is fine too.
		_ = err
	}
}

// TestReplayRealDecoderConcurrencyDeterminism decodes the same real trace
// with the production FrameDecoder serially through Replay and through a
// stall-mode fleet pool at several worker counts, and requires identical
// counts — the worker-count independence half of the determinism contract.
func TestReplayRealDecoderConcurrencyDeterminism(t *testing.T) {
	spec := memorySpec(t, 3, 5e-3, 1500)
	raw := recordTrace(t, spec)
	fd, err := mc.New(mc.Options{}).FrameDecoder(spec.Circuit, spec.Decoder)
	if err != nil {
		t.Fatal(err)
	}
	r, err := stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.Replay(context.Background(), r, fd, stream.PipelineOptions{Metrics: obs.Discard})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		got := poolDecode(t, raw, fd, fleet.Config{Workers: workers, StreamQueue: 16})
		if got.Admitted != int64(want.Frames) || got.Failures != int64(want.Failures) {
			t.Fatalf("workers=%d: pool decoded %d frames / %d failures, Replay %d / %d",
				workers, got.Admitted, got.Failures, want.Frames, want.Failures)
		}
	}
}

// poolDecode feeds every frame of raw through one stream of a stall-mode
// (Block) fleet pool built from cfg and returns the stream's final stats,
// after the pool has closed.
func poolDecode(t testing.TB, raw []byte, scorer stream.FrameScorer, cfg fleet.Config) fleet.StreamStats {
	t.Helper()
	r, err := stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Block = true
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Discard
	}
	p := fleet.NewPool(cfg)
	st, err := p.Open(r.Header(), scorer, "pool")
	if err != nil {
		t.Fatal(err)
	}
	var f stream.Frame
	for {
		err := r.Next(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !st.Offer(f.Packed, f.Obs) {
			t.Fatal("stall-mode pool shed a frame")
		}
	}
	st.CloseSend()
	<-st.Done()
	st.Close()
	p.Close()
	return st.Stats()
}

// halfCloseConn is a fake connection whose summary side is preloaded and
// whose CloseWrite fails the way a TCP socket does once the server has
// already closed: ENOTCONN.
type halfCloseConn struct {
	summary io.Reader
}

func (c *halfCloseConn) Read(p []byte) (int, error)  { return c.summary.Read(p) }
func (c *halfCloseConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *halfCloseConn) CloseWrite() error           { return syscall.ENOTCONN }

// TestSendTraceSummaryWinsOverHalfCloseError: a server that answers and
// closes before the client half-closes makes CloseWrite fail with ENOTCONN.
// The decoded summary must win over that send-side error; with no summary
// the error must still surface.
func TestSendTraceSummaryWinsOverHalfCloseError(t *testing.T) {
	trace := syntheticTrace(t, 8, 2)
	line := `{"frames":0,"failures":0,"ler":0,"error":"stream: no decoder registered"}` + "\n"
	sum, err := stream.SendTrace(&halfCloseConn{summary: strings.NewReader(line)}, bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("summary decoded but SendTrace returned %v", err)
	}
	if sum.Error != "stream: no decoder registered" {
		t.Fatalf("summary %+v lost the server's error", sum)
	}

	_, err = stream.SendTrace(&halfCloseConn{summary: strings.NewReader("")}, bytes.NewReader(trace))
	if !errors.Is(err, syscall.ENOTCONN) {
		t.Fatalf("no summary: err = %v, want the half-close ENOTCONN", err)
	}

	// An overload summary still classifies as ErrOverload.
	line = `{"frames":1,"failures":0,"ler":0,"shed":1,"overload":true}` + "\n"
	sum, err = stream.SendTrace(&halfCloseConn{summary: strings.NewReader(line)}, bytes.NewReader(trace))
	if !errors.Is(err, stream.ErrOverload) || sum.Shed != 1 {
		t.Fatalf("overload summary: sum %+v err %v, want ErrOverload with the shed count", sum, err)
	}
}
