package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/fleet"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

const (
	serveTenants = 2 // tenants the recorded trace is re-tenanted over
	serveConns   = 2 // client connections, one per phase-B sender
)

// serve is the decode-serve phase: an in-process fleet server on loopback
// decoding one recorded d=3, 3-round trace, sent whole per connection with
// stream.SendTrace. Phase A is a closed loop of back-to-back traces on
// every connection; phase B an open loop whose traces fall due at the
// fixed offered rate, each timed from its due time.
type serve struct {
	cfg    config
	traces [][]byte // the recorded trace, once per tenant (tenant i+1)
	hdrLen int      // encoded header bytes
	oracle int      // Evaluate's failures over the recorded spec
	reg    *obs.Registry
	addr   string
	stop   context.CancelFunc
	done   chan error

	mu sync.Mutex // guards what concurrent senders update

	aFrames  int       // phase-A frames sent
	aRates   []float64 // phase A: frames per CPU-second of each burst
	burstP50 []float64 // phase B: each burst's median latency
	burstP75 []float64 // phase B: each burst's 75th-percentile latency
	lateMs   []float64 // phase B: send start minus due time
	admitted int64
	shed     int64
	aMallocs uint64
	parsed   int // frames read back by parse
}

func newServe(cfg config) *serve { return &serve{cfg: cfg} }

func (s *serve) setup(ctx context.Context) error {
	*s = serve{cfg: s.cfg}
	c, err := code.NewPatch(lattice.NewSquare(3)).MemoryCircuit(code.MemoryOptions{
		Rounds: 3, Basis: lattice.BasisZ, Noise: code.UniformNoise(2e-3),
	})
	if err != nil {
		return err
	}
	eng := mc.New(mc.Options{Metrics: obs.NewRegistry(nil)})
	fd, err := eng.FrameDecoder(c, decoder.KindUnionFind)
	if err != nil {
		return err
	}
	spec := mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: s.cfg.sz.serveShots, Rounds: 3, Seed: s.cfg.seed ^ 0x5e7e}
	var buf bytes.Buffer
	if _, err := stream.Record(ctx, spec, &buf); err != nil {
		return err
	}
	res, err := eng.Evaluate(ctx, spec)
	if err != nil {
		return err
	}
	s.oracle = res.Failures
	raw := buf.Bytes()
	hr, err := stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	for t := 1; t <= serveTenants; t++ {
		tr, n, err := reTenant(raw, hr.Header(), uint32(t))
		if err != nil {
			return err
		}
		s.traces, s.hdrLen = append(s.traces, tr), n
	}

	cat := stream.NewCatalog()
	cat.Register(fd.CircuitFingerprint(), fd)
	s.reg = obs.NewRegistry(nil)
	srv := fleet.NewServer(fleet.Config{
		StreamQueue: s.cfg.sz.serveShots, // a whole trace fits: nothing sheds
		Metrics:     s.reg,
	}, cat.Resolve)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	sctx, stop := context.WithCancel(context.Background())
	s.stop, s.done = stop, make(chan error, 1)
	go func() { s.done <- srv.Serve(sctx, ln) }()
	return nil
}

// close stops the server and waits for Serve to return.
func (s *serve) close() {
	if s.stop == nil {
		return
	}
	s.stop()
	<-s.done
	s.stop = nil
}

// reTenant rewrites a trace's header with another tenant ID and keeps
// every frame byte. It also returns the encoded header length.
func reTenant(raw []byte, h stream.Header, tenant uint32) ([]byte, int, error) {
	h.Tenant = tenant
	var hb bytes.Buffer
	if _, err := stream.NewWriter(&hb, h); err != nil {
		return nil, 0, err
	}
	if hb.Len() > len(raw) {
		return nil, 0, fmt.Errorf("trace shorter than its header")
	}
	out := append(append([]byte(nil), hb.Bytes()...), raw[hb.Len():]...)
	return out, hb.Len(), nil
}

// timedConn calls halfClosed at the moment SendTrace half-closes, which
// splits one SendTrace call into the time spent sending and the time from
// end of stream to the summary.
type timedConn struct {
	*net.TCPConn
	halfClosed func()
}

func (c *timedConn) CloseWrite() error {
	c.halfClosed()
	return c.TCPConn.CloseWrite()
}

// sendOne sends trace i (tenant i%serveTenants+1) on a new connection and
// checks its summary.
func (s *serve) sendOne(ctx context.Context, i int, chk *checker) {
	tenant := i%serveTenants + 1
	ctx, span := obs.StartSpan(ctx, "serve.trace")
	defer span.End()
	err := func() error {
		d := net.Dialer{Timeout: 30 * time.Second}
		conn, err := d.DialContext(ctx, "tcp", s.addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
			return err
		}
		_, send := obs.StartSpan(ctx, "fleet.send")
		defer send.End()
		var drain *obs.Span
		defer func() { drain.End() }()
		tc := &timedConn{TCPConn: conn.(*net.TCPConn), halfClosed: func() {
			send.End()
			_, drain = obs.StartSpan(ctx, "fleet.drain") //lint:allow obsspan ended by the deferred drain.End once SendTrace returns
		}}
		sum, err := stream.SendTrace(tc, bytes.NewReader(s.traces[tenant-1]))
		send.End()
		drain.End()
		if err != nil {
			return err
		}
		s.count(sum)
		return s.checkSummary(sum, tenant)
	}()
	chk.op(fmt.Sprintf("decode-serve trace %d", i), err)
}

func (s *serve) count(sum stream.Summary) {
	s.mu.Lock()
	s.admitted += int64(sum.Frames)
	s.shed += sum.Shed
	s.mu.Unlock()
}

// checkSummary holds a summary to the recording: every frame accounted
// for and none shed, and the same failures as Evaluate over the spec.
func (s *serve) checkSummary(sum stream.Summary, tenant int) error {
	switch {
	case sum.Error != "":
		return errors.New(sum.Error)
	case sum.Frames+int(sum.Shed) != s.cfg.sz.serveShots:
		return fmt.Errorf("%d admitted + %d shed != %d sent", sum.Frames, sum.Shed, s.cfg.sz.serveShots)
	case sum.Shed != 0:
		return fmt.Errorf("%d frames shed", sum.Shed)
	case sum.Failures != s.oracle:
		return fmt.Errorf("server counts %d failures, Evaluate %d", sum.Failures, s.oracle)
	case sum.Tenant != uint32(tenant):
		return fmt.Errorf("summary for tenant %d, sent as %d", sum.Tenant, tenant)
	}
	return nil
}

// step runs one phase-A burst and one phase-B burst, a whole cycle.
func (s *serve) step(ctx context.Context, traced bool, chk *checker) (bool, error) {
	if traced {
		s.parse(ctx, chk)
	}
	var before, after runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	s.phaseA(ctx, chk)
	if traced {
		runtime.ReadMemStats(&after)
		s.aMallocs += after.Mallocs - before.Mallocs
	}
	s.phaseB(ctx, chk)
	return true, nil
}

// phaseA sends serveBurstA traces back to back, spread over the
// connections.
func (s *serve) phaseA(ctx context.Context, chk *checker) {
	n, conns := s.cfg.sz.serveBurstA, serveConns
	c0 := cpuTime()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += conns {
				s.sendOne(ctx, i, chk)
			}
		}(c)
	}
	wg.Wait()
	frames := n * s.cfg.sz.serveShots
	s.aRates = append(s.aRates, float64(frames)/(cpuTime()-c0).Seconds())
	s.aFrames += frames
}

// phaseB sends serveBurstB traces due at the fixed offered rate from the
// burst's start. A sender takes the next trace in due order, waits for its
// due time if early, and times the result from the due time, so a stall
// delays every trace queued behind it. The burst's latency percentiles are
// recorded when it ends.
func (s *serve) phaseB(ctx context.Context, chk *checker) {
	n, conns := s.cfg.sz.serveBurstB, serveConns
	interval := time.Duration(float64(time.Second) / s.cfg.serveRate)
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
		lat  []float64 // this burst's latencies, guarded by s.mu
	)
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late := time.Since(due)
				s.sendOne(ctx, i, chk)
				done := time.Since(due)
				s.mu.Lock()
				s.lateMs = append(s.lateMs, ms(late))
				lat = append(lat, ms(done))
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.burstP50 = append(s.burstP50, quantile(lat, 0.5))
	s.burstP75 = append(s.burstP75, quantile(lat, 0.75))
}

// parse reads the recorded trace from memory with a stream.Reader, timing
// the wire parse (length prefix, CRC, unpacking) alone under a
// stream.parse span, and checks every frame comes back.
func (s *serve) parse(ctx context.Context, chk *checker) {
	const reps = 16
	_, span := obs.StartSpan(ctx, "stream.parse")
	defer span.End()
	for r := 0; r < reps; r++ {
		rd, err := stream.NewReader(bytes.NewReader(s.traces[0]))
		if err == nil {
			var f stream.Frame
			for err = rd.Next(&f); err == nil; err = rd.Next(&f) {
				s.parsed++
			}
			if err == io.EOF {
				err = nil
				if n := rd.Frames(); n != uint64(s.cfg.sz.serveShots) {
					err = fmt.Errorf("parsed %d frames of %d", n, s.cfg.sz.serveShots)
				}
			}
		}
		chk.op("decode-serve parse", err)
	}
}

func (s *serve) endToEnd(m metricSet) {
	m.set("frames_per_s", "1/s", median(s.aRates))
	// Medians over bursts: a stretch in which the shared host stalls the
	// process moves the bursts it covers, not the whole run's figure.
	m.set("result_ms_p50", "ms", median(s.burstP50))
}

func (s *serve) layers(m metricSet, spans *spanIndex) {
	const ph = "decode-serve"
	m.set("stream.parse_ns_per_frame", "ns", spans.totalMs(ph, "stream.parse")*1e6/float64(s.parsed))
	m.set("stream.frame_bytes", "bytes", float64(len(s.traces[0])-s.hdrLen)/float64(s.cfg.sz.serveShots))
	m.set("fleet.send_ms", "ms", spans.meanMs(ph, "fleet.send"))
	m.set("fleet.drain_ms", "ms", spans.meanMs(ph, "fleet.drain"))
	m.set("fleet.admitted", "count", float64(s.admitted))
	m.set("fleet.shed", "count", float64(s.shed))
	m.set("fleet.decode_p99_ns", "ns", s.reg.Histogram("fleet.decode.latency").Quantile(0.99))
	m.set("fleet.allocs_per_frame", "count", float64(s.aMallocs)/float64(s.aFrames))
	m.set("serve.late_ms_p99", "ms", quantile(s.lateMs, 0.99))
	// The latency tail is reported here, without a bound: it magnifies the
	// shared host's slow stretches beyond any bound an end-to-end metric
	// may take.
	m.set("serve.result_ms_p75", "ms", median(s.burstP75))
}
