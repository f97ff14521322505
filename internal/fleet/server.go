package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

// Server ingests trace streams over any net.Listener and decodes every
// connection through one shared Pool. The protocol is the trace format
// itself: a client streams header plus frames, half-closes its write side,
// and receives one JSON stream.Summary line. The trace header's Tenant field
// selects the admission and scheduling policy. Backpressure follows
// Config.Block: by default shedding is reported in the summary (Shed count,
// Overload flag) and the read loop keeps consuming frames even when all of
// them shed; with Block a full stream queue stalls the read instead, which
// TCP flow control carries back to the sender.
type Server struct {
	pool    *Pool
	resolve func(stream.Header) (stream.FrameScorer, error)
	events  *obs.EventSink
	est     bool

	conns    *obs.Counter // fleet.server.conns
	active   *obs.Gauge   // fleet.server.active
	rejected *obs.Counter // fleet.server.rejected
	activeN  atomic.Int64
	connSeq  atomic.Int64
}

// NewServer builds the pool from cfg and resolves incoming streams through
// resolve (typically stream.Catalog.Resolve). Each connection's drift
// monitor (when cfg.Estimator.Window > 0) registers under
// "t<tenant>-conn-<n>".
func NewServer(cfg Config, resolve func(stream.Header) (stream.FrameScorer, error)) *Server {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	return &Server{
		pool:     NewPool(cfg),
		resolve:  resolve,
		events:   cfg.Estimator.Events,
		est:      cfg.Estimator.Window > 0,
		conns:    reg.Counter("fleet.server.conns"),
		active:   reg.Gauge("fleet.server.active"),
		rejected: reg.Counter("fleet.server.rejected"),
	}
}

// Pool returns the server's shared worker pool (tests and metrics probes).
func (s *Server) Pool() *Pool { return s.pool }

// Serve accepts connections until ctx is canceled, then drains: handlers
// finish their streams (the pool decodes what was admitted), the pool shuts
// down, and the drift-event sink is flushed — so no events from final
// partial windows are lost at shutdown. A cancellation-triggered stop
// returns nil. Serve owns the pool's lifecycle: it is one-shot.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var wg sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		s.conns.Inc()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handleConn(ctx, conn)
		}()
	}
	wg.Wait()
	s.pool.Close()
	if err := s.events.Flush(); err != nil && acceptErr == nil {
		acceptErr = fmt.Errorf("fleet: flushing drift events: %w", err)
	}
	return acceptErr
}

// handleConn reads one connection's frames into the pool and writes the
// summary. Unless Config.Block is set the loop never blocks on the pool —
// Offer sheds instead — so a slow or saturated pool cannot stall the socket.
// A blocked Offer returns once a worker claims from the stream's queue, so
// cancellation still ends the loop after a bounded amount of decoding.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	ctx, span := obs.StartSpan(ctx, "fleet.serve_conn")
	defer span.End()
	s.active.Set(float64(s.activeN.Add(1)))
	defer func() { s.active.Set(float64(s.activeN.Add(-1))) }()

	r, err := stream.NewReader(conn)
	if err != nil {
		s.rejected.Inc()
		span.Event("rejected")
		writeSummary(conn, stream.Summary{Error: err.Error()})
		return
	}
	h := r.Header()
	scorer, err := s.resolve(h)
	if err != nil {
		s.rejected.Inc()
		span.Event("rejected")
		writeSummary(conn, stream.Summary{Tenant: h.Tenant, Error: err.Error()})
		return
	}
	name := fmt.Sprintf("t%d-conn-%d", h.Tenant, s.connSeq.Add(1))
	st, err := s.pool.Open(h, scorer, name)
	if err != nil {
		// Admission refused (stream cap): the overload summary is the typed
		// wire response — SendTrace surfaces it as stream.ErrOverload.
		s.rejected.Inc()
		span.Event("overload")
		writeSummary(conn, stream.Summary{Overload: true, Tenant: h.Tenant, Error: err.Error()})
		return
	}
	defer st.Close()

	var f stream.Frame
	var rerr error
	for {
		if err := ctx.Err(); err != nil {
			rerr = err
			break
		}
		err := r.Next(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			rerr = err
			break
		}
		st.Offer(f.Packed, f.Obs)
	}
	st.CloseSend()
	// Bounded wait: at most one stream queue plus the in-flight span.
	<-st.Done()

	stats := st.Stats()
	sum := stream.Summary{
		Frames:    int(stats.Admitted),
		Failures:  int(stats.Failures),
		Tenant:    h.Tenant,
		Shed:      stats.Shed,
		Overload:  stats.Shed > 0,
		Truncated: errors.Is(rerr, stream.ErrTruncated),
	}
	if s.est {
		sum.Stream = name
		sum.DriftEvents = stats.DriftEvents
	}
	if stats.Admitted > 0 {
		sum.LER = float64(stats.Failures) / float64(stats.Admitted)
	}
	if rerr != nil && !errors.Is(rerr, stream.ErrTruncated) {
		sum.Error = rerr.Error()
	}
	span.SetAttr("frames", int(stats.Admitted))
	span.SetAttr("shed", int(stats.Shed))
	writeSummary(conn, sum)
}

// writeSummary sends one JSON summary line; errors are ignored (the peer
// may already be gone, the accounting is recorded regardless).
func writeSummary(w io.Writer, sum stream.Summary) {
	_ = json.NewEncoder(w).Encode(sum)
}
