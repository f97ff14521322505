package stream

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Summary is the server's single-line JSON reply to one ingested stream
// (fleet.Server writes it; SendTrace reads it).
type Summary struct {
	Frames    int     `json:"frames"`
	Failures  int     `json:"failures"`
	LER       float64 `json:"ler"`
	Truncated bool    `json:"truncated,omitempty"`
	Error     string  `json:"error,omitempty"`
	// Stream is the server-assigned stream name ("t<tenant>-conn-<n>")
	// when drift monitoring is on; look it up under /health/stream/<Stream>.
	Stream string `json:"stream,omitempty"`
	// DriftEvents counts the drift events the stream's monitor generated.
	DriftEvents int64 `json:"drift_events,omitempty"`
	// Tenant echoes the tenant the stream was accounted to.
	Tenant uint32 `json:"tenant,omitempty"`
	// Shed counts frames the fleet declined under admission control or
	// queue backpressure; Frames counts only the decoded ones, so
	// Frames+Shed is what the client sent.
	Shed int64 `json:"shed,omitempty"`
	// Overload marks a stream the fleet shed — entirely (admission refused,
	// Frames == 0) or partially (Shed > 0). SendTrace surfaces it as
	// ErrOverload.
	Overload bool `json:"overload,omitempty"`
}

// Catalog maps circuit fingerprints to frame scorers: the server's view of
// which circuits it can decode. Safe for concurrent use.
type Catalog struct {
	mu sync.RWMutex
	m  map[[16]byte]FrameScorer
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{m: map[[16]byte]FrameScorer{}}
}

// Register adds (or replaces) the scorer serving fingerprint fp.
func (c *Catalog) Register(fp [16]byte, s FrameScorer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[fp] = s
}

// Len returns how many fingerprints are registered.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Resolve returns the scorer for h's fingerprint, verifying the trace
// geometry against the scorer's circuit when the scorer exposes it (as
// *mc.FrameDecoder does).
func (c *Catalog) Resolve(h Header) (FrameScorer, error) {
	c.mu.RLock()
	s, ok := c.m[h.Fingerprint]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("stream: no decoder registered for circuit fingerprint %x", h.Fingerprint)
	}
	if dims, ok := s.(interface {
		NumDetectors() int
		NumObs() int
	}); ok {
		if dims.NumDetectors() != h.NumDetectors || dims.NumObs() != h.NumObs {
			return nil, fmt.Errorf("stream: trace geometry (%d detectors, %d observables) does not match decoder (%d, %d)",
				h.NumDetectors, h.NumObs, dims.NumDetectors(), dims.NumObs())
		}
	}
	// Round geometry: a windowed decoder (exposing NumRounds, as
	// *mc.WindowedFrameDecoder does) splits each frame by round, so a trace
	// recorded with a different rounds-per-shot would be mis-sliced. v1
	// traces carry no round count (h.Rounds == 0) and are accepted — the
	// decoder's own round map governs the split.
	if rd, ok := s.(interface{ NumRounds() int }); ok && h.Rounds > 0 {
		if rd.NumRounds() != h.Rounds {
			return nil, fmt.Errorf("stream: trace rounds/shot %d does not match decoder rounds %d", h.Rounds, rd.NumRounds())
		}
	}
	return s, nil
}

// CloseWriter is the half-close capability SendTrace needs from its
// connection; *net.TCPConn implements it.
type CloseWriter interface {
	CloseWrite() error
}

// SendTrace streams an already-encoded trace from tr to conn, half-closes
// the write side so the server sees end-of-stream, and decodes the server's
// summary line. The caller owns conn (set deadlines there for timeouts) and
// closes it afterwards.
//
// A decoded summary is the server's own account of the stream, so it wins
// over any send-side error: a server that rejects or sheds a stream writes
// its summary and closes, which surfaces client-side as a write error
// (EPIPE/RST) mid-copy or as ENOTCONN from the half-close. The send error is
// returned only when no summary arrives. When the server shed the stream the
// returned error wraps ErrOverload and the Summary still carries the
// server's accounting (admitted frames, shed count, tenant).
func SendTrace(conn io.ReadWriter, tr io.Reader) (Summary, error) {
	cw, ok := conn.(CloseWriter)
	if !ok {
		return Summary{}, fmt.Errorf("stream: connection %T cannot half-close; SendTrace requires a CloseWriter", conn)
	}
	// A broken connection makes the summary read below fail fast rather
	// than block, so a send error never needs to short-circuit it.
	copyErr := func() error {
		if _, err := io.Copy(conn, tr); err != nil {
			return fmt.Errorf("stream: sending trace: %w", err)
		}
		if err := cw.CloseWrite(); err != nil {
			return fmt.Errorf("stream: half-closing: %w", err)
		}
		return nil
	}()
	var sum Summary
	if err := json.NewDecoder(conn).Decode(&sum); err != nil {
		if copyErr != nil {
			return Summary{}, copyErr
		}
		return Summary{}, fmt.Errorf("stream: reading summary: %w", err)
	}
	if sum.Overload {
		return sum, fmt.Errorf("%w: %d frames admitted, %d shed (tenant %d)", ErrOverload, sum.Frames, sum.Shed, sum.Tenant)
	}
	return sum, nil
}
