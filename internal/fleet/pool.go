package fleet

import (
	"fmt"
	"sync"
	"time"

	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

// frame is one admitted decode work item. idx is the stream's dense
// admitted-frame index (shed frames consume none), which keys the drift
// monitor's windows scheduling-independently.
type frame struct {
	idx    int64
	obs    uint64
	packed []byte
}

// tenant is one tenant's scheduler state. All fields except the metric
// handles are guarded by the pool mutex.
type tenant struct {
	id     uint32
	cfg    TenantConfig
	bucket tokenBucket

	deficit  int       // DRR credit, in frames
	runnable []*Stream // FIFO of streams with queued frames
	queued   int       // total queued frames across runnable streams
	open     int       // concurrently open streams (MaxStreams accounting)
	inRing   bool

	admitted *obs.Counter   // fleet.tenant.<id>.admitted
	shed     *obs.Counter   // fleet.tenant.<id>.shed
	depth    *obs.Gauge     // fleet.tenant.<id>.queue.depth
	latency  *obs.Histogram // fleet.tenant.<id>.decode.latency
}

// Pool is the shared decode worker pool: a fixed set of workers claiming
// spans of queued frames from all open streams under deficit-round-robin
// across tenants (the mc.EvaluateBatch span-granular scheduler shape, with
// tenants in place of specs). Safe for concurrent use.
type Pool struct {
	cfg      Config
	nworkers int
	queueCap int
	quantum  int
	now      func() time.Time
	reg      *obs.Registry

	latency   *obs.Histogram // fleet.decode.latency
	occupancy *obs.Gauge     // fleet.pool.occupancy
	openG     *obs.Gauge     // fleet.streams.open
	rejectedC *obs.Counter   // fleet.streams.rejected

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	tenants map[uint32]*tenant
	ring    []*tenant // tenants with queued frames, DRR order
	cursor  int       // ring position of the next tenant to serve
	busy    int
	openN   int

	wg sync.WaitGroup
}

// NewPool starts the worker pool. The caller must Close it to drain queued
// frames and join the workers.
func NewPool(cfg Config) *Pool {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default
	}
	p := &Pool{
		cfg:       cfg,
		nworkers:  cfg.workers(),
		queueCap:  cfg.streamQueue(),
		quantum:   cfg.quantum(),
		now:       cfg.clock(),
		reg:       reg,
		latency:   reg.Histogram("fleet.decode.latency"),
		occupancy: reg.Gauge("fleet.pool.occupancy"),
		openG:     reg.Gauge("fleet.streams.open"),
		rejectedC: reg.Counter("fleet.streams.rejected"),
		tenants:   map[uint32]*tenant{},
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < p.nworkers; i++ {
		p.wg.Add(1)
		go func() { //lint:allow bareloop the pool owns its workers; Close() drains every stream queue and joins them
			defer p.wg.Done()
			p.worker()
		}()
	}
	return p
}

// Workers returns the pool's decode concurrency.
func (p *Pool) Workers() int { return p.nworkers }

// getTenantLocked lazily materializes a tenant's scheduler state and metric
// handles. Called with mu held.
func (p *Pool) getTenantLocked(id uint32) *tenant {
	t := p.tenants[id]
	if t == nil {
		cfg := p.cfg.tenant(id)
		t = &tenant{
			id:     id,
			cfg:    cfg,
			bucket: tokenBucket{rate: cfg.FrameRate, burst: cfg.Burst},
		}
		pre := fmt.Sprintf("fleet.tenant.%d.", id)
		t.admitted = p.reg.Counter(pre + "admitted")
		t.shed = p.reg.Counter(pre + "shed")
		t.depth = p.reg.Gauge(pre + "queue.depth")
		t.latency = p.reg.Histogram(pre + "decode.latency")
		p.tenants[id] = t
	}
	return t
}

// Open admits a new stream for h.Tenant, decoding its frames with scorer.
// It never blocks: a tenant at its MaxStreams cap is refused with an error
// wrapping stream.ErrOverload. name labels the stream's drift monitor in
// the health registry when monitoring is configured.
func (p *Pool) Open(h stream.Header, scorer stream.FrameScorer, name string) (*Stream, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: pool closed", stream.ErrOverload)
	}
	t := p.getTenantLocked(h.Tenant)
	if t.cfg.MaxStreams > 0 && t.open >= t.cfg.MaxStreams {
		p.mu.Unlock()
		p.rejectedC.Inc()
		return nil, fmt.Errorf("%w: tenant %d at its %d-stream cap", stream.ErrOverload, h.Tenant, t.cfg.MaxStreams)
	}
	t.open++
	p.openN++
	openN := p.openN
	p.mu.Unlock()
	p.openG.Set(float64(openN))

	fbytes := stream.FrameBytes(h.NumDetectors)
	s := &Stream{
		p:      p,
		t:      t,
		scorer: scorer,
		name:   name,
		room:   sync.NewCond(&p.mu),
		done:   make(chan struct{}),
	}
	s.bufs.New = func() interface{} { return make([]byte, fbytes) }
	if p.cfg.Estimator.Window > 0 {
		cfg := p.cfg.Estimator
		cfg.Stream = name
		s.mon = stream.NewMonitor(cfg, scorer, h, p.reg)
		cfg.Health.Register(s.mon)
	}
	return s, nil
}

// Close stops admission, lets the workers drain every queued frame, and
// joins them. Streams still waiting on Done are completed by the drain, and
// an Offer blocked on a full queue returns false.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	// A blocked Offer's queue is full, so its stream is runnable and its
	// tenant in the ring: this reaches every one.
	for _, t := range p.ring {
		for _, s := range t.runnable {
			s.room.Broadcast()
		}
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// worker claims and decodes spans until the pool closes and drains.
func (p *Pool) worker() {
	var syn []int
	var span []frame
	for {
		var st *Stream
		st, span = p.claim(span)
		if st == nil {
			return
		}
		failures := 0
		for i := range span {
			f := &span[i]
			fr := stream.Frame{Obs: f.obs, Packed: f.packed}
			syn = fr.Syndrome(syn[:0])
			var failed bool
			if p.latency != nil {
				start := p.reg.Now()
				failed = st.scorer.ScoreFrame(syn, f.obs)
				ns := p.reg.Now().Sub(start).Nanoseconds()
				p.latency.Observe(ns)
				st.t.latency.Observe(ns)
			} else {
				failed = st.scorer.ScoreFrame(syn, f.obs)
			}
			if failed {
				failures++
			}
			st.mon.Observe(f.idx, syn, failed)
			st.bufs.Put(f.packed)
		}
		p.complete(st, len(span), failures)
	}
}

// claim blocks until a span is available (returning it in span's backing
// array) or the pool is closed and fully drained (returning a nil stream).
func (p *Pool) claim(span []frame) (*Stream, []frame) {
	p.mu.Lock()
	for {
		if st, sp := p.claimLocked(span); st != nil {
			p.busy++
			p.occupancy.Set(float64(p.busy) / float64(p.nworkers))
			depth := st.t.queued
			p.mu.Unlock()
			st.t.depth.Set(float64(depth))
			return st, sp
		}
		if p.closed {
			p.mu.Unlock()
			return nil, span
		}
		p.cond.Wait()
	}
}

// claimLocked implements the deficit-round-robin claim: the cursor tenant
// earns quantum×weight credits when out, then surrenders up to its credit
// in consecutive frames from its head stream (copied into span's backing —
// the stream queue may be recycled while the span decodes). A tenant whose
// queues empty leaves the ring and forfeits leftover credit, so an idle
// tenant never banks a burst. Called with mu held.
func (p *Pool) claimLocked(span []frame) (*Stream, []frame) {
	if len(p.ring) == 0 {
		return nil, span
	}
	if p.cursor >= len(p.ring) {
		p.cursor = 0
	}
	t := p.ring[p.cursor]
	if t.deficit <= 0 {
		t.deficit += p.quantum * t.cfg.Weight
	}
	s := t.runnable[0]
	n := len(s.queue) - s.head
	if n > t.deficit {
		n = t.deficit
	}
	span = append(span[:0], s.queue[s.head:s.head+n]...)
	s.head += n
	s.room.Signal()
	s.inflight += n
	t.deficit -= n
	t.queued -= n
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
		s.runnable = false
		t.runnable = t.runnable[1:]
	} else if len(t.runnable) > 1 {
		// Partial drain with siblings waiting: rotate to the back so the
		// tenant's own streams share its credit round-robin.
		t.runnable = append(t.runnable[1:], s)
	}
	switch {
	case t.queued == 0:
		t.deficit = 0
		t.inRing = false
		p.ring = append(p.ring[:p.cursor], p.ring[p.cursor+1:]...)
	case t.deficit <= 0:
		p.cursor++
	}
	return s, span
}

// complete commits one decoded span's accounting and closes the stream's
// Done channel when it was the last outstanding work of a half-closed
// stream.
func (p *Pool) complete(st *Stream, n, failures int) {
	p.mu.Lock()
	st.inflight -= n
	st.failures += int64(failures)
	done := st.eof && !st.doneClosed && st.inflight == 0 && len(st.queue) == st.head
	if done {
		st.doneClosed = true
	}
	p.busy--
	p.occupancy.Set(float64(p.busy) / float64(p.nworkers))
	p.mu.Unlock()
	if done {
		close(st.done)
	}
}

// Stream is one admitted connection's handle into the pool. Offer,
// CloseSend, Done, Stats and Close are safe for concurrent use with the
// pool's workers; Offer itself is single-producer (one connection reader).
type Stream struct {
	p      *Pool
	t      *tenant
	scorer stream.FrameScorer
	mon    *stream.Monitor
	name   string
	bufs   sync.Pool
	room   *sync.Cond // on p.mu; a claim freed queue space or the pool closed

	done chan struct{}

	// guarded by p.mu
	queue      []frame
	head       int
	inflight   int
	eof        bool
	released   bool
	runnable   bool
	doneClosed bool
	nextIdx    int64
	admitted   int64
	shed       int64
	failures   int64
}

// Name returns the server-assigned stream name.
func (s *Stream) Name() string { return s.name }

// Offer submits one frame. It reports false — and counts the shed — when
// the tenant's token bucket is empty, the stream is half-closed, or the pool
// has shut down. A full stream queue sheds too, unless Config.Block is set:
// then Offer waits until a worker claims from the queue (or the pool closes)
// — the only case in which it blocks. packed is copied; the caller keeps
// ownership.
func (s *Stream) Offer(packed []byte, obsMask uint64) bool {
	p := s.p
	p.mu.Lock()
	for p.cfg.Block && !p.closed && len(s.queue)-s.head >= p.queueCap {
		s.room.Wait()
	}
	if s.eof || p.closed || len(s.queue)-s.head >= p.queueCap || !s.t.bucket.take(p.now()) {
		s.shed++
		p.mu.Unlock()
		s.t.shed.Inc()
		return false
	}
	if s.head > 0 && len(s.queue) == cap(s.queue) {
		// A queue that never fully drains would otherwise grow its backing
		// array with every frame; slide the live frames to the front.
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
	buf := s.bufs.Get().([]byte)
	copy(buf, packed)
	s.queue = append(s.queue, frame{idx: s.nextIdx, obs: obsMask, packed: buf})
	s.nextIdx++
	s.admitted++
	s.t.queued++
	depth := s.t.queued
	if !s.runnable {
		s.runnable = true
		s.t.runnable = append(s.t.runnable, s)
		if !s.t.inRing {
			s.t.inRing = true
			p.ring = append(p.ring, s.t)
		}
	}
	p.mu.Unlock()
	s.t.admitted.Inc()
	s.t.depth.Set(float64(depth))
	p.cond.Signal()
	return true
}

// CloseSend marks end-of-stream: no more Offers will arrive. Queued and
// in-flight frames still decode; Done closes once they have.
func (s *Stream) CloseSend() {
	p := s.p
	p.mu.Lock()
	if s.eof {
		p.mu.Unlock()
		return
	}
	s.eof = true
	done := !s.doneClosed && s.inflight == 0 && len(s.queue) == s.head
	if done {
		s.doneClosed = true
	}
	p.mu.Unlock()
	if done {
		close(s.done)
	}
}

// Done closes when every admitted frame has been decoded after CloseSend.
// The wait is bounded: at most StreamQueue queued frames plus one in-flight
// span remain at half-close.
func (s *Stream) Done() <-chan struct{} { return s.done }

// StreamStats is one stream's final (or live) accounting.
type StreamStats struct {
	// Admitted frames entered the queue and were (or will be) decoded;
	// Failures of them scored as logical failures. Shed frames were
	// declined by admission control or queue backpressure.
	Admitted    int64
	Shed        int64
	Failures    int64
	DriftEvents int64
}

// Stats reads the stream's accounting; call after Done for final values.
func (s *Stream) Stats() StreamStats {
	s.p.mu.Lock()
	st := StreamStats{Admitted: s.admitted, Shed: s.shed, Failures: s.failures}
	s.p.mu.Unlock()
	st.DriftEvents = s.mon.Events()
	return st
}

// Close releases the stream's admission slot and finalizes its drift
// monitor's trailing partial window. Idempotent. Call once the stream is
// drained (after Done); the monitor stays registered in the health registry
// so /health keeps serving the final state.
func (s *Stream) Close() {
	p := s.p
	p.mu.Lock()
	if s.released {
		p.mu.Unlock()
		return
	}
	s.released = true
	s.t.open--
	p.openN--
	openN := p.openN
	p.mu.Unlock()
	p.openG.Set(float64(openN))
	s.mon.Finalize()
}
