package fleet_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caliqec/internal/fleet"
	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

func testHeader(numDet int, tenant uint32) stream.Header {
	return stream.Header{NumDetectors: numDet, NumObs: 1, Tenant: tenant}
}

// parityScorer fails a frame when the low observable bit is set.
type parityScorer struct{}

func (parityScorer) ScoreFrame(syndrome []int, actual uint64) bool { return actual&1 == 1 }

// gatedScorer blocks every ScoreFrame call until its gate closes, holding
// the pool's workers so tests can fill queues deterministically. entered
// counts calls that reached the gate (i.e. frames a worker has claimed).
type gatedScorer struct {
	gate    chan struct{}
	entered atomic.Int64
	scored  atomic.Int64
}

func (g *gatedScorer) ScoreFrame(syndrome []int, actual uint64) bool {
	g.entered.Add(1)
	<-g.gate
	g.scored.Add(1)
	return actual&1 == 1
}

// taggingScorer appends its tag to a shared ordered log per scored frame,
// so a single-worker pool's claim order becomes observable.
type taggingScorer struct {
	tag  string
	mu   *sync.Mutex
	log  *[]string
	gate chan struct{}
}

func (s *taggingScorer) ScoreFrame(syndrome []int, actual uint64) bool {
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	*s.log = append(*s.log, s.tag)
	s.mu.Unlock()
	return false
}

// offerAll pushes n dummy frames through st and returns how many admitted.
func offerAll(st *fleet.Stream, fbytes, n int) int {
	packed := make([]byte, fbytes)
	admitted := 0
	for i := 0; i < n; i++ {
		if st.Offer(packed, uint64(i&1)) {
			admitted++
		}
	}
	return admitted
}

// TestPoolDRRFairness pins the deficit-round-robin contract: with a
// single worker draining two saturated tenants of weights 1 and 3, the
// decode order interleaves ~1:3 — neither tenant starves and neither
// exceeds ~2x its weight share over any sizeable prefix.
func TestPoolDRRFairness(t *testing.T) {
	var mu sync.Mutex
	var log []string
	gate := make(chan struct{})

	p := fleet.NewPool(fleet.Config{
		Workers:     1,
		StreamQueue: 1024,
		Quantum:     10,
		Metrics:     obs.Discard,
		Tenants: map[uint32]fleet.TenantConfig{
			1: {Weight: 1},
			2: {Weight: 3},
		},
	})
	defer p.Close()

	// Park the worker on a gated frame first so both queues can be loaded
	// before any scheduling happens. The hold scorer logs nothing.
	hold := &gatedScorer{gate: gate}
	stHold, err := p.Open(testHeader(8, 1), hold, "hold")
	if err != nil {
		t.Fatal(err)
	}
	if got := offerAll(stHold, 1, 1); got != 1 {
		t.Fatalf("hold frame not admitted")
	}
	waitFor(t, func() bool { return hold.entered.Load() == 1 })

	stA, err := p.Open(testHeader(8, 1), &taggingScorer{tag: "A", mu: &mu, log: &log}, "a")
	if err != nil {
		t.Fatal(err)
	}
	stB, err := p.Open(testHeader(8, 2), &taggingScorer{tag: "B", mu: &mu, log: &log}, "b")
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	if got := offerAll(stA, 1, n); got != n {
		t.Fatalf("tenant 1 admitted %d of %d", got, n)
	}
	if got := offerAll(stB, 1, n); got != n {
		t.Fatalf("tenant 2 admitted %d of %d", got, n)
	}
	close(gate)
	for _, st := range []*fleet.Stream{stHold, stA, stB} {
		st.CloseSend()
		<-st.Done()
		st.Close()
	}

	mu.Lock()
	defer mu.Unlock()
	// Both tenants saturate the whole prefix; over it tenant 2 (weight 3)
	// must hold ~3/4 of the decode slots.
	prefix := log
	const window = 200
	if len(prefix) < window {
		t.Fatalf("only %d scored frames", len(prefix))
	}
	countA := 0
	for _, tag := range prefix[:window] {
		if tag == "A" {
			countA++
		}
	}
	// Fair share for weight 1 of 4 is 50/200; 2x tolerance per the fleet
	// SLO (no tenant deviates more than 2x its weight share), plus one
	// quantum of span granularity.
	if countA < window/8-10 || countA > window/2+10 {
		t.Fatalf("weight-1 tenant got %d of first %d decode slots, want ~%d (2x band)", countA, window, window/4)
	}
}

// TestOfferShedsNeverBlocks is the backpressure stress contract: with the
// pool wedged and the stream queue full, Offer must return false
// immediately (shed + count) rather than block, and the final accounting
// must explain every offered frame as admitted or shed.
func TestOfferShedsNeverBlocks(t *testing.T) {
	gate := make(chan struct{})
	g := &gatedScorer{gate: gate}
	const queue = 8
	p := fleet.NewPool(fleet.Config{
		Workers:     1,
		StreamQueue: queue,
		Quantum:     1,
		Metrics:     obs.Discard,
	})
	defer p.Close()

	st, err := p.Open(testHeader(16, 0), g, "s")
	if err != nil {
		t.Fatal(err)
	}
	packed := make([]byte, 2)
	if !st.Offer(packed, 0) {
		t.Fatal("first frame shed by an idle pool")
	}
	// The worker claims it (quantum 1 → span of 1) and blocks on the gate.
	waitFor(t, func() bool { return g.entered.Load() == 1 })

	// Fill the queue, then overflow it. Every Offer must return promptly:
	// run the whole burst under a deadline watchdog.
	const burst = 100
	done := make(chan struct{})
	var admitted int
	go func() {
		defer close(done)
		admitted = offerAll(st, 2, burst)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Offer blocked with a full queue: backpressure must shed, not stall")
	}
	if admitted != queue {
		t.Fatalf("admitted %d of the burst, want exactly the queue capacity %d", admitted, queue)
	}

	close(gate)
	st.CloseSend()
	<-st.Done()
	stats := st.Stats()
	st.Close()
	if stats.Admitted != int64(1+queue) || stats.Shed != int64(burst-queue) {
		t.Fatalf("admitted=%d shed=%d, want %d/%d", stats.Admitted, stats.Shed, 1+queue, burst-queue)
	}
	if got := stats.Admitted + stats.Shed; got != 1+burst {
		t.Fatalf("accounting leak: admitted+shed=%d, offered %d", got, 1+burst)
	}
}

// TestOfferBlockWaitsForRoom is the stall-mode contract (Config.Block):
// with the worker wedged, a full stream queue holds the producer back
// instead of shedding, every frame is admitted once decoding resumes, and a
// blocked Offer returns (shedding) when the pool closes.
func TestOfferBlockWaitsForRoom(t *testing.T) {
	const queue, n = 4, 32
	cfg := fleet.Config{Workers: 1, StreamQueue: queue, Quantum: 1, Block: true, Metrics: obs.Discard}
	packed := make([]byte, 2)

	g := &gatedScorer{gate: make(chan struct{})}
	release := sync.OnceFunc(func() { close(g.gate) })
	p := fleet.NewPool(cfg)
	defer p.Close()
	defer release() // a failed assertion must not leave Close waiting on the gate
	st, err := p.Open(testHeader(16, 0), g, "s")
	if err != nil {
		t.Fatal(err)
	}
	var returned atomic.Int64
	done := make(chan int, 1)
	go func() {
		admitted := 0
		for i := 0; i < n; i++ {
			if st.Offer(packed, uint64(i&1)) {
				admitted++
			}
			returned.Add(1)
		}
		done <- admitted
	}()
	// The worker parks on frame 0 (quantum 1 → span of 1) and the queue
	// fills behind it; the next Offer must wait, not shed.
	waitFor(t, func() bool { return g.entered.Load() == 1 && returned.Load() == 1+queue })
	time.Sleep(50 * time.Millisecond)
	if got := returned.Load(); got != 1+queue {
		t.Fatalf("%d Offers returned with the queue full, want %d (the rest must wait)", got, 1+queue)
	}
	release()
	if admitted := <-done; admitted != n {
		t.Fatalf("admitted %d of %d frames in stall mode", admitted, n)
	}
	st.CloseSend()
	<-st.Done()
	stats := st.Stats()
	st.Close()
	if stats.Admitted != n || stats.Shed != 0 || g.scored.Load() != n {
		t.Fatalf("admitted=%d shed=%d scored=%d, want %d/0/%d", stats.Admitted, stats.Shed, g.scored.Load(), n, n)
	}

	// Pool.Close wakes an Offer blocked on a full queue.
	g2 := &gatedScorer{gate: make(chan struct{})}
	release2 := sync.OnceFunc(func() { close(g2.gate) })
	defer release2()
	p2 := fleet.NewPool(cfg)
	st, err = p2.Open(testHeader(16, 0), g2, "s2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1+queue; i++ {
		if !st.Offer(packed, 0) {
			t.Fatalf("frame %d shed below queue capacity", i)
		}
		if i == 0 {
			waitFor(t, func() bool { return g2.entered.Load() == 1 })
		}
	}
	blocked := make(chan bool, 1)
	go func() { blocked <- st.Offer(packed, 0) }()
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		p2.Close()
	}()
	select {
	case ok := <-blocked:
		if ok {
			t.Fatal("Offer admitted a frame into a closed pool")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Offer did not return on Pool.Close")
	}
	release2()
	<-closed
	st.CloseSend()
	<-st.Done()
	if stats := st.Stats(); stats.Admitted != 1+queue || stats.Shed != 1 {
		t.Fatalf("admitted=%d shed=%d, want %d/1", stats.Admitted, stats.Shed, 1+queue)
	}
	st.Close()
}

// TestMaxStreamsCap: the per-tenant concurrent-stream cap refuses the
// overflow stream with ErrOverload and frees the slot on Close.
func TestMaxStreamsCap(t *testing.T) {
	p := fleet.NewPool(fleet.Config{
		Workers: 1,
		Metrics: obs.Discard,
		Tenants: map[uint32]fleet.TenantConfig{7: {MaxStreams: 2}},
	})
	defer p.Close()

	h := testHeader(8, 7)
	s1, err := p.Open(h, parityScorer{}, "s1")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Open(h, parityScorer{}, "s2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open(h, parityScorer{}, "s3"); !errors.Is(err, stream.ErrOverload) {
		t.Fatalf("third stream: err=%v, want ErrOverload", err)
	}
	// Another tenant is unaffected by tenant 7's cap.
	if _, err := p.Open(testHeader(8, 8), parityScorer{}, "other"); err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	s1.CloseSend()
	<-s1.Done()
	s1.Close()
	if _, err := p.Open(h, parityScorer{}, "s4"); err != nil {
		t.Fatalf("slot not released after Close: %v", err)
	}
	_ = s2
}

// TestTokenBucketAdmission: with an injected clock, a tenant's frame
// budget admits exactly Burst frames up front and FrameRate per second
// after, shedding the rest deterministically.
func TestTokenBucketAdmission(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	p := fleet.NewPool(fleet.Config{
		Workers: 1,
		Metrics: obs.Discard,
		Now:     clock,
		Tenants: map[uint32]fleet.TenantConfig{3: {FrameRate: 10, Burst: 5}},
	})
	defer p.Close()

	st, err := p.Open(testHeader(8, 3), parityScorer{}, "s")
	if err != nil {
		t.Fatal(err)
	}
	if got := offerAll(st, 1, 20); got != 5 {
		t.Fatalf("burst admitted %d frames, want exactly Burst=5", got)
	}
	now = now.Add(500 * time.Millisecond) // 10/s * 0.5s = 5 tokens
	if got := offerAll(st, 1, 20); got != 5 {
		t.Fatalf("after 500ms admitted %d frames, want 5", got)
	}
	now = now.Add(time.Hour) // refill caps at Burst, not rate*elapsed
	if got := offerAll(st, 1, 20); got != 5 {
		t.Fatalf("after an hour admitted %d frames, want Burst cap 5", got)
	}
	st.CloseSend()
	<-st.Done()
	stats := st.Stats()
	st.Close()
	if stats.Admitted != 15 || stats.Shed != 45 {
		t.Fatalf("admitted=%d shed=%d, want 15/45", stats.Admitted, stats.Shed)
	}
}

// TestPoolCloseDrains: frames queued before Close are decoded, not
// dropped; Done closes for every half-closed stream.
func TestPoolCloseDrains(t *testing.T) {
	g := &gatedScorer{gate: make(chan struct{})}
	p := fleet.NewPool(fleet.Config{Workers: 2, StreamQueue: 64, Metrics: obs.Discard})

	st, err := p.Open(testHeader(16, 0), g, "s")
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	if got := offerAll(st, 2, n); got != n {
		t.Fatalf("admitted %d of %d", got, n)
	}
	st.CloseSend()
	close(g.gate)
	p.Close() // must drain the 32 queued frames before joining workers
	select {
	case <-st.Done():
	default:
		t.Fatal("Done not closed after pool drain")
	}
	stats := st.Stats()
	if stats.Admitted != n || g.scored.Load() != n {
		t.Fatalf("decoded %d (stats %d), want %d", g.scored.Load(), stats.Admitted, n)
	}
	st.Close()
}

// TestTenantMetrics: per-tenant counters and the queue-depth gauge land in
// the shared registry under fleet.tenant.<id>.*.
func TestTenantMetrics(t *testing.T) {
	reg := obs.NewRegistry(nil)
	p := fleet.NewPool(fleet.Config{
		Workers: 1,
		Metrics: reg,
		Tenants: map[uint32]fleet.TenantConfig{5: {FrameRate: 1e-9, Burst: 2}},
	})
	defer p.Close()

	st, err := p.Open(testHeader(8, 5), parityScorer{}, "s")
	if err != nil {
		t.Fatal(err)
	}
	offerAll(st, 1, 10) // 2 admitted (burst), 8 shed
	st.CloseSend()
	<-st.Done()
	st.Close()

	if got := reg.Counter("fleet.tenant.5.admitted").Value(); got != 2 {
		t.Fatalf("admitted counter %d, want 2", got)
	}
	if got := reg.Counter("fleet.tenant.5.shed").Value(); got != 8 {
		t.Fatalf("shed counter %d, want 8", got)
	}
	if snap := reg.Histogram("fleet.tenant.5.decode.latency").Snapshot(); snap.Count != 2 {
		t.Fatalf("latency histogram count %d, want 2", snap.Count)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
