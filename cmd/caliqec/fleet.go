package main

import (
	"bytes"
	"caliqec/internal/decoder"
	"caliqec/internal/fleet"
	"caliqec/internal/mc"
	"caliqec/internal/stream"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// parseTenantWeights parses "id:weight[,id:weight...]" (e.g. "1:3,2:1").
func parseTenantWeights(s string) (map[uint32]int, error) {
	m := map[uint32]int{}
	if s == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("invalid tenant weight %q (want id:weight)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 32)
		w, werr := strconv.Atoi(kv[1])
		if err != nil || werr != nil || w <= 0 {
			return nil, fmt.Errorf("invalid tenant weight %q (want id:weight, weight >= 1)", part)
		}
		m[uint32(id)] = w
	}
	return m, nil
}

// fleetServeFlags bundles the serve flags that configure the shared pool.
type fleetServeFlags struct {
	shed          *bool
	workers       *int
	streamQueue   *int
	quantum       *int
	tenantRate    *float64
	tenantBurst   *float64
	tenantStreams *int
	tenantWeights *string
}

func addFleetFlags(fs *flag.FlagSet) fleetServeFlags {
	return fleetServeFlags{
		shed:          fs.Bool("fleet", false, "shed frames a full stream queue cannot take and report them in the summary, instead of stalling the sender through TCP flow control"),
		workers:       fs.Int("fleet-workers", 0, "shared decode pool size (0 = GOMAXPROCS); this is the whole server's decode concurrency"),
		streamQueue:   fs.Int("stream-queue", 0, "per-stream admitted-frame queue bound (0 = 256)"),
		quantum:       fs.Int("quantum", 0, "deficit-round-robin quantum in frames (0 = 64)"),
		tenantRate:    fs.Float64("tenant-rate", 0, "default per-tenant admitted-frame budget in frames/s (0 = unmetered); over-rate frames shed even without -fleet"),
		tenantBurst:   fs.Float64("tenant-burst", 0, "default per-tenant token-bucket burst in frames (0 = one second of -tenant-rate)"),
		tenantStreams: fs.Int("tenant-streams", 0, "default per-tenant concurrent-stream cap (0 = uncapped); over-cap streams are refused"),
		tenantWeights: fs.String("tenant-weights", "", "per-tenant scheduling weights as id:weight[,id:weight...]; unlisted tenants weigh 1"),
	}
}

// config builds the fleet.Config the flags describe; est carries the drift
// flags through to the pool's per-stream monitors.
func (ff fleetServeFlags) config(est stream.EstimatorConfig) (fleet.Config, error) {
	weights, err := parseTenantWeights(*ff.tenantWeights)
	if err != nil {
		return fleet.Config{}, err
	}
	def := fleet.TenantConfig{
		FrameRate:  *ff.tenantRate,
		Burst:      *ff.tenantBurst,
		MaxStreams: *ff.tenantStreams,
	}
	cfg := fleet.Config{
		Workers:     *ff.workers,
		StreamQueue: *ff.streamQueue,
		Quantum:     *ff.quantum,
		Block:       !*ff.shed,
		Default:     def,
		Estimator:   est,
	}
	if len(weights) > 0 {
		cfg.Tenants = map[uint32]fleet.TenantConfig{}
		for id, w := range weights {
			tc := def
			tc.Weight = w
			cfg.Tenants[id] = tc
		}
	}
	return cfg, nil
}

// reTenant rewrites a recorded trace's header with the given tenant ID,
// keeping every frame byte: the header is re-encoded (its CRC covers the
// tenant field), the frames are appended untouched.
func reTenant(raw []byte, h stream.Header, tenant uint32) ([]byte, error) {
	h.Tenant = tenant
	var hb bytes.Buffer
	if _, err := stream.NewWriter(&hb, h); err != nil {
		return nil, err
	}
	if hb.Len() > len(raw) {
		return nil, fmt.Errorf("trace shorter than its header")
	}
	out := make([]byte, 0, len(raw))
	out = append(out, hb.Bytes()...)
	return append(out, raw[hb.Len():]...), nil
}

// pacedReader throttles a trace to a target byte rate so a stream's offered
// load is sustained over the run instead of one TCP burst. Scheduling-weight
// fairness is only observable under sustained queue contention: an unpaced
// client dumps its whole trace before the pool drains anything, every queue
// clips at the same bound, and admitted shares flatten to equal no matter
// the weights.
type pacedReader struct {
	r           io.Reader
	bytesPerSec float64
	burst       int
	start       time.Time
	sent        int
}

func (p *pacedReader) Read(b []byte) (int, error) {
	if p.start.IsZero() {
		p.start = time.Now()
	}
	for {
		allowed := int(time.Since(p.start).Seconds()*p.bytesPerSec) + p.burst - p.sent
		if allowed > 0 {
			if allowed > len(b) {
				allowed = len(b)
			}
			n, err := p.r.Read(b[:allowed])
			p.sent += n
			return n, err
		}
		time.Sleep(time.Millisecond)
	}
}

// loadResult is one stream's outcome in the load generator.
type loadResult struct {
	tenant   uint32
	sum      stream.Summary
	err      error
	overload bool
	latency  time.Duration
}

// cmdLoadgen drives a fleet server with many concurrent streams and checks
// the multi-tenant contracts: every sent frame is accounted for (admitted or
// shed — zero unexplained loss), no stream stalls (per-stream deadline), the
// admitted-frame share of each tenant stays within 2x of its weight share
// under contention, and the p99 stream round-trip meets -slo-p99 when set.
// Exits non-zero on any violation.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	topo := topoFlag(fs)
	d := fs.Int("d", 3, "code distance the server decodes (must be in its -d list)")
	p := fs.Float64("p", 1e-3, "physical error rate of the served decoding graphs")
	rounds := fs.Int("rounds", 0, "QEC rounds (default: the distance)")
	seed := fs.Uint64("seed", 1, "random seed for the generated trace")
	addr := fs.String("addr", "127.0.0.1:8790", "fleet server address")
	streams := fs.Int("streams", 256, "concurrent streams to open")
	tenants := fs.Int("tenants", 4, "tenants to spread streams over (stream i uses tenant 1 + i%%tenants)")
	frames := fs.Int("frames", 512, "frames per stream")
	pace := fs.Float64("pace", 0, "per-stream send rate in frames/s (0 = full speed); pacing sustains the offered load so scheduling fairness is measurable")
	timeout := fs.Duration("timeout", 120*time.Second, "per-stream dial+send+summary deadline (a stalled socket fails the run)")
	sloP99 := fs.Duration("slo-p99", 0, "fail when the p99 stream round-trip exceeds this (0 = report only)")
	weights := fs.String("tenant-weights", "", "the server's id:weight[,...] map, for the fairness check; unlisted tenants weigh 1")
	fs.Parse(args)
	if *streams <= 0 || *tenants <= 0 || *frames <= 0 {
		return fmt.Errorf("loadgen: -streams, -tenants and -frames must be positive")
	}
	tp, err := parseTopo(*topo)
	if err != nil {
		return err
	}
	wmap, err := parseTenantWeights(*weights)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One base trace, re-headed per tenant so the server's admission sees
	// distinct tenant IDs over identical decode work.
	c, r, err := buildMemoryCircuit(tp, *d, *rounds, *p)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	spec := mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: *frames, Rounds: r, Seed: *seed}
	if _, err := stream.Record(ctx, spec, &buf); err != nil {
		return err
	}
	raw := buf.Bytes()
	hr, err := stream.NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	traces := make(map[uint32][]byte, *tenants)
	for i := 0; i < *tenants; i++ {
		id := uint32(1 + i)
		traces[id], err = reTenant(raw, hr.Header(), id)
		if err != nil {
			return err
		}
	}
	fmt.Printf("loadgen: %d streams x %d frames over %d tenants against %s (%v d=%d p=%.3g rounds=%d)\n",
		*streams, *frames, *tenants, *addr, tp, *d, *p, r)

	results := make([]loadResult, *streams)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := uint32(1 + i%*tenants)
			res := loadResult{tenant: id}
			t0 := time.Now()
			defer func() {
				res.latency = time.Since(t0)
				results[i] = res
			}()
			dl := net.Dialer{Timeout: *timeout}
			conn, err := dl.DialContext(ctx, "tcp", *addr)
			if err != nil {
				res.err = err
				return
			}
			defer conn.Close()
			conn.SetDeadline(t0.Add(*timeout))
			var tr io.Reader = bytes.NewReader(traces[id])
			if *pace > 0 {
				// length prefix + observables + packed detectors + CRC
				frameLen := 4 + 8 + stream.FrameBytes(hr.Header().NumDetectors) + 4
				tr = &pacedReader{r: tr, bytesPerSec: *pace * float64(frameLen), burst: 64 * frameLen}
			}
			sum, err := stream.SendTrace(conn.(*net.TCPConn), tr)
			res.sum = sum
			switch {
			case err == nil:
			case errors.Is(err, stream.ErrOverload):
				res.overload = true
			default:
				res.err = err
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	v := judgeLoad(results, *frames, wmap, *sloP99)
	fmt.Printf("%-8s %8s %6s %9s %6s %12s %12s %9s %9s\n",
		"tenant", "streams", "ok", "overload", "fail", "admitted", "shed", "share", "weight")
	for _, tr := range v.tenants {
		fmt.Printf("%-8d %8d %6d %9d %6d %12d %12d %8.1f%% %8.1f%%\n",
			tr.id, tr.streams, tr.ok, tr.overload, tr.failed, tr.admitted, tr.shed, 100*tr.share, 100*tr.weightShare)
	}
	fmt.Printf("\n%d streams in %v: %d frames admitted, %d shed, %.0f frames/s; latency p50 %v p99 %v\n",
		*streams, elapsed.Round(time.Millisecond), v.admitted, v.shed,
		float64(v.admitted)/elapsed.Seconds(), v.p50.Round(time.Millisecond), v.p99.Round(time.Millisecond))
	if len(v.violations) > 0 {
		return fmt.Errorf("loadgen violations:\n  %s", strings.Join(v.violations, "\n  "))
	}
	fmt.Println("loadgen ok: zero unexplained loss, no stalled streams" + map[bool]string{true: ", fairness within the 2x band", false: ""}[v.shed > 0])
	return nil
}

// tenantLoad is one tenant's row of a loadgen verdict.
type tenantLoad struct {
	id                            uint32
	streams, ok, overload, failed int
	admitted, shed                int64
	// share is the tenant's fraction of all admitted frames; weightShare
	// its scheduling weight over the sum of the weights seen in the run.
	share, weightShare float64
}

// loadVerdict is loadgen's judgement of one run.
type loadVerdict struct {
	tenants        []tenantLoad // sorted by tenant id
	admitted, shed int64
	p50, p99       time.Duration
	violations     []string
}

// judgeLoad checks a run's per-stream results against the fleet contracts,
// each sending frames frames: no stream failed hard; every stream's
// admitted + shed equals what it sent (zero unexplained loss); under
// shedding, every tenant's admitted share lies within 2x of its weight
// share (weights maps tenant to weight; unlisted tenants weigh 1); and the
// p99 stream round-trip is within sloP99 when that is positive. Fairness is
// judged only when something shed: with nothing shed every tenant keeps all
// it sent, so shares track offered load, not scheduler weights.
func judgeLoad(results []loadResult, frames int, weights map[uint32]int, sloP99 time.Duration) loadVerdict {
	var v loadVerdict
	byID := map[uint32]*tenantLoad{}
	lats := make([]time.Duration, 0, len(results))
	var hardErrs, lossErrs []string
	failed := 0
	for i, res := range results {
		a := byID[res.tenant]
		if a == nil {
			a = &tenantLoad{id: res.tenant}
			byID[res.tenant] = a
		}
		a.streams++
		lats = append(lats, res.latency)
		if res.err != nil {
			a.failed++
			failed++
			if len(hardErrs) < 5 {
				hardErrs = append(hardErrs, fmt.Sprintf("stream %d (tenant %d): %v", i, res.tenant, res.err))
			}
			continue
		}
		if res.overload {
			a.overload++
		} else {
			a.ok++
		}
		a.admitted += int64(res.sum.Frames)
		a.shed += res.sum.Shed
		v.admitted += int64(res.sum.Frames)
		v.shed += res.sum.Shed
		if got := int64(res.sum.Frames) + res.sum.Shed; got != int64(frames) && len(lossErrs) < 5 {
			lossErrs = append(lossErrs, fmt.Sprintf("stream %d (tenant %d): %d admitted + %d shed != %d sent",
				i, res.tenant, res.sum.Frames, res.sum.Shed, frames))
		}
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pctl := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		k := int(q*float64(len(lats))+0.5) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(lats) {
			k = len(lats) - 1
		}
		return lats[k]
	}
	v.p50, v.p99 = pctl(0.50), pctl(0.99)

	weightOf := func(id uint32) int {
		if w, ok := weights[id]; ok {
			return w
		}
		return 1
	}
	sumW := 0
	for id := range byID {
		sumW += weightOf(id)
	}
	var fairErrs []string
	for _, a := range byID {
		a.weightShare = float64(weightOf(a.id)) / float64(sumW)
		if v.admitted > 0 {
			a.share = float64(a.admitted) / float64(v.admitted)
		}
		v.tenants = append(v.tenants, *a)
	}
	sort.Slice(v.tenants, func(i, j int) bool { return v.tenants[i].id < v.tenants[j].id })
	for _, a := range v.tenants {
		if v.shed > 0 && v.admitted > 0 && (a.share < a.weightShare/2-1e-9 || a.share > 2*a.weightShare+1e-9) {
			fairErrs = append(fairErrs, fmt.Sprintf(
				"tenant %d admitted share %.1f%% outside the 2x band of its %.1f%% weight share", a.id, 100*a.share, 100*a.weightShare))
		}
	}

	if failed > 0 {
		v.violations = append(v.violations, fmt.Sprintf("%d streams failed hard (first: %s)", failed, strings.Join(hardErrs, "; ")))
	}
	if len(lossErrs) > 0 {
		v.violations = append(v.violations, "unexplained frame loss: "+strings.Join(lossErrs, "; "))
	}
	v.violations = append(v.violations, fairErrs...)
	if sloP99 > 0 && v.p99 > sloP99 {
		v.violations = append(v.violations, fmt.Sprintf("p99 latency %v exceeds the %v SLO", v.p99.Round(time.Millisecond), sloP99))
	}
	return v
}
