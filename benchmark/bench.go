package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"caliqec"
	"caliqec/internal/obs"
)

// workloads names every phase the benchmark can run. A run of
// insitu-deform runs that phase alone; a run of any other workload runs
// the other three phases interleaved, and --workload picks the one that
// gets half of the measured time.
var workloads = []string{"insitu-deform", "ler-sweep", "decode-serve", "table2-runtime"}

func workloadList() string { return strings.Join(workloads, ", ") }

// sizes fixes the input sizes of every phase. fullSizes is what the
// benchmark runs; the tests run tinySizes.
type sizes struct {
	setupReps int // set-ups per run; setup_s is their median

	insituKinds     []patchKind // systems whose calibration batches insitu-deform evaluates
	insituIntervals int         // calibration intervals each system runs at set-up

	sweepDists []int     // ler-sweep distances (rounds = d)
	sweepRates []float64 // ler-sweep physical error rates
	sweepShots int       // shots per (d, p) spec per batch

	serveShots  int // frames per served trace
	serveBurstA int // traces per phase-A burst, split over the connections
	serveBurstB int // traces per phase-B burst

	table2Rows []int // indices into table2Rows
}

func fullSizes() sizes {
	return sizes{
		setupReps: 3,
		insituKinds: []patchKind{
			{caliqec.Square, 3}, {caliqec.Square, 5}, {caliqec.HeavyHex, 3},
		},
		insituIntervals: 4,
		sweepDists:      []int{3, 5, 7},
		sweepRates:      []float64{1e-3, 3e-3},
		sweepShots:      16384,
		serveShots:      256,
		serveBurstA:     64,
		serveBurstB:     64,
		table2Rows:      []int{0, 1},
	}
}

// checker counts checked operations and failed ones. Every failure is
// reported on the log; none is retried.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	log       io.Writer
}

// op records one checked operation; a non-nil err marks it failed.
func (c *checker) op(what string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.failed <= 20 {
			fmt.Fprintf(c.log, "check failed: %s: %v\n", what, err)
		}
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func (r *result) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// phase is one workload's code path. setup may be called again after
// close. step runs the next step of the phase's cycle of work, records
// what it measured and reports whether the step completed a cycle: the
// benchmark stops a phase only at a cycle boundary, so every figure covers
// whole cycles and the same mix of inputs. endToEnd adds the phase's
// end-to-end metrics; layers adds its per-layer metrics from a traced run.
type phase interface {
	setup(ctx context.Context) error
	step(ctx context.Context, traced bool, chk *checker) (cycleDone bool, err error)
	endToEnd(m metricSet)
	layers(m metricSet, spans *spanIndex)
	close()
}

func newPhases(cfg config) []phase {
	var out []phase
	for _, name := range cfg.phaseNames() {
		switch name {
		case "insitu-deform":
			out = append(out, newInsitu(cfg))
		case "ler-sweep":
			out = append(out, newSweep(cfg))
		case "decode-serve":
			out = append(out, newServe(cfg))
		case "table2-runtime":
			out = append(out, newTable2(cfg))
		}
	}
	return out
}

// runBenchmark sets every phase up cfg.sz.setupReps times, then measures
// the phases interleaved and collects the metrics.
func runBenchmark(ctx context.Context, cfg config, logw io.Writer) (*result, error) {
	heap := startHeapSampler()
	defer heap.stop()
	phases := newPhases(cfg)
	closeAll := func() {
		for _, p := range phases {
			p.close()
		}
	}
	defer closeAll()

	var setups []float64
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		if rep > 0 {
			closeAll()
		}
		c0 := cpuTime()
		for i, p := range phases {
			if err := p.setup(ctx); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", cfg.phaseNames()[i], err)
			}
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}

	chk := &checker{log: logw}
	mctx := ctx
	var tracer *obs.Tracer
	if cfg.traced {
		tracer = obs.NewTracer(nil)
		mctx = obs.WithTracer(ctx, tracer)
	}
	if err := interleave(mctx, cfg, phases, chk); err != nil {
		return nil, err
	}
	runtime.GC()
	peak := heap.stop()

	e2e := metricSet{}
	for _, p := range phases {
		p.endToEnd(e2e)
	}
	e2e.set("setup_s", "s", median(setups))
	e2e.set("peak_heap_mb", "MB", peak/1e6)
	ms := e2e
	if cfg.traced {
		// The traced run's end-to-end figures go to the log: their
		// difference from an untraced run of the seed is the tracing
		// overhead.
		b, err := json.Marshal(e2e)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(logw, "traced end-to-end: %s\n", b)
		spans, err := dumpTrace(tracer, cfg, logw)
		if err != nil {
			return nil, err
		}
		ms = metricSet{}
		for _, p := range phases {
			p.layers(ms, spans)
		}
		ms.set("failed_share", "share", float64(chk.failed)/float64(chk.attempted))
	}
	res := &result{Attempted: chk.attempted, Failed: chk.failed, Metrics: ms}
	res.Correct = chk.failed == 0 && chk.attempted > 0
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(logw, "metric %s is not finite\n", name)
			res.Correct = false
		}
	}
	return res, nil
}

// interleave runs the phases' steps until the measured time is spent,
// always stepping the phase furthest below its share of the time used so
// far, then lets every phase finish its current cycle (or its first).
// Traced, each step runs under a root span named after its phase. No
// collection is forced between steps: each phase's clock carries the
// collections that fall in its steps. One phase's garbage can trigger a
// collection in another's step; interleaving over the whole run averages
// that out.
func interleave(ctx context.Context, cfg config, phases []phase, chk *checker) error {
	names := cfg.phaseNames()
	used := make([]time.Duration, len(phases))
	open := make([]bool, len(phases)) // a cycle is in progress
	cycles := make([]int, len(phases))
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		next := -1
		over := time.Now().After(deadline)
		for i := range phases {
			if over && !open[i] && cycles[i] > 0 {
				continue
			}
			if next < 0 || float64(used[i])/cfg.share(names[i]) < float64(used[next])/cfg.share(names[next]) {
				next = i
			}
		}
		if next < 0 {
			return nil
		}
		t0 := time.Now()
		sctx, span := obs.StartSpan(ctx, names[next])
		done, err := phases[next].step(sctx, cfg.traced, chk)
		span.End()
		used[next] += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", names[next], err)
		}
		open[next] = !done
		if done {
			cycles[next]++
		}
	}
}

// heapSampler polls the live heap — the bytes the last garbage collection
// found reachable — and keeps its maximum.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in bytes.
func (h *heapSampler) stop() float64 {
	h.once.Do(func() { close(h.done) })
	h.wg.Wait()
	return h.peak
}

// median of xs (xs is reordered).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (xs is
// reordered); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the process has used so far, user and system,
// summed over its threads. The throughput and set-up metrics divide work
// by CPU time, not wall time: on a shared host the wall time of the same
// work swings with how much of the CPUs the host grants, and the CPU time
// does not count the time the host held them back.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
