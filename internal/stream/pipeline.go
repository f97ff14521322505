package stream

import (
	"caliqec/internal/obs"
	"context"
	"errors"
	"io"
)

// FrameScorer scores one frame: given the sorted fired-detector list and
// the sampled observable mask, it reports whether the frame is a logical
// failure. *mc.FrameDecoder is the production implementation (cached graph,
// pooled union-find decoders); tests substitute gated fakes to exercise
// backpressure. Implementations must be safe for concurrent use: the fleet
// pool scores one scorer's frames from several workers at once.
type FrameScorer interface {
	ScoreFrame(syndrome []int, actual uint64) bool
}

// PipelineOptions configures a Replay run.
type PipelineOptions struct {
	// Metrics selects the registry per-stream metrics land in; nil selects
	// obs.Default, obs.Discard disables them.
	Metrics *obs.Registry
	// Estimator configures drift monitoring over the decoded frames; the
	// zero value (Window 0) disables it and the pipeline runs exactly as
	// before.
	Estimator EstimatorConfig
}

// Stats summarizes one replayed stream.
type Stats struct {
	// Frames is the number of frames decoded; Failures of them scored as
	// logical failures.
	Frames   int
	Failures int
	// Truncated reports the stream ended early but every delivered frame
	// was intact (the ErrTruncated recovery path).
	Truncated bool
	// DriftEvents is the number of drift events the estimator monitor
	// generated; always 0 when monitoring is disabled.
	DriftEvents int64
}

// pipelineMetrics holds the per-stream metric handles, resolved once per
// replay. Nil handles (Discard) make every update a no-op.
type pipelineMetrics struct {
	registry  *obs.Registry
	replays   *obs.Counter   // stream.replays: streams fully processed
	frames    *obs.Counter   // stream.frames: frames decoded
	failures  *obs.Counter   // stream.failures: logical failures scored
	truncated *obs.Counter   // stream.truncated: streams that ended mid-frame
	latency   *obs.Histogram // stream.decode.latency: per-frame decode wall ns
}

func newPipelineMetrics(r *obs.Registry) pipelineMetrics {
	if r == nil {
		r = obs.Default
	}
	return pipelineMetrics{
		registry:  r,
		replays:   r.Counter("stream.replays"),
		frames:    r.Counter("stream.frames"),
		failures:  r.Counter("stream.failures"),
		truncated: r.Counter("stream.truncated"),
		latency:   r.Histogram("stream.decode.latency"),
	}
}

// Replay feeds every frame of r through scorer in the caller's goroutine —
// read, syndrome, score, monitor — and returns the aggregate stats. Nothing
// is buffered beyond the frame in hand, so a slow decode holds the read
// back: over a socket that is TCP flow control to the sender. Concurrent
// decoding of many streams is fleet.Pool's job.
//
// Termination:
//
//   - Clean end of a complete trace: returns the totals with a nil error.
//   - Truncated trace: returns the totals over the delivered frames with
//     Stats.Truncated set and an error wrapping ErrTruncated; callers that
//     tolerate partial traces test with errors.Is.
//   - Corrupt trace or read failure: totals so far plus the error.
//   - Context cancellation: the frame in hand finishes scoring, no further
//     frame is read, and Replay returns the partial totals with ctx.Err().
func Replay(ctx context.Context, r *Reader, scorer FrameScorer, opt PipelineOptions) (Stats, error) {
	m := newPipelineMetrics(opt.Metrics)
	ctx, span := obs.StartSpan(ctx, "stream.replay")
	defer span.End()
	span.SetAttr("detectors", r.Header().NumDetectors)

	// The drift monitor observes every scored frame, keyed by the frame's
	// stream position.
	var mon *Monitor
	if opt.Estimator.Window > 0 {
		mon = NewMonitor(opt.Estimator, scorer, r.Header(), m.registry)
		opt.Estimator.Health.Register(mon)
	}

	var (
		totals  Stats
		readErr error
		f       Frame
	)
	syn := make([]int, 0, r.Header().NumDetectors)
	for {
		if readErr = ctx.Err(); readErr != nil {
			break
		}
		err := r.Next(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		syn = f.Syndrome(syn[:0])
		var failed bool
		if m.latency != nil {
			start := m.registry.Now()
			failed = scorer.ScoreFrame(syn, f.Obs)
			m.latency.Observe(m.registry.Now().Sub(start).Nanoseconds())
		} else {
			failed = scorer.ScoreFrame(syn, f.Obs)
		}
		if failed {
			totals.Failures++
		}
		mon.Observe(int64(totals.Frames), syn, failed)
		totals.Frames++
	}
	// The stream has ended on every path (clean, truncated, corrupt,
	// cancelled): flush the monitor's trailing partial window so drift in it
	// still produces events before the summary is written.
	mon.Finalize()
	m.frames.Add(int64(totals.Frames))
	m.failures.Add(int64(totals.Failures))
	m.replays.Inc()
	span.SetAttr("frames", totals.Frames)
	span.SetAttr("failures", totals.Failures)
	if mon != nil {
		totals.DriftEvents = mon.Events()
		if totals.DriftEvents > 0 {
			span.Event("drift")
			span.SetAttr("drift_events", totals.DriftEvents)
		}
	}

	switch {
	case readErr == nil:
		return totals, nil
	case errors.Is(readErr, ErrTruncated):
		totals.Truncated = true
		m.truncated.Inc()
		span.Event("truncated")
		return totals, readErr
	default:
		span.Event("aborted")
		return totals, readErr
	}
}
