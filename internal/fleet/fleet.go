// Package fleet multiplexes many concurrent syndrome streams over one
// shared, size-bounded decode worker pool with per-tenant admission control
// and fair scheduling. It is the repository's only concurrent decode
// executor: `caliqec serve` always runs a fleet Server, and stream.Replay
// is the serial loop for a single local trace.
//
// One fixed pool (Config.Workers goroutines, the mc.EvaluateBatch
// span-granular scheduler pattern) decodes every connection's frames:
//
//   - Admission control. Each stream declares a tenant in its trace header
//     (Header.Tenant; 0 is the default tenant). A tenant's token bucket
//     (TenantConfig.FrameRate/Burst) meters admitted frames and
//     TenantConfig.MaxStreams caps its concurrent streams. Refused work is
//     shed, never queued: an over-cap stream gets an immediate overload
//     summary, an over-rate frame is dropped and counted.
//   - Fair scheduling. Admitted frames queue per stream (bounded by
//     Config.StreamQueue); workers claim spans of consecutive frames from
//     one stream at a time under deficit-round-robin across tenants
//     (TenantConfig.Weight × Config.Quantum credits per visit), so a
//     tenant's long-run share of the pool tracks its weight no matter how
//     many streams or frames it throws at the server, and a worker stays on
//     one stream's scorer long enough for its decoder caches to stay warm.
//   - Backpressure: shed or stall. By default Stream.Offer never blocks: a
//     full stream queue sheds the frame and counts it, the connection read
//     loop never stalls the socket, and a client learns about shedding from
//     the summary's Shed count and Overload flag (stream.ErrOverload
//     client-side) instead of from a TCP stall. With Config.Block a full
//     queue makes Offer wait for room instead, which stalls the read and
//     pushes back to the sender through TCP flow control; token-bucket and
//     MaxStreams refusals still shed.
//
// Per-tenant observability lands in the shared obs.Registry:
// fleet.tenant.<id>.admitted / .shed counters, .queue.depth gauge and
// .decode.latency histogram (p99 via obs.HistogramSnapshot.Quantile), plus
// pool-wide fleet.decode.latency, fleet.pool.occupancy and
// fleet.streams.{open,rejected}. Per-stream drift monitors register in the
// usual HealthRegistry under "t<tenant>-conn-<n>" names.
package fleet

import (
	"runtime"
	"time"

	"caliqec/internal/obs"
	"caliqec/internal/stream"
)

// TenantConfig sets one tenant's admission and scheduling parameters.
type TenantConfig struct {
	// Weight is the tenant's deficit-round-robin share; <= 0 selects 1. A
	// weight-3 tenant earns 3× the decode credits of a weight-1 tenant per
	// scheduler round when both have work queued.
	Weight int
	// FrameRate is the tenant's admitted-frame budget in frames/second
	// (token-bucket refill rate); <= 0 means unmetered.
	FrameRate float64
	// Burst is the token bucket's capacity in frames; <= 0 selects
	// max(1, FrameRate) — one second of credit.
	Burst float64
	// MaxStreams caps the tenant's concurrently open streams; <= 0 means
	// uncapped. A stream over the cap is refused at open (overload summary)
	// rather than queued.
	MaxStreams int
}

func (c TenantConfig) resolved() TenantConfig {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Burst <= 0 {
		c.Burst = c.FrameRate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// Config configures a Pool (and the Server wrapping one).
type Config struct {
	// Workers is the shared decode pool size; <= 0 selects GOMAXPROCS. This
	// is the whole server's decode concurrency, shared by every stream.
	Workers int
	// StreamQueue bounds each stream's admitted-frame queue; <= 0 selects
	// 256. A full queue sheds new frames (drop + count) unless Block is set.
	StreamQueue int
	// Block makes Stream.Offer wait for room in a full stream queue instead
	// of shedding, so a fast sender is held back rather than dropped. The
	// wait ends when a worker claims from the queue or the pool closes.
	// Token-bucket and MaxStreams refusals still shed.
	Block bool
	// Quantum is the deficit-round-robin quantum in frames; <= 0 selects 64.
	// Each scheduler visit grants a tenant Quantum×Weight decode credits.
	Quantum int
	// Default is the tenant configuration for tenants absent from Tenants
	// (including tenant 0, the pre-fleet default).
	Default TenantConfig
	// Tenants overrides Default per tenant ID.
	Tenants map[uint32]TenantConfig
	// Metrics selects the registry fleet metrics land in; nil selects
	// obs.Default, obs.Discard disables them.
	Metrics *obs.Registry
	// Estimator enables per-stream drift monitoring (stream.Monitor) when
	// Window > 0, registering each stream in Estimator.Health under its
	// server-assigned name.
	Estimator stream.EstimatorConfig
	// Now is the token-bucket clock; nil selects the wall clock. Tests
	// inject a fake to make admission deterministic.
	Now func() time.Time
}

// wallClock is the package's single injected wall-clock fallback, feeding
// only token-bucket refill (never decode results).
var wallClock = time.Now //lint:allow timenow single injected wall-clock source for token-bucket admission

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) streamQueue() int {
	if c.StreamQueue > 0 {
		return c.StreamQueue
	}
	return 256
}

func (c Config) quantum() int {
	if c.Quantum > 0 {
		return c.Quantum
	}
	return 64
}

func (c Config) tenant(id uint32) TenantConfig {
	if tc, ok := c.Tenants[id]; ok {
		return tc.resolved()
	}
	return c.Default.resolved()
}

func (c Config) clock() func() time.Time {
	if c.Now != nil {
		return c.Now
	}
	return wallClock
}

// tokenBucket meters a tenant's admitted frames. Guarded by the pool mutex.
type tokenBucket struct {
	rate   float64 // tokens/second; <= 0 disables metering
	burst  float64
	tokens float64
	last   time.Time
}

// take consumes one token, refilling from the elapsed time since the last
// call. A bucket starts full, so a tenant's first Burst frames always admit.
func (b *tokenBucket) take(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	if b.last.IsZero() {
		b.tokens = b.burst
	} else if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens += el * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
