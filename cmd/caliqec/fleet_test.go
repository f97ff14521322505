package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"caliqec/internal/stream"
)

// okStream is a stream that got a summary: admitted frames decoded, shed
// frames declined, taking lat to round-trip.
func okStream(tenant uint32, admitted int, shed int64, lat time.Duration) loadResult {
	return loadResult{
		tenant:   tenant,
		sum:      stream.Summary{Frames: admitted, Shed: shed, Tenant: tenant, Overload: shed > 0},
		overload: shed > 0,
		latency:  lat,
	}
}

func violationsContaining(v loadVerdict, substr string) int {
	n := 0
	for _, s := range v.violations {
		if strings.Contains(s, substr) {
			n++
		}
	}
	return n
}

func TestJudgeLoadCleanRun(t *testing.T) {
	res := []loadResult{
		okStream(1, 100, 0, 10*time.Millisecond),
		okStream(2, 100, 0, 20*time.Millisecond),
		okStream(1, 100, 0, 30*time.Millisecond),
	}
	v := judgeLoad(res, 100, nil, time.Second)
	if len(v.violations) != 0 {
		t.Fatalf("clean run flagged: %v", v.violations)
	}
	if v.admitted != 300 || v.shed != 0 {
		t.Fatalf("totals admitted=%d shed=%d, want 300/0", v.admitted, v.shed)
	}
	if len(v.tenants) != 2 || v.tenants[0].id != 1 || v.tenants[1].id != 2 {
		t.Fatalf("tenant rows %+v, want tenants 1 and 2 in order", v.tenants)
	}
	if r := v.tenants[0]; r.streams != 2 || r.ok != 2 || r.admitted != 200 {
		t.Fatalf("tenant 1 row %+v", r)
	}
	if v.p50 != 20*time.Millisecond || v.p99 != 30*time.Millisecond {
		t.Fatalf("p50=%v p99=%v, want 20ms/30ms", v.p50, v.p99)
	}
}

// TestJudgeLoadFairnessSkippedWithoutShedding: wildly unequal admitted
// shares are not a violation when nothing shed, because every tenant kept
// everything it sent.
func TestJudgeLoadFairnessSkippedWithoutShedding(t *testing.T) {
	res := []loadResult{okStream(1, 100, 0, 0)}
	for i := 0; i < 9; i++ {
		res = append(res, okStream(2, 100, 0, 0))
	}
	v := judgeLoad(res, 100, map[uint32]int{1: 3}, 0)
	if len(v.violations) != 0 {
		t.Fatalf("fairness judged without shedding: %v", v.violations)
	}
	if got := v.tenants[0].share; math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("tenant 1 share %g, want 0.1", got)
	}
	if got := v.tenants[0].weightShare; math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("tenant 1 weight share %g, want 0.75", got)
	}
}

func TestJudgeLoadFairnessBand(t *testing.T) {
	// Weights 3:1 → weight shares 75% / 25%. Admitted 60/40 keeps both
	// within 2x; 90/10 pushes tenant 2 below half its share.
	within := judgeLoad([]loadResult{
		okStream(1, 60, 40, 0),
		okStream(2, 40, 60, 0),
	}, 100, map[uint32]int{1: 3}, 0)
	if len(within.violations) != 0 {
		t.Fatalf("60/40 under 3:1 weights flagged: %v", within.violations)
	}
	outside := judgeLoad([]loadResult{
		okStream(1, 90, 10, 0),
		okStream(2, 10, 90, 0),
	}, 100, map[uint32]int{1: 3}, 0)
	if violationsContaining(outside, "tenant 2 admitted share") != 1 || len(outside.violations) != 1 {
		t.Fatalf("90/10 under 3:1 weights: violations %v, want exactly tenant 2 outside the band", outside.violations)
	}
}

func TestJudgeLoadUnexplainedLoss(t *testing.T) {
	v := judgeLoad([]loadResult{
		okStream(1, 100, 0, 0),
		okStream(1, 90, 5, 0), // 5 frames neither admitted nor shed
	}, 100, nil, 0)
	if violationsContaining(v, "unexplained frame loss") != 1 {
		t.Fatalf("violations %v, want one unexplained-loss entry", v.violations)
	}
	if !strings.Contains(v.violations[0], "90 admitted + 5 shed != 100 sent") {
		t.Fatalf("loss entry %q does not name the stream's accounting", v.violations[0])
	}
}

func TestJudgeLoadHardErrorsAndSLO(t *testing.T) {
	res := []loadResult{
		okStream(1, 100, 0, time.Millisecond),
		{tenant: 2, err: errors.New("dial refused"), latency: time.Second},
	}
	v := judgeLoad(res, 100, nil, 500*time.Millisecond)
	if violationsContaining(v, "1 streams failed hard") != 1 || violationsContaining(v, "dial refused") != 1 {
		t.Fatalf("violations %v, want the hard failure named", v.violations)
	}
	if violationsContaining(v, "exceeds the 500ms SLO") != 1 {
		t.Fatalf("violations %v, want the p99 SLO breach", v.violations)
	}
	// A failed stream is not loss: it has no summary to account from.
	if violationsContaining(v, "unexplained") != 0 {
		t.Fatalf("failed stream counted as frame loss: %v", v.violations)
	}
	if r := v.tenants[1]; r.failed != 1 || r.admitted != 0 {
		t.Fatalf("tenant 2 row %+v, want one failed stream", r)
	}
	// Without an SLO the same latencies only report.
	if v := judgeLoad(res[:1], 100, nil, 0); len(v.violations) != 0 {
		t.Fatalf("report-only run flagged: %v", v.violations)
	}
}
