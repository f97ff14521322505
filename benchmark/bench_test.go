package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caliqec"
	"caliqec/internal/code"
	"caliqec/internal/decoder"
	"caliqec/internal/deform"
	"caliqec/internal/dem"
	"caliqec/internal/lattice"
	"caliqec/internal/mc"
	"caliqec/internal/runtime"
	"caliqec/internal/stream"
)

// tinySizes shrink every phase to a single cheap unit.
func tinySizes() sizes {
	return sizes{
		setupReps:       1,
		insituKinds:     []patchKind{{caliqec.Square, 3}},
		insituIntervals: 2,
		sweepDists:      []int{3},
		sweepRates:      []float64{3e-3},
		sweepShots:      2048,
		serveShots:      64,
		serveBurstA:     4,
		serveBurstB:     4,
		table2Rows:      []int{0},
	}
}

func tinyConfig(t *testing.T, workload string, seed uint64, traced bool) config {
	t.Helper()
	return config{
		workload: workload, seed: seed, seconds: 0.01, traced: traced,
		serveRate: 2000, root: "..", sz: tinySizes(),
	}
}

// benchmarkMetrics returns the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// insituMetrics are what a run of insitu-deform, which BENCHMARK.json
// does not list, reports untraced and traced.
var insituMetrics = [2]map[string]string{{
	"setup_s": "s", "peak_heap_mb": "MB",
	"patches_per_s": "1/s", "patch_ms_p50": "ms", "patch_ms_p90": "ms",
}, {
	"deform.isolate_ms": "ms", "code.circuit_ms": "ms", "dem.extract_share": "share",
	"dem.extract_ms": "ms", "decoder.graph_ms": "ms", "dem.mechanisms": "count",
	"decoder.graph_edges": "count", "dem.allocs_per_extract": "count", "failed_share": "share",
}}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// requires every check to pass and the reported metrics to be exactly the
// ones BENCHMARK.json declares, with its units (insitu-deform's own set
// for that workload).
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w
			want := endToEnd
			if traced {
				name += "/traced"
				want = perLayer
			}
			if w == "insitu-deform" {
				want = insituMetrics[0]
				if traced {
					want = insituMetrics[1]
				}
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(t, w, 2025, traced)
				if traced {
					cfg.root = t.TempDir()
					copyResults(t, cfg.root)
				}
				var log bytes.Buffer
				res, err := runBenchmark(context.Background(), cfg, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v\n%s", res, log.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s missing", n)
					} else if m.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", n, m.Unit, unit)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(cfg.root, ".bench_out", "trace-"+w+"-2025.json")); err != nil {
						t.Errorf("span dump: %v", err)
					}
				}
			})
		}
	}
}

func copyResults(t *testing.T, root string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "results", "table2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "results", "table2.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOtherSeed passes its checks at a seed other than the reference one,
// where Table 2 is held to the paper's orderings only.
func TestOtherSeed(t *testing.T) {
	var log bytes.Buffer
	res, err := runBenchmark(context.Background(), tinyConfig(t, "table2-runtime", 7, false), &log)
	if err != nil || !res.Correct {
		t.Fatalf("%v %+v\n%s", err, res, log.String())
	}
}

// TestMissingResultsFails: without results/table2.json set-up fails, so
// the benchmark exits non-zero without a result line.
func TestMissingResultsFails(t *testing.T) {
	cfg := tinyConfig(t, "ler-sweep", 2025, false)
	cfg.root = t.TempDir()
	if _, err := runBenchmark(context.Background(), cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("ran without results/table2.json")
	}
	var out bytes.Buffer
	if code := run(context.Background(), []string{"--workload", "nosuch", "--serve-rate", "1"}, &out, &bytes.Buffer{}); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}

func memorySpec(t *testing.T, d int, p float64, shots int) mc.Spec {
	t.Helper()
	c, err := code.NewPatch(lattice.NewSquare(d)).MemoryCircuit(code.MemoryOptions{Rounds: d, Basis: lattice.BasisZ, Noise: code.UniformNoise(p)})
	if err != nil {
		t.Fatal(err)
	}
	return mc.Spec{Circuit: c, Decoder: decoder.KindUnionFind, Shots: shots, Rounds: d, Seed: 11}
}

// TestRecountCheckFires: a scorer that flips one answer no longer matches
// Evaluate, and a decoder no better than predicting no flip is caught.
func TestRecountCheckFires(t *testing.T) {
	ctx := context.Background()
	spec := memorySpec(t, 3, 3e-3, 2048)
	res, err := mc.New(mc.Options{}).Evaluate(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	model, err := dem.FromCircuit(spec.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	g, err := decoder.BuildGraph(model)
	if err != nil {
		t.Fatal(err)
	}
	dec := decoder.New(decoder.KindUnionFind, g)
	good, err := sampleAndDecode(ctx, spec, dec.Decode)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.check(res); err != nil {
		t.Fatalf("honest recount rejected: %v", err)
	}
	flipped := false
	flipOne := func(syn []int) uint64 {
		pred := dec.Decode(syn)
		if syn != nil && !flipped {
			flipped = true
			pred ^= 1
		}
		return pred
	}
	bad, err := sampleAndDecode(ctx, spec, flipOne)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.check(res); err == nil {
		t.Fatal("a scorer that flips one answer passed the check")
	}
	noFlip := func([]int) uint64 { return 0 }
	none, err := sampleAndDecode(ctx, spec, noFlip)
	if err != nil {
		t.Fatal(err)
	}
	res.Failures = none.failures
	if err := none.check(res); err == nil || !strings.Contains(err.Error(), "no flip") {
		t.Fatalf("a decoder that never predicts a flip passed: %v", err)
	}
}

// TestServeChecksFire: each summary check rejects its tampered summary,
// and a transport error counts as a failed operation.
func TestServeChecksFire(t *testing.T) {
	s := &serve{cfg: tinyConfig(t, "decode-serve", 2025, false), oracle: 3}
	ok := stream.Summary{Frames: 64, Failures: 3, Tenant: 1}
	if err := s.checkSummary(ok, 1); err != nil {
		t.Fatalf("valid summary rejected: %v", err)
	}
	for name, tamper := range map[string]func(*stream.Summary){
		"missing frames": func(m *stream.Summary) { m.Frames-- },
		"shed":           func(m *stream.Summary) { m.Frames--; m.Shed++ },
		"failures":       func(m *stream.Summary) { m.Failures++ },
		"error":          func(m *stream.Summary) { m.Error = "boom" },
		"tenant":         func(m *stream.Summary) { m.Tenant = 2 },
	} {
		sum := ok
		tamper(&sum)
		if err := s.checkSummary(sum, 1); err == nil {
			t.Errorf("%s: tampered summary passed", name)
		}
	}

	if err := s.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	addr := s.addr
	s.close()
	s.addr = addr // nothing listens there any more
	chk := &checker{log: &bytes.Buffer{}}
	s.sendOne(context.Background(), 0, chk)
	if chk.attempted != 1 || chk.failed != 1 {
		t.Fatalf("transport error: %d attempted, %d failed", chk.attempted, chk.failed)
	}
}

// TestTable2ChecksFire: a tampered results/table2.json cell and a broken
// ordering both fail the row.
func TestTable2ChecksFire(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	copyResults(t, root)
	path := filepath.Join(root, "results", "table2.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0's CaliQEC risk cell.
	tampered := strings.Replace(string(b), `"0.171%"`, `"0.172%"`, 1)
	if tampered == string(b) {
		t.Fatal("reference cell not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t, "table2-runtime", 2025, false)
	cfg.root = root
	tb := newTable2(cfg)
	if err := tb.setup(ctx); err != nil {
		t.Fatal(err)
	}
	chk := &checker{log: &bytes.Buffer{}}
	for done := false; !done; {
		if done, err = tb.step(ctx, false, chk); err != nil {
			t.Fatal(err)
		}
	}
	if chk.failed != 1 {
		t.Fatalf("tampered cell: %d of %d rows failed", chk.failed, chk.attempted)
	}

	row := table2Rows()[0]
	var res [3]runtime.Result
	for i, strat := range strategies {
		r, err := runtime.Run(ctx, row.config(7), strat)
		if err != nil {
			t.Fatal(err)
		}
		res[i] = *r
	}
	tb.cfg.seed = 7
	tb.last = map[int][3]runtime.Result{}
	if err := tb.check(row, res); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	swapped := res
	swapped[1].RetryRisk, swapped[2].RetryRisk = res[2].RetryRisk, res[1].RetryRisk
	tb.last = map[int][3]runtime.Result{}
	if err := tb.check(row, swapped); err == nil {
		t.Fatal("CaliQEC risk above LSC passed")
	}
	slower := res
	slower[2].ExecHours *= 1.1
	tb.last = map[int][3]runtime.Result{}
	if err := tb.check(row, slower); err == nil {
		t.Fatal("CaliQEC time above no-calibration passed")
	}
}

// TestCalibrationBatches: the batches read back from the program's
// calibration history replay on a pristine patch, each isolating every
// qubit its instructions name, and RunInterval's enlargement shows.
func TestCalibrationBatches(t *testing.T) {
	k := patchKind{caliqec.Square, 3}
	bs := calibrationBatches(k, 2025, 2)
	if len(bs) == 0 {
		t.Fatal("no batches")
	}
	grown := false
	for i, b := range bs {
		if b.err != nil {
			t.Fatalf("batch %d: %v", i, b.err)
		}
		df, err := replay(b)
		if err != nil {
			t.Fatalf("batch %d: replay: %v", i, err)
		}
		if len(b.instr) == 0 {
			t.Errorf("batch %d: no instructions", i)
		}
		for _, e := range b.instr {
			if q, err := df.QubitAt(e.Row, e.Col); err != nil || !df.Patch.Removed[q] {
				t.Errorf("batch %d: qubit at (%d,%d) not isolated (%v)", i, e.Row, e.Col, err)
			}
		}
		grown = grown || b.grow > 0
	}
	if !grown {
		t.Error("no batch was enlarged")
	}
}

// TestInsituFailuresCount: a batch the program failed to run and a batch
// that no longer replays each count as one failed operation.
func TestInsituFailuresCount(t *testing.T) {
	ctx := context.Background()
	s := newInsitu(tinyConfig(t, "insitu-deform", 2025, false))
	if err := s.setup(ctx); err != nil {
		t.Fatal(err)
	}
	k := patchKind{caliqec.Square, 3}
	bogus := deform.LogEntry{Op: deform.DataQRM, Row: 99, Col: 99}
	s.batches = []calBatch{
		{pk: k, err: errors.New("interval 1: refused")},
		{pk: k, instr: []deform.LogEntry{bogus}},
	}
	chk := &checker{log: &bytes.Buffer{}}
	for range s.batches {
		if _, err := s.step(ctx, false, chk); err != nil {
			t.Fatal(err)
		}
	}
	if chk.attempted != 2 || chk.failed != 2 {
		t.Fatalf("%d attempted, %d failed; want 2 and 2", chk.attempted, chk.failed)
	}
}

// TestCovered checks the self-time interval union.
func TestCovered(t *testing.T) {
	ivs := [][2]float64{{5, 8}, {0, 2}, {1, 3}, {7, 12}}
	if got := covered(ivs, 1, 10); got != 2+5 {
		t.Fatalf("covered = %v, want 7", got)
	}
}
