package runtime

import (
	"caliqec/internal/noise"
	"caliqec/internal/workload"
	"context"
	"math"
	"testing"
)

// TestGoldenResults pins the Result of Run at fixed seeds: the benchmark's
// two Table 2 rows (Hubbard-10-10 d=25 and Hubbard-20-20 d=29, 1% budget,
// seed 2025 + 101·row index) under all three strategies, the first
// future-model Table 2 row (Jellium-1024 d=45 with the table's coarse
// 600-step grid and 12 sampled patches), and the Δd = 8 configuration of
// ablate-deltad.
//
// PhysicalQubits, ExecHours, Calibrations and PTar must match bit for bit:
// they depend only on the layout, the program and the policies' calibration
// decisions. RetryRisk and MeanLER must match within a relative tolerance
// of 1e-12: they integrate every gate's drifting error rate and LER over
// the run, which may be evaluated in closed form per step instead of from
// the elapsed time, and so may move by a few ulps.
func TestGoldenResults(t *testing.T) {
	const relTol = 1e-12
	cur, fut := noise.CurrentModel(), noise.FutureModel()
	jel := workload.Jellium(1024)
	jelStep := jel.LogicalOps() * 45 / jel.Parallelism * 1e-6 / 3600 / 600
	configs := map[string]Config{
		"hubbard-10-10/d25": {Prog: workload.Hubbard(10, 10), D: 25, Model: cur, RetryTarget: 0.01, Seed: 2025},
		"hubbard-20-20/d29": {Prog: workload.Hubbard(20, 20), D: 29, Model: cur, RetryTarget: 0.01, Seed: 2025 + 2*101},
		"jellium-1024/d45/future": {Prog: jel, D: 45, Model: fut, RetryTarget: 0.01, Seed: 2025 + 6*101,
			StepHours: jelStep, SamplePatches: 12},
		"hubbard-10-10/d25/deltad8": {Prog: workload.Hubbard(10, 10), D: 25, RetryTarget: 0.01, Seed: 2025, DeltaD: 8},
	}
	cases := []struct {
		config string
		strat  Strategy
		want   Result
	}{
		{"hubbard-10-10/d25", StrategyNoCal, Result{PhysicalQubits: 1e+06, ExecHours: 5.298520923520923, Calibrations: 0,
			PTar: 0.001364310256914886, RetryRisk: 1, MeanLER: 1.1620450068727775e-05}},
		{"hubbard-10-10/d25", StrategyLSC, Result{PhysicalQubits: 4e+06, ExecHours: 6.194683776616276, Calibrations: 831128.5342262929,
			PTar: 0.001364310256914886, RetryRisk: 0.20102792680641535, MeanLER: 3.820072953588263e-12}},
		{"hubbard-10-10/d25", StrategyCaliQEC, Result{PhysicalQubits: 1.1664e+06, ExecHours: 5.298520923520923, Calibrations: 1.2970712239588632e+06,
			PTar: 0.001364310256914886, RetryRisk: 0.0017140836261636538, MeanLER: 2.920092507863712e-14}},
		{"hubbard-20-20/d29", StrategyNoCal, Result{PhysicalQubits: 5.3824e+06, ExecHours: 89.47684512992386, Calibrations: 0,
			PTar: 0.001413706293128339, RetryRisk: 1, MeanLER: 0.926211370128375}},
		{"hubbard-20-20/d29", StrategyLSC, Result{PhysicalQubits: 2.15296e+07, ExecHours: 101.50699111968692, Calibrations: 6.371788958309481e+07,
			PTar: 0.001413706293128339, RetryRisk: 0.2318129678816151, MeanLER: 1.424477379219675e-13}},
		{"hubbard-20-20/d29", StrategyCaliQEC, Result{PhysicalQubits: 6.1504e+06, ExecHours: 89.47684512992386, Calibrations: 1.1561976212924859e+08,
			PTar: 0.001413706293128339, RetryRisk: 0.0014110901258904684, MeanLER: 7.627293725317859e-16}},
		{"jellium-1024/d45/future", StrategyNoCal, Result{PhysicalQubits: 1.65888e+07, ExecHours: 1862.2524373371534, Calibrations: 0,
			PTar: 0.0024031708485661406, RetryRisk: 1, MeanLER: 0.9917848535500273}},
		{"jellium-1024/d45/future", StrategyLSC, Result{PhysicalQubits: 6.63552e+07, ExecHours: 2050.553636315794, Calibrations: 1.4498951946830373e+09,
			PTar: 0.0024031708485661406, RetryRisk: 0.002166408271007114, MeanLER: 3.720969226415547e-17}},
		{"jellium-1024/d45/future", StrategyCaliQEC, Result{PhysicalQubits: 1.8096128e+07, ExecHours: 1862.2524373371534, Calibrations: 1.266420879443734e+09,
			PTar: 0.0024031708485661406, RetryRisk: 0.0001787483885976604, MeanLER: 3.067085419409756e-18}},
		{"hubbard-10-10/d25/deltad8", StrategyCaliQEC, Result{PhysicalQubits: 1.3456e+06, ExecHours: 5.298520923520923, Calibrations: 1.2970712239588632e+06,
			PTar: 0.001364310256914886, RetryRisk: 0.0017140836261636538, MeanLER: 2.920092507863712e-14}},
	}
	for _, c := range cases {
		got, err := Run(context.Background(), configs[c.config], c.strat)
		if err != nil {
			t.Fatalf("%s %v: %v", c.config, c.strat, err)
		}
		exact := []struct {
			name      string
			got, want float64
		}{
			{"PhysicalQubits", got.PhysicalQubits, c.want.PhysicalQubits},
			{"ExecHours", got.ExecHours, c.want.ExecHours},
			{"Calibrations", got.Calibrations, c.want.Calibrations},
			{"PTar", got.PTar, c.want.PTar},
		}
		for _, f := range exact {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Errorf("%s %v: %s = %v, want %v bit for bit", c.config, c.strat, f.name, f.got, f.want)
			}
		}
		near := []struct {
			name      string
			got, want float64
		}{
			{"RetryRisk", got.RetryRisk, c.want.RetryRisk},
			{"MeanLER", got.MeanLER, c.want.MeanLER},
		}
		for _, f := range near {
			if math.Abs(f.got-f.want) > relTol*math.Abs(f.want) {
				t.Errorf("%s %v: %s = %v, want %v within relative %g", c.config, c.strat, f.name, f.got, f.want, relTol)
			}
		}
	}
}
