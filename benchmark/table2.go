package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"caliqec/internal/noise"
	"caliqec/internal/obs"
	"caliqec/internal/runtime"
	"caliqec/internal/workload"
)

// table2Row is one Table 2 configuration. index is the row's position in
// the table, which offsets its seed exactly as cmd/repro's table2 does.
type table2Row struct {
	index  int
	prog   workload.Program
	d      int
	model  noise.Model
	target float64
}

// table2Rows are the 1%-budget Table 2 rows of the two Hubbard programs
// under the current-device model. Their horizons stay below the 200 h at
// which the table coarsens its time step, so runtime.Run sees its
// defaults.
func table2Rows() []table2Row {
	cur := noise.CurrentModel()
	return []table2Row{
		{0, workload.Hubbard(10, 10), 25, cur, 0.01},
		{2, workload.Hubbard(20, 20), 29, cur, 0.01},
	}
}

var strategies = []runtime.Strategy{runtime.StrategyNoCal, runtime.StrategyLSC, runtime.StrategyCaliQEC}

// cellSpan names the span around one runtime.Run of each strategy.
var cellSpan = map[runtime.Strategy]string{
	runtime.StrategyNoCal:   "runtime.nocal",
	runtime.StrategyLSC:     "runtime.lsc",
	runtime.StrategyCaliQEC: "runtime.caliqec",
}

// referenceSeed is the seed results/table2.json was generated with.
const referenceSeed = 2025

// table2 is the table2-runtime phase: runtime.Run over the chosen rows
// with all three strategies, repeated.
type table2 struct {
	cfg  config
	rows []table2Row
	ref  map[string][]string // results/table2.json rows by model/benchmark/d
	last map[int][3]runtime.Result

	pos    int               // next cell: row pos/3, strategy pos%3
	res    [3]runtime.Result // the current row's results so far
	rowErr bool              // a cell of the current row failed

	cellMs    []float64 // CPU time of each cell
	gateSteps float64   // over every cell run, computed from the configs
}

func newTable2(cfg config) *table2 {
	all := table2Rows()
	t := &table2{cfg: cfg}
	for _, i := range cfg.sz.table2Rows {
		t.rows = append(t.rows, all[i])
	}
	return t
}

func (t *table2) setup(context.Context) error {
	*t = table2{cfg: t.cfg, rows: t.rows, last: map[int][3]runtime.Result{}}
	b, err := os.ReadFile(filepath.Join(t.cfg.root, "results", "table2.json"))
	if err != nil {
		return err
	}
	var doc struct {
		Rows [][]string
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("results/table2.json: %w", err)
	}
	t.ref = map[string][]string{}
	for _, r := range doc.Rows {
		if len(r) == 12 {
			t.ref[r[0]+"/"+r[1]+"/"+r[2]] = r
		}
	}
	return nil
}

func (t *table2) close() {}

func (r table2Row) config(seed uint64) runtime.Config {
	return runtime.Config{Prog: r.prog, D: r.d, Model: r.model, RetryTarget: r.target, Seed: seed + uint64(r.index)*101}
}

// step runs the next cell — one strategy of one row — and checks a row
// once its three strategies have run. A cycle is every cell of every row.
func (t *table2) step(ctx context.Context, traced bool, chk *checker) (bool, error) {
	row := t.rows[t.pos/len(strategies)]
	si := t.pos % len(strategies)
	t.pos = (t.pos + 1) % (len(t.rows) * len(strategies))
	cfg := row.config(t.cfg.seed)
	c0 := cpuTime()
	r, err := runCell(ctx, cfg, strategies[si])
	t.cellMs = append(t.cellMs, ms(cpuTime()-c0))
	what := fmt.Sprintf("table2 %s d=%d %v", row.prog.Name, row.d, strategies[si])
	if err != nil {
		chk.op(what, err)
		t.rowErr = true
	} else {
		t.res[si] = *r
		if si == 0 {
			t.gateSteps += float64(len(strategies)) * gateSteps(cfg, r.ExecHours)
		}
	}
	if si == len(strategies)-1 {
		if !t.rowErr {
			chk.op(fmt.Sprintf("table2 %s d=%d", row.prog.Name, row.d), t.check(row, t.res))
		}
		t.rowErr = false
	}
	return t.pos == 0, nil
}

func runCell(ctx context.Context, cfg runtime.Config, strat runtime.Strategy) (*runtime.Result, error) {
	ctx, span := obs.StartSpan(ctx, cellSpan[strat])
	defer span.End()
	return runtime.Run(ctx, cfg, strat)
}

// gateSteps computes how many (gate, time step) updates one runtime.Run of
// cfg makes: sampled patches × sampled gates × steps over the no-calibration
// execution time, using runtime.Config's documented defaults.
func gateSteps(cfg runtime.Config, execHours float64) float64 {
	patches := math.Min(24, float64(cfg.Prog.LogicalQubits))
	gates := math.Min(512, float64(3*cfg.D*cfg.D))
	return patches * gates * math.Ceil(execHours/0.25)
}

// check holds a row to the paper's orderings, to its previous evaluation
// (runtime.Run is deterministic), and at the reference seed to the
// committed results/table2.json cells.
func (t *table2) check(row table2Row, res [3]runtime.Result) error {
	nc, lsc, cq := res[0], res[1], res[2]
	switch {
	case !(cq.RetryRisk < lsc.RetryRisk):
		return fmt.Errorf("CaliQEC risk %.4g not below LSC risk %.4g", cq.RetryRisk, lsc.RetryRisk)
	case cq.ExecHours != nc.ExecHours: //lint:allow floateq both strategies return the unmodified base execution time, so they must be identical
		return fmt.Errorf("CaliQEC time %.6g differs from no-calibration %.6g", cq.ExecHours, nc.ExecHours)
	case !(lsc.PhysicalQubits > cq.PhysicalQubits && cq.PhysicalQubits >= nc.PhysicalQubits):
		return fmt.Errorf("qubits LSC %.4g, CaliQEC %.4g, no-calibration %.4g out of order", lsc.PhysicalQubits, cq.PhysicalQubits, nc.PhysicalQubits)
	}
	if prev, ok := t.last[row.index]; ok && prev != res {
		return fmt.Errorf("results changed between repetitions")
	}
	t.last[row.index] = res
	if t.cfg.seed != referenceSeed {
		return nil
	}
	key := row.model.Name + "/" + row.prog.Name + "/" + strconv.Itoa(row.d)
	want, ok := t.ref[key]
	if !ok {
		return fmt.Errorf("results/table2.json has no row %s", key)
	}
	got := []string{row.model.Name, row.prog.Name, strconv.Itoa(row.d)}
	for _, r := range res {
		got = append(got, fmt.Sprintf("%.3g", r.PhysicalQubits), fmt.Sprintf("%.4g", r.ExecHours), fmtRisk(r.RetryRisk))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("column %d is %q, results/table2.json has %q", i, got[i], want[i])
		}
	}
	return nil
}

// fmtRisk formats a retry risk as Table 2 prints it.
func fmtRisk(r float64) string {
	if r > 0.99 {
		return "~100%"
	}
	return fmt.Sprintf("%.3g%%", 100*r)
}

func (t *table2) endToEnd(m metricSet) {
	m.set("cells_per_s", "1/s", float64(len(t.cellMs))/(sum(t.cellMs)/1e3))
}

func (t *table2) layers(m metricSet, spans *spanIndex) {
	const ph = "table2-runtime"
	m.set("runtime.nocal_ms", "ms", spans.meanMs(ph, "runtime.nocal"))
	m.set("runtime.lsc_ms", "ms", spans.meanMs(ph, "runtime.lsc"))
	m.set("runtime.caliqec_ms", "ms", spans.meanMs(ph, "runtime.caliqec"))
	m.set("runtime.gate_steps", "count", t.gateSteps)
	m.set("runtime.ns_per_gate_step", "ns", sum(t.cellMs)*1e6/t.gateSteps)
}
