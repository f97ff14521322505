// Package runtime executes calibration strategies against a drifting
// device over the lifetime of a quantum program and accounts for the
// resulting physical-qubit footprint, execution time, calibration volume,
// and retry risk. It is the engine behind Table 2 and the §8 component
// analyses, corresponding to the paper artifact's evaluation.py.
//
// Large programs occupy millions of physical qubits; the engine simulates a
// sample of logical patches (each with a sample of its gates' drift
// processes) and scales the accounting, which is statistically equivalent
// because gates are i.i.d. draws from the device's drift-constant
// distribution.
//
// Retry risk follows the Gidney–Ekerå spacetime-volume accounting the
// paper's metric cites: the program executes ops·d logical cell-cycles,
// each failing at the Eq. (4) per-cycle LER of its patch at that moment.
// Patch LER combines the patch-average physical rate with a hot-gate boost:
// Eq. (4) arises from error-path counting, so a single gate at p > p_tar
// multiplies the worst path's weight by p/p_tar — this reproduces the
// paper's Fig. 13 observation that one drifted gate inflates LER far more
// than the average-rate shift suggests.
//
// The simulation steps in closed form. Drift is p₀·10^(t/T_drift) and
// Eq. (4) is α(p/p_th)^((d+1)/2), so over one fixed step of h hours a gate's
// rate grows by the constant factor 10^(h/T_drift) and its LER by that
// factor to the (d+1)/2. Each gate carries both factors from sampling time
// and advances by two multiplies a step. Its rate and LER are evaluated
// from the elapsed time only on the first step after a calibration, which
// re-anchors them: that step may fall a fraction of h after an off-grid
// calibration, and a calibration still pending at a step leaves the gate
// at p₀ until the next. Per-gate math.Pow calls therefore grow with calibrations,
// not with gates × steps.
package runtime

import (
	"caliqec/internal/ftqc"
	"caliqec/internal/ler"
	"caliqec/internal/noise"
	"caliqec/internal/obs"
	"caliqec/internal/rng"
	"caliqec/internal/sched"
	"caliqec/internal/workload"
	"context"
	"fmt"
	"math"
	"sort"
)

// Strategy selects the calibration policy (§7.3's baselines and CaliQEC).
type Strategy int

// Strategies.
const (
	StrategyNoCal Strategy = iota
	StrategyLSC
	StrategyCaliQEC
)

func (s Strategy) String() string {
	switch s {
	case StrategyNoCal:
		return "no-calibration"
	case StrategyLSC:
		return "LSC"
	case StrategyCaliQEC:
		return "CaliQEC"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Config describes one evaluation run.
type Config struct {
	Prog  workload.Program
	D     int         // code distance
	Model noise.Model // drift-constant distribution
	// RetryTarget is the program-level retry-risk budget used to derive
	// p_tar (Table 2 uses 1% and 0.1%).
	RetryTarget float64
	// DeltaD is CaliQEC's maximum tolerable distance loss (§7.3: 4).
	DeltaD int
	// LERModel are the Eq. (4) constants; zero value uses the paper's.
	LERModel ler.Model
	// GatesPerPatch is how many calibratable gates one logical patch
	// carries; 0 derives it from the layout (≈ 3 per data site: one 1Q
	// gate per qubit plus couplers).
	GatesPerPatch int
	// SamplePatches caps how many patches are simulated explicitly
	// (default 24).
	SamplePatches int
	// SampleGates caps how many gates are simulated per patch (default
	// 512). The unsampled remainder's fastest drifters are drawn via order
	// statistics so coarse-grained (min-deadline) behaviour is preserved.
	SampleGates int
	// StepHours is the simulation time step (default 0.25).
	StepHours float64
	// LSCOutageHours is the per-event unavailability of a parked patch:
	// two logical state transfers plus the due gates' calibration
	// (default 0.15 h).
	LSCOutageHours float64
	// LSCLookaheadHours batches a parked patch's calibrations: every gate
	// due within this window is calibrated during one park (default 1.0).
	LSCLookaheadHours float64
	// LSCStallFactor converts parked-patch fraction into critical-path
	// stall (default 0.45; <1 because the compiler reorders around parked
	// qubits).
	LSCStallFactor float64
	Seed           uint64
}

func (c *Config) fill() {
	if c.DeltaD == 0 {
		c.DeltaD = 4
	}
	if c.LERModel == (ler.Model{}) {
		c.LERModel = ler.PaperModel()
	}
	if c.SamplePatches == 0 {
		c.SamplePatches = 24
	}
	if c.SampleGates == 0 {
		c.SampleGates = 512
	}
	defaultFloat(&c.StepHours, 0.25)
	defaultFloat(&c.LSCOutageHours, 0.15)
	defaultFloat(&c.LSCLookaheadHours, 1.0)
	defaultFloat(&c.LSCStallFactor, 0.45)
	if c.GatesPerPatch == 0 {
		c.GatesPerPatch = 3 * c.D * c.D
	}
	if c.Model.MeanHours == 0 { //lint:allow floateq zero MeanHours marks an unset noise model, an exact sentinel
		c.Model = noise.CurrentModel()
	}
}

// defaultFloat assigns d to *v when the field was left at its zero value.
func defaultFloat(v *float64, d float64) {
	if *v == 0 { //lint:allow floateq the zero value means "unset", an exact sentinel never produced by arithmetic
		*v = d
	}
}

// Result summarizes one strategy run.
type Result struct {
	Strategy       Strategy
	Layout         ftqc.Layout
	PhysicalQubits float64
	ExecHours      float64
	RetryRisk      float64
	// Calibrations counts gate-calibration operations over the program
	// (scaled to the full device).
	Calibrations float64
	// PTar is the derived target physical error rate.
	PTar float64
	// MeanLER is the time-averaged per-cycle logical error rate of one
	// patch.
	MeanLER float64
}

func (r Result) String() string {
	return fmt.Sprintf("%-14s qubits=%.3g time=%.4gh retry=%.3g%% cals=%.3g",
		r.Strategy, r.PhysicalQubits, r.ExecHours, 100*r.RetryRisk, r.Calibrations)
}

// PTarFor derives the targeted physical error rate from the retry budget
// over the program's spacetime volume (ops·d cell-cycles).
func PTarFor(cfg *Config) (float64, error) {
	vol := cfg.Prog.LogicalOps() * float64(cfg.D)
	lerTar := cfg.RetryTarget / vol
	p := cfg.LERModel.PTarget(cfg.D, lerTar)
	if p <= noise.InitialErrorRate*1.02 {
		return 0, fmt.Errorf("runtime: d=%d leaves no drift headroom (p_tar=%.4g vs p0=%.4g)",
			cfg.D, p, noise.InitialErrorRate)
	}
	if p >= cfg.LERModel.Pth {
		p = cfg.LERModel.Pth * 0.99
	}
	return p, nil
}

func lnParams(m noise.Model) (mu, sigma float64) {
	sigma = m.Sigma
	mu = math.Log(m.MeanHours) - sigma*sigma/2
	return
}

// Run evaluates one strategy. The context cancels the patch simulation
// between time steps and carries the optional obs tracer; retry risk and
// calibration volume land in the obs.Default registry as
// runtime.retry_risk.<strategy> / runtime.calibrations.<strategy> gauges.
func Run(ctx context.Context, cfg Config, strat Strategy) (*Result, error) {
	cfg.fill()
	ctx, span := obs.StartSpan(ctx, "runtime.run")
	defer span.End()
	span.SetAttr("strategy", strat.String())
	span.SetAttr("d", cfg.D)
	r := rng.New(cfg.Seed ^ uint64(strat)<<32)
	execBase := ftqc.ExecTimeHours(cfg.Prog, cfg.D)
	pTar, err := PTarFor(&cfg)
	if err != nil && strat != StrategyNoCal {
		return nil, err
	}

	res := &Result{Strategy: strat, PTar: pTar, ExecHours: execBase}
	switch strat {
	case StrategyNoCal:
		res.Layout = ftqc.BaselineLayout(cfg.Prog.LogicalQubits, cfg.D)
	case StrategyLSC:
		res.Layout = ftqc.LSCLayout(cfg.Prog.LogicalQubits, cfg.D)
	case StrategyCaliQEC:
		res.Layout = ftqc.CaliQECLayout(cfg.Prog.LogicalQubits, cfg.D, cfg.DeltaD)
	}
	// The paper's Table 2 physical-qubit accounting folds T-state
	// resources into the tiled layout (its counts match 2·L·(d+w)² within
	// ~10%), so no separate factory term is added here.
	res.PhysicalQubits = res.Layout.PhysicalQubits()

	sim := newSimulator(&cfg, r, execBase, pTar)
	switch strat {
	case StrategyNoCal:
		err = sim.run(ctx, policyNoCal{})
	case StrategyCaliQEC:
		err = sim.run(ctx, newPolicyCaliQEC(pTar))
	case StrategyLSC:
		pol := newPolicyLSC(&cfg, pTar)
		err = sim.run(ctx, pol)
		// Execution-time overhead: stalls proportional to the fraction of
		// the logical plane parked at any time.
		parkedFrac := pol.outageHours * sim.patchScale / (execBase * float64(cfg.Prog.LogicalQubits))
		res.ExecHours = execBase * (1 + cfg.LSCStallFactor*parkedFrac)
	}
	if err != nil {
		return nil, err
	}
	res.RetryRisk, res.MeanLER = sim.results()
	res.Calibrations = sim.cals * sim.patchScale // gate weights already scale to the full patch
	obs.Default.Gauge("runtime.retry_risk." + strat.String()).Set(res.RetryRisk)
	obs.Default.Gauge("runtime.calibrations." + strat.String()).Set(res.Calibrations)
	return res, nil
}

// gateState is one simulated gate's drift process.
type gateState struct {
	drift    noise.Drift
	deadline float64 // hours from calibration to reach pTar
	last     float64 // last calibration time
	// weight is how many of the patch's real gates this sample represents.
	// The fastest drifters are sampled exactly (weight 1) via order
	// statistics, because coarse-grained calibration's failure mode is
	// driven by the worst-case tail; the bulk is represented by a smaller
	// weighted sample.
	weight float64
	// p and lg are the gate's error rate and Eq. (4) LER at the current
	// step, before clamping. Each step after the one that anchors them
	// multiplies them by rp = 10^(h/T_drift) and rl = rp^((d+1)/2), h
	// being the step.
	p, lg  float64
	rp, rl float64
	// anchored is false from a calibration (and before the first step)
	// until accumulate has set p and lg exactly from the time since it.
	anchored bool
}

// tailExact is how many of a patch's fastest-drifting gates are drawn
// exactly from the order-statistic distribution.
const tailExact = 64

// simulator walks the program timeline for sampled patches under a policy.
type simulator struct {
	cfg        *Config
	r          *rng.RNG
	horizon    float64
	pTar       float64
	nPatches   int
	nGates     int
	gateScale  float64
	patchScale float64

	// lerExp is Eq. (4)'s exponent (d+1)/2; lgCap bounds one gate's LER:
	// the hotSaturation cap, and Eq. (4) at p = 1 (Drift.At's clamp).
	lerExp float64
	lgCap  float64

	// risk accounting
	volPerStep float64 // spacetime volume attributed to one (patch, step) sample
	logSurvive float64
	lerSum     float64
	samples    int
	cals       float64
}

func newSimulator(cfg *Config, r *rng.RNG, horizon, pTar float64) *simulator {
	nPatches := cfg.SamplePatches
	if cfg.Prog.LogicalQubits < nPatches {
		nPatches = cfg.Prog.LogicalQubits
	}
	nGates := cfg.SampleGates
	if cfg.GatesPerPatch < nGates {
		nGates = cfg.GatesPerPatch
	}
	steps := math.Ceil(horizon / cfg.StepHours)
	vol := cfg.Prog.LogicalOps() * float64(cfg.D)
	lgCap := 1.0
	if pTar > 0 {
		lgCap = hotSaturation * cfg.LERModel.PerCycle(cfg.D, pTar)
	}
	if l1 := cfg.LERModel.PerCycle(cfg.D, 1); l1 < lgCap {
		lgCap = l1
	}
	return &simulator{
		cfg: cfg, r: r, horizon: horizon, pTar: pTar,
		nPatches: nPatches, nGates: nGates,
		gateScale:  float64(cfg.GatesPerPatch) / float64(nGates),
		patchScale: float64(cfg.Prog.LogicalQubits) / float64(nPatches),
		lerExp:     float64(cfg.D+1) / 2,
		lgCap:      lgCap,
		volPerStep: vol / (float64(nPatches) * steps),
	}
}

// policy drives calibration decisions for one patch.
type policy interface {
	// init is called once per patch after its gates are sampled; ctx
	// carries the optional obs tracer for calibration-group spans.
	init(ctx context.Context, s *simulator, gates []gateState)
	// step may calibrate gates at time t through s.calibrate.
	step(s *simulator, gates []gateState, t float64)
}

// calibrate records a calibration of g at time t: its drift restarts from
// p₀ there, the calibration volume grows by the gate's weight, and the next
// accumulate re-anchors the gate's p and LER.
func (s *simulator) calibrate(g *gateState, t float64) {
	g.last = t
	g.anchored = false
	s.cals += g.weight
}

func (s *simulator) run(ctx context.Context, pol policy) error {
	mu, sigma := lnParams(s.cfg.Model)
	full := s.cfg.GatesPerPatch
	tail := tailExact
	if tail > full/2 || tail > s.nGates/2 {
		tail = 0 // small patches: plain sampling suffices
	}
	gates := make([]gateState, s.nGates) // every patch overwrites it whole
	for p := 0; p < s.nPatches; p++ {
		for i := range gates {
			var td, w float64
			if i < tail {
				// The (i+1)-th smallest drift constant of the full patch,
				// via the uniform order-statistic quantile with jitter.
				q := (float64(i) + 0.2 + 0.6*s.r.Float64()) / float64(full+1)
				td = rng.LogNormInv(clampP(q), mu, sigma)
				w = 1
			} else {
				td = rng.LogNormInv(clampP(s.r.Float64()), mu, sigma)
				w = float64(full-tail) / float64(s.nGates-tail)
			}
			drift := noise.Drift{P0: noise.InitialErrorRate, TDrift: td}
			rp := math.Pow(10, s.cfg.StepHours/td)
			gates[i] = gateState{drift: drift, deadline: drift.TimeToReach(s.pTar), weight: w,
				rp: rp, rl: math.Pow(rp, s.lerExp)}
		}
		if s.pTar == 0 { //lint:allow floateq pTar is exactly 0 only for the no-calibration strategy, an exact sentinel
			for i := range gates {
				gates[i].deadline = math.Inf(1)
			}
		}
		pol.init(ctx, s, gates)
		for t := 0.0; t < s.horizon; t += s.cfg.StepHours {
			if err := ctx.Err(); err != nil {
				return err
			}
			pol.step(s, gates, t)
			s.accumulate(gates, t)
		}
	}
	return nil
}

// hotSaturation bounds how far a single runaway gate can multiply its share
// of the patch LER beyond the at-target value: once a gate's local failure
// probability saturates its neighbourhood, further drift adds nothing. The
// three-decade bound reproduces the paper's Table 2 LSC risk magnitudes
// (e.g. Hubbard-10-10 d=25: ~11%).
const hotSaturation = 1e3

// accumulate folds the patch's instantaneous LER at time t into the risk
// integral. Following the paper's evaluation methodology, the patch LER is
// the per-gate average of Eq. (4) — each gate contributes LER(d, p_g) in
// proportion to its share of the patch — rather than Eq. (4) at the average
// rate. Because the LER is steeply convex in p (exponent (d+1)/2), this
// per-gate accounting is dominated by the gates closest to (or beyond)
// p_tar: a single gate left drifting past the target under coarse-grained
// calibration multiplies the patch LER by (p_g/p_tar)^((d+1)/2), which is
// exactly the Fig. 13 sensitivity and the §8.1 separation between LSC and
// CaliQEC.
//
// Each gate's p and LER advance in closed form (see the package doc), two
// multiplies a step; anchor evaluates them from the elapsed time on the
// first step after a calibration. The clamps p ≤ 1, LER ≤ 1 and the
// saturation cap apply where the values are used.
func (s *simulator) accumulate(gates []gateState, t float64) {
	sum, wsum, pm := 0.0, 0.0, 0.0
	for i := range gates {
		g := &gates[i]
		if g.anchored {
			g.p *= g.rp
			g.lg *= g.rl
		} else {
			s.anchor(g, t)
		}
		p, lg := g.p, g.lg
		if p > 1 {
			p = 1
		}
		// The saturation bound models a decoder-blind hot spot in an
		// otherwise working code: local damage is capped.
		if lg > s.lgCap {
			lg = s.lgCap
		}
		w := g.weight
		sum += w * lg
		pm += w * p
		wsum += w
	}
	// Patch LER: capped per-gate average (hot spots in a working code)
	// plus whole-patch failure when the average rate itself approaches
	// threshold (the no-calibration endgame), whichever dominates.
	l := sum / wsum
	if bulk := s.cfg.LERModel.PerCycle(s.cfg.D, pm/wsum); bulk > l {
		l = bulk
	}
	if l > 1-1e-12 {
		l = 1 - 1e-12
	}
	s.logSurvive += s.volPerStep * math.Log1p(-l)
	s.lerSum += l
	s.samples++
}

// anchor sets g's p and LER at time t exactly from the time since its last
// calibration, as Drift.At and Eq. (4) give them. A calibration still
// pending at t (LSC's queueing delay ends it later this step) leaves the
// gate at p₀ and unanchored, so the step after it anchors again.
func (s *simulator) anchor(g *gateState, t float64) {
	dt := t - g.last
	if dt < 0 {
		dt = 0
	} else {
		g.anchored = true
	}
	g.p = g.drift.P0 * math.Pow(10, dt/g.drift.TDrift)
	g.lg = s.cfg.LERModel.Alpha * math.Pow(g.p/s.cfg.LERModel.Pth, s.lerExp)
}

func (s *simulator) results() (risk, meanLER float64) {
	risk = 1 - math.Exp(s.logSurvive)
	if s.samples > 0 {
		meanLER = s.lerSum / float64(s.samples)
	}
	return
}

func clampP(u float64) float64 {
	if u < 1e-12 {
		return 1e-12
	}
	if u > 1-1e-12 {
		return 1 - 1e-12
	}
	return u
}

// policyNoCal never calibrates (Baseline 1).
type policyNoCal struct{}

func (policyNoCal) init(context.Context, *simulator, []gateState) {}
func (policyNoCal) step(*simulator, []gateState, float64)         {}

// policyCaliQEC calibrates each gate at its Algorithm-1 group period,
// in situ: no stalls, never exceeding p_tar.
type policyCaliQEC struct {
	pTar   float64
	period []float64
}

func newPolicyCaliQEC(pTar float64) *policyCaliQEC { return &policyCaliQEC{pTar: pTar} }

func (p *policyCaliQEC) init(ctx context.Context, s *simulator, gates []gateState) {
	p.period = make([]float64, len(gates))
	due := make([]sched.GateProfile, 0, len(gates))
	for i := range gates {
		p.period[i] = math.Inf(1)
		if gates[i].deadline < s.horizon {
			due = append(due, sched.GateProfile{GateID: i, Drift: gates[i].drift})
		}
	}
	if len(due) == 0 {
		return
	}
	gr, err := sched.AssignGroups(due, p.pTar)
	if err != nil {
		// Degenerate grouping (e.g. a deadline of ~0): calibrate each gate
		// exactly at its own deadline.
		for _, g := range due {
			p.period[g.GateID] = gates[g.GateID].deadline
		}
		return
	}
	// One span per Algorithm-1 calibration group, in sorted-k order so the
	// trace is deterministic: the timeline shows which period multiples the
	// grouping chose and how many gates each absorbed.
	ks := make([]int, 0, len(gr.Groups))
	for k := range gr.Groups {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		_, gsp := obs.StartSpan(ctx, "runtime.group")
		gsp.SetAttr("k", k)
		gsp.SetAttr("gates", len(gr.Groups[k]))
		gsp.SetAttr("period_hours", float64(k)*gr.TCaliHours)
		gsp.End()
	}
	for id, k := range gr.Period {
		p.period[id] = float64(k) * gr.TCaliHours
	}
}

func (p *policyCaliQEC) step(s *simulator, gates []gateState, t float64) {
	for i := range gates {
		if t-gates[i].last >= p.period[i] {
			s.calibrate(&gates[i], t)
		}
	}
}

// policyLSC is the coarse-grained baseline: calibrating any gate requires
// parking its whole logical patch (transfer out, calibrate, transfer back).
// Parks contend for the shared communication channels, so the per-patch
// park period is bounded below by channel capacity — the granularity
// mismatch of §8.1: gates whose drift deadline is shorter than the park
// period cyclically exceed p_tar between parks, inflating the retry risk,
// while the parks themselves stall execution.
type policyLSC struct {
	cfg         *Config
	pTar        float64
	period      float64 // capacity-limited minimum park period per patch
	nextPark    float64
	outageHours float64
	utilization float64
}

func newPolicyLSC(cfg *Config, pTar float64) *policyLSC {
	// Transfer channels: the doubled layout provides roughly one transfer
	// lane per 12 patches; stable queueing requires utilization ≤ 0.9.
	capacity := float64(cfg.Prog.LogicalQubits) / 12
	if capacity < 1 {
		capacity = 1
	}
	period := float64(cfg.Prog.LogicalQubits) * cfg.LSCOutageHours / (0.9 * capacity)
	if period < cfg.LSCLookaheadHours {
		period = cfg.LSCLookaheadHours
	}
	return &policyLSC{cfg: cfg, pTar: pTar, period: period, utilization: 0.9}
}

func (p *policyLSC) init(ctx context.Context, s *simulator, gates []gateState) { p.nextPark = 0 }

func (p *policyLSC) step(s *simulator, gates []gateState, t float64) {
	if t < p.nextPark {
		return
	}
	// Park only when some gate is due within the coming period.
	due := false
	for i := range gates {
		if gates[i].deadline < s.horizon && t+p.period-gates[i].last >= gates[i].deadline {
			due = true
			break
		}
	}
	if !due {
		p.nextPark = t + p.period
		return
	}
	// Residual queueing delay at ~90% utilization (M/M/1-ish residual).
	delay := p.cfg.LSCOutageHours * p.utilization / (1 - p.utilization) * s.r.Float64()
	tCal := t + delay
	// Coarse-grained batch: calibrate everything that would come due
	// before the next park.
	for i := range gates {
		if gates[i].deadline < s.horizon && tCal+p.period-gates[i].last >= gates[i].deadline {
			s.calibrate(&gates[i], tCal)
		}
	}
	p.outageHours += p.cfg.LSCOutageHours + delay
	p.nextPark = tCal + p.period
}
