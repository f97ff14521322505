// Package sched implements CaliQEC's compilation-time calibration
// scheduling (paper §5): the optimization objective min Σ_g 1/T_g subject
// to the drift deadline T_g ≤ T_drift,ptar[g] and the crosstalk constraint,
// solved by drift-based calibration grouping (Algorithm 1) plus intra-group
// scheduling (dependency clustering, crosstalk-aware greedy batching, and
// the Δd-constrained space-time cost search of §5.3).
package sched

import (
	"caliqec/internal/noise"
	"fmt"
	"math"
	"sort"
)

// GateProfile is the scheduler's view of one calibratable gate, produced by
// preparation-time characterization. Drift is any noise.Law — the paper's
// exponential model or the linear alternative (§4 notes the model is
// replaceable; the scheduling machinery only consumes deadlines).
type GateProfile struct {
	GateID    int
	Drift     noise.Law
	CaliHours float64
	Nbr       []int // crosstalk neighbourhood (qubit IDs)
	Qubits    []int // the gate's own qubits
}

// DeadlineHours returns T_drift,ptar[g]: the time until the gate's error
// rate reaches pTar, i.e. its calibration deadline (§5.1).
func (g *GateProfile) DeadlineHours(pTar float64) float64 {
	return g.Drift.TimeToReach(pTar)
}

// Grouping is the output of Algorithm 1.
type Grouping struct {
	TCaliHours float64         // the chosen base calibration interval
	Groups     map[int][]int   // k -> gate IDs with period k·TCali
	Period     map[int]int     // gate ID -> k
	Deadline   map[int]float64 // gate ID -> drift deadline used
}

// TotalFrequency returns Σ_g 1/T_g in calibrations per hour (Eq. 3).
func (gr *Grouping) TotalFrequency() float64 {
	f := 0.0
	for k, gates := range gr.Groups {
		f += float64(len(gates)) / (float64(k) * gr.TCaliHours)
	}
	return f
}

// DueGates returns the gate IDs whose group is due in the n-th calibration
// interval (intervals are 1-indexed; group k is due when n mod k == 0).
func (gr *Grouping) DueGates(n int) []int {
	var out []int
	for k, gates := range gr.Groups {
		if n%k == 0 {
			out = append(out, gates...)
		}
	}
	sort.Ints(out)
	return out
}

// deadlines returns each gate's drift deadline at pTar, in gate order.
func deadlines(gates []GateProfile, pTar float64) []float64 {
	ds := make([]float64, len(gates))
	for i := range gates {
		ds[i] = gates[i].DeadlineHours(pTar)
	}
	return ds
}

// frequencyFor evaluates Eq. (3) for a candidate base interval: each gate's
// period is the largest multiple of tCali not exceeding its deadline.
func frequencyFor(deadlines []float64, tCali float64) float64 {
	f := 0.0
	for _, d := range deadlines {
		k := int(math.Floor(d / tCali))
		if k < 1 {
			return math.Inf(1) // deadline shorter than the interval: infeasible
		}
		f += 1 / (float64(k) * tCali)
	}
	return f
}

// AssignGroups implements Algorithm 1 (Calibration Group Assignment): it
// scans candidate base intervals T_drift[g]/k — values at or just below the
// minimum deadline, where deadlines align with integer multiples — picks
// the one minimizing total calibration frequency (preferring larger
// intervals on ties), and buckets every gate into its group. Each gate's
// deadline is computed once and reused for every candidate.
func AssignGroups(gates []GateProfile, pTar float64) (*Grouping, error) {
	if len(gates) == 0 {
		return nil, fmt.Errorf("sched: no gates to group")
	}
	ds := deadlines(gates, pTar)
	tMin := math.Inf(1)
	for i, d := range ds {
		if d <= 0 {
			return nil, fmt.Errorf("sched: gate %d already beyond p_tar=%g (deadline %.2fh)", gates[i].GateID, pTar, d)
		}
		if d < tMin {
			tMin = d
		}
	}
	// Candidate intervals: tMin itself plus each gate's deadline divided by
	// the smallest k bringing it to ≤ tMin.
	cands := []float64{tMin}
	for _, d := range ds {
		k := math.Ceil(d / tMin)
		if k >= 1 {
			cands = append(cands, d/k)
		}
	}
	best, bestF := tMin, frequencyFor(ds, tMin)
	for _, c := range cands {
		f := frequencyFor(ds, c)
		const eps = 1e-12
		if f < bestF-eps || (math.Abs(f-bestF) <= eps && c > best) {
			best, bestF = c, f
		}
	}
	if math.IsInf(bestF, 1) {
		return nil, fmt.Errorf("sched: no feasible base interval")
	}
	gr := &Grouping{
		TCaliHours: best,
		Groups:     map[int][]int{},
		Period:     make(map[int]int, len(gates)),
		Deadline:   make(map[int]float64, len(gates)),
	}
	for i, d := range ds {
		k := int(math.Floor(d / best))
		if k < 1 {
			k = 1
		}
		gr.Groups[k] = append(gr.Groups[k], gates[i].GateID)
		gr.Period[gates[i].GateID] = k
		gr.Deadline[gates[i].GateID] = d
	}
	for k := range gr.Groups {
		sort.Ints(gr.Groups[k])
	}
	return gr, nil
}

// PTarget computes the targeted physical error rate from the available code
// distance and the target logical error rate, inverting Eq. (4):
// p_tar = p_th · (LER_tar/α)^(2/(d+1)). It returns an error when no
// sub-threshold rate can satisfy the target at this distance.
func PTarget(d int, lerTar, alpha, pth float64) (float64, error) {
	if d < 3 || lerTar <= 0 {
		return 0, fmt.Errorf("sched: invalid PTarget inputs d=%d lerTar=%g", d, lerTar)
	}
	p := pth * math.Pow(lerTar/alpha, 2/float64(d+1))
	if p >= pth {
		return 0, fmt.Errorf("sched: distance %d cannot reach LER %g below threshold (needs p_tar=%.3g ≥ p_th)", d, lerTar, p)
	}
	return p, nil
}

// MinDistanceFor returns the smallest (odd) code distance whose p_tar under
// Eq. (4) is at least pFloor — i.e. large enough that an achievable
// physical error rate sustains LER_tar. It grows d until p_tar ≥ pFloor.
func MinDistanceFor(lerTar, pFloor, alpha, pth float64) (int, error) {
	for d := 3; d <= 201; d += 2 {
		p, err := PTarget(d, lerTar, alpha, pth)
		if err != nil {
			continue
		}
		if p >= pFloor {
			return d, nil
		}
	}
	return 0, fmt.Errorf("sched: no distance ≤ 201 sustains LER %g with p ≥ %g", lerTar, pFloor)
}
