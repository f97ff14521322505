package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"caliqec/internal/obs"
)

// layerAgg aggregates every span of one name under one phase.
type layerAgg struct {
	count int
	total float64 // µs
	self  float64 // µs: total minus the time child spans cover
}

// spanIndex holds the traced run's spans aggregated by phase and span
// name. The phase is the name of the span's root, which measurePhase
// opens.
type spanIndex struct {
	agg map[string]map[string]*layerAgg
}

func (s *spanIndex) get(phase, name string) layerAgg {
	if a := s.agg[phase][name]; a != nil {
		return *a
	}
	return layerAgg{}
}

// totalMs is the summed duration of the phase's spans called name.
func (s *spanIndex) totalMs(phase, name string) float64 { return s.get(phase, name).total / 1e3 }

// selfMs is the summed self time of the phase's spans called name.
func (s *spanIndex) selfMs(phase, name string) float64 { return s.get(phase, name).self / 1e3 }

// meanMs is the mean duration of the phase's spans called name.
func (s *spanIndex) meanMs(phase, name string) float64 {
	a := s.get(phase, name)
	if a.count == 0 {
		return 0
	}
	return a.total / 1e3 / float64(a.count)
}

// traceEvent is the part of a Chrome trace event the index reads.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	Args  map[string]any `json:"args"`
}

// dumpTrace writes the tracer's spans to .bench_out/trace-<workload>-<seed>.json
// under the checkout root, indexes them from that same dump, and prints
// each layer's span count, total and self time to logw.
func dumpTrace(tr *obs.Tracer, cfg config, logw io.Writer) (*spanIndex, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("exporting trace: %w", err)
	}
	dir := filepath.Join(cfg.root, ".bench_out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("reading trace back: %w", err)
	}
	idx := indexSpans(doc.TraceEvents)
	fmt.Fprintf(logw, "trace: %d events written to %s\n", len(doc.TraceEvents), path)
	idx.print(logw)
	return idx, nil
}

// indexSpans aggregates complete ("X") events by root phase and name,
// computing each span's self time as its duration minus the union of its
// children's intervals.
func indexSpans(events []traceEvent) *spanIndex {
	type span struct {
		ev       traceEvent
		parent   uint64
		children []int
	}
	spans := make([]span, 0, len(events))
	byID := map[uint64]int{}
	for _, ev := range events {
		if ev.Phase != "X" {
			continue
		}
		id := argID(ev.Args, "span")
		byID[id] = len(spans)
		spans = append(spans, span{ev: ev, parent: argID(ev.Args, "parent")})
	}
	for i, s := range spans {
		if p, ok := byID[s.parent]; ok && s.parent != 0 {
			spans[p].children = append(spans[p].children, i)
		}
	}
	root := func(i int) string {
		for {
			p, ok := byID[spans[i].parent]
			if spans[i].parent == 0 || !ok {
				return spans[i].ev.Name
			}
			i = p
		}
	}
	idx := &spanIndex{agg: map[string]map[string]*layerAgg{}}
	for i, s := range spans {
		ph := root(i)
		if idx.agg[ph] == nil {
			idx.agg[ph] = map[string]*layerAgg{}
		}
		a := idx.agg[ph][s.ev.Name]
		if a == nil {
			a = &layerAgg{}
			idx.agg[ph][s.ev.Name] = a
		}
		ivs := make([][2]float64, 0, len(s.children))
		for _, c := range s.children {
			ce := spans[c].ev
			ivs = append(ivs, [2]float64{ce.Ts, ce.Ts + ce.Dur})
		}
		a.count++
		a.total += s.ev.Dur
		a.self += s.ev.Dur - covered(ivs, s.ev.Ts, s.ev.Ts+s.ev.Dur)
	}
	return idx
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, end := 0.0, lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

func argID(args map[string]any, key string) uint64 {
	v, _ := args[key].(float64)
	return uint64(v)
}

// print writes one line per (phase, span name): count, total and self ms.
func (s *spanIndex) print(w io.Writer) {
	phases := make([]string, 0, len(s.agg))
	for ph := range s.agg {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	fmt.Fprintf(w, "%-16s %-22s %8s %12s %12s\n", "phase", "span", "count", "total_ms", "self_ms")
	for _, ph := range phases {
		names := make([]string, 0, len(s.agg[ph]))
		for n := range s.agg[ph] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			a := s.agg[ph][n]
			fmt.Fprintf(w, "%-16s %-22s %8d %12.3f %12.3f\n", ph, n, a.count, a.total/1e3, a.self/1e3)
		}
	}
}
