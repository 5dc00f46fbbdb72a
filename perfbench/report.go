package main

import (
	"fmt"
	"time"
)

// selfMetric maps each span name whose self time is a per-layer metric
// to that metric. Together with trace.remainder_ms these partition the
// traced wall: every instant of a root span is in exactly one of them.
var selfMetric = map[string]string{
	spanParse:                     "lang.parse_ms",
	spanCompile:                   "compiler.compile_ms",
	spanMarshal:                   "xmlspec.marshal_ms",
	spanTransform:                 "xsl.transform_ms",
	spanStagePrefix + "compile":   "flow.compile_ms",
	spanStagePrefix + "elaborate": "flow.elaborate_ms",
	spanStagePrefix + "simulate":  "rtg.build_ms",
	spanStagePrefix + "verify":    "flow.verify_ms",
	spanHades:                     "hades.sim_ms",
	spanCycle:                     "cycle.sim_ms",
	spanBuild:                     "workloads.build_ms",
	spanCase:                      "scenario.case_other_ms",
	spanSweep:                     "sweep.run_ms",
	spanQueue:                     "simd.queue_ms",
	spanService:                   "simd.overhead_ms",
}

// layerReport turns a traced pass into per-layer metrics: every metric
// of perLayer starts at zero (a layer the workload does not reach does
// no work), self times are reported in ms per unit (case or request),
// and trace.remainder_ms is the part of the traced wall — the summed
// duration of the root spans — that no layer span covers. Spans named
// in opaque are left out of the accounting (shards overlap each other,
// so their parent is accounted whole).
func layerReport(spans []span, units int, opaque map[string]bool) (map[string]metric, error) {
	if err := checkTree(spans); err != nil {
		return nil, err
	}
	if units < 1 {
		return nil, fmt.Errorf("traced pass ran no cases")
	}
	m := map[string]metric{}
	for _, name := range perLayer {
		m[name] = metric{0, unitOf(name)}
	}
	kept := make([]span, 0, len(spans))
	var wall time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.End - s.Start
		}
		if !opaque[s.Name] {
			kept = append(kept, s)
		}
	}
	self := selfTimes(kept)
	n := float64(units)
	var accounted time.Duration
	for name, d := range self {
		if metricName, ok := selfMetric[name]; ok {
			m[metricName] = metric{ms(d) / n, "ms"}
			accounted += d
		}
	}
	if accounted > wall {
		return nil, fmt.Errorf("layer spans cover %v of a %v traced wall: sibling spans overlap", accounted, wall)
	}
	m["trace.wall_ms"] = metric{ms(wall) / n, "ms"}
	m["trace.remainder_ms"] = metric{ms(wall-accounted) / n, "ms"}
	return m, nil
}

// unitOf is the unit each per-layer metric is reported in.
func unitOf(name string) string {
	switch name {
	case "hades.events", "cycle.cycles", "flow.compiles", "simd.rejected":
		return "count"
	case "hades.events_per_s":
		return "1/s"
	case "flow.cache_hit_ratio", "sweep.busy_ratio", "simd.pool_hit_ratio", "trace.overhead_ratio":
		return "ratio"
	case "go.alloc_mb_per_case":
		return "MB"
	case "go.gc_cycles":
		return "1/case"
	}
	return "ms"
}

// kernelRates fills the kernel counters: events and cycles per unit,
// and the event kernel's events per second of its own busy time.
func kernelRates(m map[string]metric, events, cycles uint64, units int) {
	n := float64(units)
	m["hades.events"] = metric{float64(events) / n, "count"}
	m["cycle.cycles"] = metric{float64(cycles) / n, "count"}
	if simMS := m["hades.sim_ms"].Value * n; simMS > 0 {
		m["hades.events_per_s"] = metric{float64(events) / (simMS / 1000), "1/s"}
	}
}
