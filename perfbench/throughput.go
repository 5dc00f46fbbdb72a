package main

import (
	"fmt"
	"time"
)

// unit is one repetition of a throughput workload: a sweep campaign
// (with its replay in a traced run) or a scenario campaign.
type unit struct {
	cases, failed int
	digest        string
	rateWall      time.Duration // the wall cases_per_s is taken over
	wall          time.Duration // all the unit ran, for trace.overhead_ratio
	caseMS        []float64
	obs           *stageSpans // the flow observer of a traced unit
}

// throughput runs a workload made of repeated units. Untraced, it runs
// units for the run's seconds and reports the end-to-end metrics.
// Traced, it runs untraced units for half the seconds and then as many
// traced ones, and reports the per-layer metrics of the traced ones; it
// returns their spans for the workload's own additions. run
// gets the recorder (nil untraced) and whether the run is traced.
func throughput(cfg runConfig, traced bool, setupS float64, run func(rec *recorder, traced bool) (*unit, error),
	opaque map[string]bool) (*outcome, []span, error) {
	out := &outcome{metrics: map[string]metric{}}
	next := func(rec *recorder) (*unit, error) {
		u, err := run(rec, traced)
		if err != nil {
			return nil, err
		}
		out.attempted += u.cases
		out.failed += u.failed
		if out.digest == "" {
			out.digest = u.digest
		} else if u.digest != out.digest {
			return nil, fmt.Errorf("simulated-result digest changed between repetitions: %s then %s", out.digest, u.digest)
		}
		return u, nil
	}

	if !traced {
		var rates, caseMS, rss []float64
		start := time.Now()
		for time.Since(start) < cfg.seconds {
			resetPeakRSS()
			u, err := next(nil)
			if err != nil {
				return nil, nil, err
			}
			peak, err := peakRSSMB()
			if err != nil {
				return nil, nil, err
			}
			rates = append(rates, float64(u.cases)/u.rateWall.Seconds())
			caseMS = append(caseMS, u.caseMS...)
			rss = append(rss, peak)
		}
		if err := caseMetrics(out.metrics, caseMS); err != nil {
			return nil, nil, err
		}
		out.metrics["setup_s"] = metric{setupS, "s"}
		out.metrics["cases_per_s"] = metric{median(rates), "1/s"}
		out.metrics["peak_rss_mb"] = metric{median(rss), "MB"}
		fmt.Printf("repetitions: %d of %d cases\n", len(rates), out.attempted/len(rates))
		return out, nil, nil
	}

	var plainWall, tracedWall time.Duration
	reps := 0
	m0 := readMem()
	start := time.Now()
	for reps == 0 || time.Since(start) < cfg.seconds/2 {
		u, err := next(nil)
		if err != nil {
			return nil, nil, err
		}
		plainWall += u.wall
		reps++
	}
	m1 := readMem()
	rec := newRecorder()
	var events, cycles uint64
	compiles, cases := 0, 0
	for i := 0; i < reps; i++ {
		u, err := next(rec)
		if err != nil {
			return nil, nil, err
		}
		tracedWall += u.wall
		events += u.obs.events
		cycles += u.obs.cycles
		compiles += u.obs.compiles
		cases += u.cases
	}
	spans := rec.snapshot()
	m, err := layerReport(spans, cases, opaque)
	if err != nil {
		return nil, nil, err
	}
	kernelRates(m, events, cycles, cases)
	goMetrics(m, m0, m1, cases)
	m["flow.compiles"] = metric{float64(compiles) / float64(reps), "count"}
	m["flow.cache_hit_ratio"] = metric{1 - float64(compiles)/float64(cases), "ratio"}
	m["trace.overhead_ratio"] = metric{tracedWall.Seconds() / plainWall.Seconds(), "ratio"}
	out.metrics = m
	return out, spans, rec.writeFile(cfg.spans)
}

// caseMetrics reports the median time to verdict over windows of the
// run (samples in the order taken) and prints the p95 the same way,
// refusing a percentile the samples cannot support. The p95 stays out
// of the result line: on a virtual machine whose host takes its CPUs
// away for several ms at a time, a twentieth of the cases is the few
// that such a pause hits, and the p95 of simd-open moved by 45-55% of
// its median between runs as those pauses came and went.
func caseMetrics(m map[string]metric, caseMS []float64) error {
	p50, _, err := windowedPercentile(caseMS, 0.5)
	if err != nil {
		return fmt.Errorf("case_p50_ms: %w", err)
	}
	p95, windows, err := windowedPercentile(caseMS, 0.95)
	if err != nil {
		return fmt.Errorf("case p95: %w", err)
	}
	m["case_p50_ms"] = metric{p50, "ms"}
	fmt.Printf("case samples: %d, p95 %.3f ms over %d windows (highest supported percentile of the run %s)\n",
		len(caseMS), p95, windows, highestPercentile(len(caseMS)))
	return nil
}
