package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/api"
	"repro/internal/flow"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// campaignCases is one campaign-warm campaign: long enough that its
// five cold cases stay out of the p95 (at 50 cases they were a tenth of
// the cases, and the p95 spread 20% across runs), short enough that a
// run holds several campaigns to take the median of.
const campaignCases = 200

// warmMix is campaign-warm's five fixed parameterizations with large
// inputs: after each one's first case, every case replays its cached
// design, so the event kernel does nearly all the work. The sizes give
// each family about the same case time, so the seed's draw of how many
// cases each family gets does not move the figures.
var warmMix = []struct {
	family string
	params map[string]int
}{
	{"fdct2", map[string]int{"pixels": 320}},
	{"matmul", map[string]int{"n": 10}},
	{"fir", map[string]int{"n": 128, "taps": 8}},
	{"hamming", map[string]int{"words": 160}},
	{"erasure", map[string]int{"k": 8, "stripes": 40}},
}

// warmMixSeed fixes the campaign's draw of families, so every run
// replays the same sequence of parameterizations and the run seed moves
// only the families' inputs. Drawn from the run seed, the families'
// shares of a campaign move by up to a seventh between seeds, and
// cases_per_s and the case percentiles with them.
const warmMixSeed = 1

func warmSpec(seed int64, cases int) *api.ScenarioSpec {
	spec := &api.ScenarioSpec{
		SchemaVersion: api.SchemaVersion,
		Name:          "campaign-warm",
		Seed:          warmMixSeed,
		Cases:         cases,
		Backend:       flow.DefaultBackend,
	}
	for i, e := range warmMix {
		params := map[string]api.Dist{"seed": constDist(workloadSeed(seed, uint64(10+i)))}
		for k, v := range e.params {
			params[k] = constDist(v)
		}
		spec.Mix = append(spec.Mix, api.MixEntry{Family: e.family, Params: params})
	}
	return spec
}

func constDist(v int) api.Dist { return api.Dist{Const: &v} }

// warmState is what campaign-warm's set-up leaves for the timed phase:
// the loaded campaign and its cases by flow source name, which the
// compile-side breakdown looks up.
type warmState struct {
	sc     *scenario.Scenario
	byName map[string]*workloads.Case
}

func warmSetup(cfg runConfig) (warmState, error) {
	sc, err := scenario.Load(warmSpec(cfg.seed, campaignCases), nil)
	if err != nil {
		return warmState{}, err
	}
	byName := map[string]*workloads.Case{}
	for _, e := range sc.Spec.Mix {
		w, err := workloads.Lookup(e.Family)
		if err != nil {
			return warmState{}, err
		}
		v := workloads.Values{}
		for k, d := range e.Params {
			v[k] = *d.Const
		}
		rv, err := workloads.Resolve(w, v)
		if err != nil {
			return warmState{}, err
		}
		c, err := workloads.BuildWorkload(w, rv)
		if err != nil {
			return warmState{}, err
		}
		byName[e.Family+"("+rv.String()+")"] = c
	}
	// A short campaign of the same mix, so lazy process-wide set-up is
	// not charged to the timed campaigns.
	short, err := scenario.Load(warmSpec(cfg.seed, 2*len(warmMix)), nil)
	if err != nil {
		return warmState{}, err
	}
	if _, err := short.Run(context.Background(), scenario.Options{}, nil); err != nil {
		return warmState{}, err
	}
	return warmState{sc: sc, byName: byName}, nil
}

// campaignRun runs the campaign once; with a recorder it records the
// campaign, its input generation, each case (opened at the previous
// trace record, closed when the case's record reaches the writer) and
// the flow stages inside.
func campaignRun(st warmState, rec *recorder) (*unit, error) {
	tw := &traceWriter{}
	tw.stamps.w = &tw.buf
	opts := scenario.Options{}
	var obs *stageSpans
	if rec != nil {
		tw.rec, tw.root = rec, rec.begin("scenario.run", 0, st.sc.Spec.Name)
		obs = newStageSpans(rec, tw.caseSpan, func(name string) *workloads.Case { return st.byName[name] })
		tw.obs = obs
		opts.Flow = []flow.Option{flow.WithObserver(obs)}
	}
	tw.start = time.Now()
	_, err := st.sc.Run(context.Background(), opts, tw)
	wall := time.Since(tw.start)
	if rec != nil {
		rec.end(tw.root)
	}
	if err != nil {
		return nil, err
	}
	if obs != nil && obs.err != nil {
		return nil, obs.err
	}
	u := &unit{rateWall: wall, wall: wall, caseMS: tw.stamps.caseGaps(), obs: obs}
	if u.cases, u.failed, u.digest, _, err = checkTrace(tw.buf.Bytes()); err != nil {
		return nil, err
	}
	return u, nil
}

// traceWriter receives the campaign's trace records: it keeps the bytes
// for the verdict check and digest, stamps each record, and in a traced
// run turns record arrivals into case spans.
type traceWriter struct {
	buf    bytes.Buffer
	stamps stampWriter
	start  time.Time

	rec       *recorder
	root, cur int
	obs       *stageSpans
	last      time.Duration // when the previous record arrived
	records   int
}

func (t *traceWriter) Write(p []byte) (int, error) {
	n, err := t.stamps.Write(p)
	if t.rec == nil {
		return n, err
	}
	now := t.rec.at(t.stamps.times[len(t.stamps.times)-1])
	switch {
	case t.records == 0: // header: everything before it expanded the inputs
		t.rec.add(spanBuild, t.root, "", t.rec.at(t.start), now)
	case bytes.Contains(p[:min(len(p), 64)], []byte(`"record":"case"`)):
		t.rec.endAt(t.caseSpan(), now)
		t.cur = 0
	}
	t.records++
	t.last = now
	return n, err
}

// caseSpan is the open case span, opened at the previous record's
// arrival if none is open.
func (t *traceWriter) caseSpan() int {
	if t.cur == 0 {
		t.cur = t.rec.add(spanCase, t.root, fmt.Sprint(t.records-1), t.last, t.last)
		t.obs.unit = fmt.Sprint(t.records - 1)
	}
	return t.cur
}

func runCampaignWarm(cfg runConfig, traced bool) (*outcome, error) {
	st, setupS, err := timeSetup(func() (warmState, error) { return warmSetup(cfg) }, func(warmState) {})
	if err != nil {
		return nil, err
	}
	run := func(rec *recorder, _ bool) (*unit, error) { return campaignRun(st, rec) }
	out, _, err := throughput(cfg, traced, setupS, run, nil)
	return out, err
}
