package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/flow"
	"repro/internal/simd"
	"repro/internal/workloads"
)

// simdRate is simd-open's fixed offered load in requests per second:
// about a fifth of what one server worker sustains at simdRounds, so
// latency shows queueing without a growing backlog.
const simdRate = 16

var simdBackends = []string{flow.DefaultBackend, "compiled"}

// simdRounds is each kind's verify rounds per request, by smallFamilies
// index and then simdBackends index: enough that every request is about
// 12 ms of server work on a 2-CPU Xeon. With one round, requests take
// 1.5 to 9 ms in twelve separate clusters; a host that takes its CPUs
// away for a few ms at a time moves whole clusters past the median, and
// the p50 spread 31% across runs, against 15% with these rounds.
var simdRounds = [][2]int{
	{6, 31},  // hamming
	{5, 30},  // fir
	{11, 59}, // newton
	{4, 21},  // matmul
	{12, 53}, // erasure
	{2, 5},   // fdct2
}

// simdKinds are the twelve request kinds: each small family on each
// backend, with the family's input seed drawn from the run seed.
func simdKinds(seed int64) []api.Request {
	var out []api.Request
	for i, f := range smallFamilies {
		for j, b := range simdBackends {
			req := api.NewRequest(f, map[string]int{"seed": workloadSeed(seed, uint64(20+i))})
			out = append(out, req.WithBackend(b).WithRounds(simdRounds[i][j]))
		}
	}
	return out
}

// simdState is a served simd instance with one warmed session per kind
// and the digest each kind's reply must carry.
type simdState struct {
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client
	kinds  []api.Request
	bodies [][]byte
	want   []string
}

func (s simdState) close() {
	if s.ts != nil {
		s.tr.CloseIdleConnections()
		s.ts.Close()
	}
}

func (s simdState) url() string { return s.ts.URL + simd.PathVerify }

func simdSetup(cfg runConfig) (st simdState, err error) {
	st.kinds = simdKinds(cfg.seed)
	// One CPU is left to the load generator and the HTTP client sharing
	// this process: with every P busy simulating, the generator's timer
	// fires late and the lateness, not the server, sets the latency.
	srv := simd.New(simd.Config{Workers: max(cfg.procs-1, 1), MaxSessions: 2 * len(st.kinds)})
	st.ts = httptest.NewServer(srv)
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.tr = &http.Transport{MaxConnsPerHost: cfg.procs, MaxIdleConnsPerHost: cfg.procs}
	st.client = &http.Client{Transport: st.tr}
	for _, k := range st.kinds {
		b, err := json.Marshal(k)
		if err != nil {
			return st, err
		}
		st.bodies = append(st.bodies, b)
	}
	// One request per kind prepares and warms its pooled session.
	for i := range st.kinds {
		s := &shot{due: time.Now()}
		s.do(context.Background(), st.client, st.url(), st.bodies[i], false)
		if !s.ok() {
			return st, fmt.Errorf("warm-up %s on %s: status %d: %v", st.kinds[i].Workload, st.kinds[i].Backend, s.status, s.err)
		}
		st.want = append(st.want, s.digest())
	}
	return st, nil
}

// schedule orders the kinds of n requests: each block of len(kinds)
// requests holds every kind once, in an order drawn from the run seed.
// Every kind so gets the same share of a run and of each window; the
// kinds' latencies lie apart, and with independent draws the share of
// each moves the p50 between seeds.
func schedule(seed int64, n, kinds int) []int {
	r := splitmix(uint64(seed) ^ 0x5eed)
	out := make([]int, 0, n+kinds)
	for len(out) < n {
		block := make([]int, kinds)
		for i := range block {
			j := int(r.next() % uint64(i+1))
			block[i], block[j] = block[j], i
		}
		out = append(out, block...)
	}
	return out[:n]
}

// simdPass is one open-loop pass with its verdict accounting.
type simdPass struct {
	shots         []*shot
	attempted, ok int
	latencyMS     []float64 // a failed request counts as +Inf
}

func (st simdState) pass(kinds []int, traced bool) (*simdPass, error) {
	p := &simdPass{}
	p.shots = openLoop(context.Background(), st.client, st.url(), func(i int) []byte { return st.bodies[kinds[i]] },
		len(kinds), time.Second/simdRate, traced)
	for i, s := range p.shots {
		p.attempted++
		if !s.ok() {
			p.latencyMS = append(p.latencyMS, math.Inf(1))
			continue
		}
		if d := s.digest(); d != st.want[kinds[i]] {
			return nil, fmt.Errorf("request %d (%s on %s): simulated-result digest %s, the warm-up's %s",
				i, st.kinds[kinds[i]].Workload, st.kinds[kinds[i]].Backend, d, st.want[kinds[i]])
		}
		p.ok++
		p.latencyMS = append(p.latencyMS, ms(s.latency()))
	}
	return p, nil
}

func runSimdOpen(cfg runConfig, traced bool) (*outcome, error) {
	st, setupS, err := timeSetup(func() (simdState, error) { return simdSetup(cfg) }, simdState.close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	n := int(cfg.seconds.Seconds() * simdRate)
	kinds := schedule(cfg.seed, n, len(st.kinds))
	out := &outcome{metrics: map[string]metric{}, digest: hash64([]byte(strings.Join(st.want, ",")))}
	account := func(p *simdPass) {
		out.attempted += p.attempted
		out.failed += p.attempted - p.ok
	}

	if !traced {
		resetPeakRSS()
		p, err := st.pass(kinds, false)
		if err != nil {
			return nil, err
		}
		account(p)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.metrics["peak_rss_mb"] = metric{rss, "MB"}
		last := p.shots[0].end
		var lag []float64
		for _, s := range p.shots {
			if s.end.After(last) {
				last = s.end
			}
			lag = append(lag, ms(s.lag))
		}
		if err := caseMetrics(out.metrics, p.latencyMS); err != nil {
			return nil, err
		}
		if q, err := percentile(p.latencyMS, 0.99); err == nil {
			fmt.Printf("request p99: %.3f ms; generator lag p50 %.3f ms, max %.3f ms\n", q, median(lag), sortedCopy(lag)[len(lag)-1])
		}
		out.metrics["setup_s"] = metric{setupS, "s"}
		out.metrics["cases_per_s"] = metric{float64(p.ok) / last.Sub(p.shots[0].due).Seconds(), "1/s"}
		fmt.Printf("requests: %d at %d/s over %d connections, %d kinds\n", n, simdRate, cfg.procs, len(st.kinds))
		return out, nil
	}

	// Traced: the first half of the schedule untraced, then the same
	// requests again with spans.
	half := kinds[:max(n/2, 1)]
	m0 := readMem()
	plain, err := st.pass(half, false)
	if err != nil {
		return nil, err
	}
	m1 := readMem()
	account(plain)
	stats := simd.NewClient(st.ts.URL, st.client)
	before, err := stats.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	tr, err := st.pass(half, true)
	if err != nil {
		return nil, err
	}
	account(tr)
	after, err := stats.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	var events, cycles uint64
	var service, sim, lag, plainSum, tracedSum time.Duration
	for i, s := range tr.shots {
		unit := fmt.Sprint(i)
		rid := rec.add(spanRequest, 0, unit, rec.at(s.due), rec.at(s.end))
		conn := time.Unix(0, s.gotConn.Load())
		rec.add(spanQueue, rid, unit, rec.at(s.due), rec.at(conn))
		sid := rec.add(spanService, rid, unit, rec.at(conn), rec.at(s.end))
		// Config records arrive a round at a time, between the rounds'
		// verifies; lay the runs back to back, ending at the last byte.
		var total time.Duration
		for _, c := range s.configs {
			total += time.Duration(c.WallNS)
		}
		t := max(rec.at(s.end)-total, rec.at(conn))
		for _, c := range s.configs {
			d := time.Duration(c.WallNS)
			rec.add(kernelLayer(c.Kernel), sid, unit, t, t+d)
			t += d
			if kernelLayer(c.Kernel) == spanCycle {
				cycles += c.Cycles
			} else {
				events += c.Events
			}
		}
		service += s.end.Sub(conn)
		sim += total
		tracedSum += s.latency()
		plainSum += plain.shots[i].latency()
		lag += plain.shots[i].lag
	}
	units := len(tr.shots)
	m, err := layerReport(rec.snapshot(), units, nil)
	if err != nil {
		return nil, err
	}
	u := float64(units)
	kernelRates(m, events, cycles, units)
	goMetrics(m, m0, m1, len(plain.shots))
	m["simd.service_ms"] = metric{ms(service) / u, "ms"}
	m["simd.sim_ms"] = metric{ms(sim) / u, "ms"}
	m["gen.lag_ms"] = metric{ms(lag) / u, "ms"}
	hits, misses := after.PoolHits-before.PoolHits, after.PoolMisses-before.PoolMisses
	if hits+misses > 0 {
		m["simd.pool_hit_ratio"] = metric{float64(hits) / float64(hits+misses), "ratio"}
	}
	m["simd.rejected"] = metric{float64(after.Rejected), "count"}
	m["flow.compiles"] = metric{float64(after.PoolMisses), "count"}
	m["flow.cache_hit_ratio"] = m["simd.pool_hit_ratio"]
	m["trace.overhead_ratio"] = metric{tracedSum.Seconds() / plainSum.Seconds(), "ratio"}
	counts := make([]int, len(st.kinds))
	for _, k := range half {
		counts[k]++
	}
	if err := simdReplica(m, st.kinds, counts); err != nil {
		return nil, err
	}
	out.metrics = m
	return out, rec.writeFile(cfg.spans)
}

// simdReplica measures the flow stages the server runs but does not
// expose, by running each kind through the same flow calls the server
// makes — build the workload, prepare, then verify rounds on the
// prepared design — with the stage observer attached. The compile side
// runs once per session, during set-up, and is reported amortized over
// the traced requests; rtg.build_ms and flow.verify_ms come from a warm
// round, times the kind's rounds per request, weighted by how often
// each kind was requested. These numbers lie inside simd.overhead_ms
// and the set-up, not beside them.
func simdReplica(m map[string]metric, kinds []api.Request, counts []int) error {
	requests := 0
	for _, c := range counts {
		requests += c
	}
	prep := newRecorder()
	weighted := map[string]float64{}
	for k, req := range kinds {
		name, v, err := workloads.ParseSpec(req.Workload)
		if err != nil {
			return err
		}
		for p, x := range req.Params {
			v[p] = x
		}
		w, err := workloads.Lookup(name)
		if err != nil {
			return err
		}
		rv, err := workloads.Resolve(w, v)
		if err != nil {
			return err
		}
		key := req.Workload + "/" + req.Backend
		root := prep.begin("replica", 0, key)
		id := prep.begin(spanBuild, root, key)
		c, err := workloads.BuildWorkload(w, rv)
		prep.end(id)
		if err != nil {
			return err
		}
		parent := root
		obs := newStageSpans(prep, func() int { return parent }, func(string) *workloads.Case { return c })
		obs.unit = key
		pipe, err := flow.New(flow.WithBackend(req.Backend), flow.WithObserver(obs))
		if err != nil {
			return err
		}
		d, err := pipe.Prepare(flow.Source{
			Name: key, Text: c.Source, Func: c.Func, ArraySizes: c.ArraySizes,
			ScalarArgs: c.ScalarArgs, Inputs: c.Inputs, Expected: c.Expected,
		})
		prep.end(root)
		if err != nil {
			return err
		}
		if obs.err != nil {
			return obs.err
		}
		// The first round builds each configuration; the server's
		// warmed sessions replay, as the second round does.
		for round := 0; round < 2; round++ {
			rec := newRecorder()
			obs.rec = rec
			parent = rec.begin("round", 0, key)
			out, err := d.Run()
			rec.end(parent)
			if err != nil {
				return err
			}
			if !out.OK() {
				return fmt.Errorf("replica of %s did not pass", key)
			}
			if round == 1 {
				self := selfTimes(rec.snapshot())
				w := float64(counts[k] * req.Rounds)
				weighted["rtg.build_ms"] += w * ms(self[spanStagePrefix+"simulate"])
				weighted["flow.verify_ms"] += w * ms(self[spanStagePrefix+"verify"])
			}
		}
	}
	n := float64(max(requests, 1))
	for name, v := range weighted {
		m[name] = metric{v / n, "ms"}
	}
	for name, d := range selfTimes(prep.snapshot()) {
		if metricName, ok := selfMetric[name]; ok {
			m[metricName] = metric{ms(d) / n, "ms"}
		}
	}
	return nil
}
