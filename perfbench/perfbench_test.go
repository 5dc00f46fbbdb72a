package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRefusesTooFewSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	if v, err := percentile(samples(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond)", v, err)
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(samples(199), 0.95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it and must be refused")
	}
	for n, want := range map[int]string{19: "", 20: "p50", 100: "p90", 200: "p95", 999: "p95", 1000: "p99", 10000: "p99.9"} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestWindowedPercentileShrugsOffOneBurst(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i % 200) // every window holds 0..199
		if i >= 400 && i < 600 {
			samples[i] += 1000 // one window slowed by a burst
		}
	}
	v, windows, err := windowedPercentile(samples, 0.95)
	if err != nil || windows != 5 || v != 189 {
		t.Fatalf("windowed p95 = %v over %d windows (%v); want 189 over 5", v, windows, err)
	}
	if _, windows, err := windowedPercentile(samples[:250], 0.95); err != nil || windows != 1 {
		t.Fatalf("250 samples support p95 in %d windows (%v); want 1", windows, err)
	}
	if _, _, err := windowedPercentile(samples[:150], 0.95); err == nil {
		t.Fatal("150 samples cannot support p95 and must be refused")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "leaf", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 5, Parent: 1, Name: "b", Start: 70, End: 75},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 50 - 5, "a": 20, "leaf": 10, "b": 35}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, got[name], d)
		}
	}
}

func TestLayerReportPartitionsTheWall(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "scenario.run", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: spanBuild, Start: 0, End: 10 * ms},
		{ID: 3, Parent: 1, Name: spanCase, Start: 10 * ms, End: 90 * ms},
		{ID: 4, Parent: 3, Name: spanStagePrefix + "simulate", Start: 20 * ms, End: 80 * ms},
		{ID: 5, Parent: 4, Name: spanHades, Start: 30 * ms, End: 70 * ms},
	}
	m, err := layerReport(spans, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := m["trace.remainder_ms"].Value
	for _, name := range selfMetric {
		sum += m[name].Value
	}
	if sum != m["trace.wall_ms"].Value || m["trace.wall_ms"].Value != 50 {
		t.Fatalf("layers + remainder = %v ms per case, wall %v; want both 50", sum, m["trace.wall_ms"].Value)
	}
	if m["hades.sim_ms"].Value != 20 || m["rtg.build_ms"].Value != 10 || m["trace.remainder_ms"].Value != 5 {
		t.Fatalf("hades %v rtg %v remainder %v; want 20, 10, 5", m["hades.sim_ms"].Value, m["rtg.build_ms"].Value, m["trace.remainder_ms"].Value)
	}
	overlapping := append(spans[:3:3], span{ID: 4, Parent: 1, Name: spanCase, Start: 50 * ms, End: 95 * ms})
	if _, err := layerReport(overlapping, 1, nil); err == nil {
		t.Fatal("overlapping sibling spans must be refused")
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range append(append([]string{}, endToEnd...), perLayer...) {
		if err := validName(name); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "p99%", "x/y", strings.Repeat("a", 65)} {
		if validName(bad) == nil {
			t.Errorf("validName(%q) accepted a bad name", bad)
		}
	}
}

// TestOpenLoopChargesStall stalls the first request's handler over the
// only connection: the requests due during the stall wait for that
// connection, and their latency, measured from their due times, must
// include the wait.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall, interval, n = 300 * time.Millisecond, 20 * time.Millisecond, 6
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		fmt.Fprintln(w, `{"record":"summary","verified":true,"passed":true}`)
	}))
	defer ts.Close()
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	shots := openLoop(context.Background(), client, ts.URL, func(int) []byte { return []byte("{}") }, n, interval, true)
	for i, s := range shots {
		if !s.ok() {
			t.Fatalf("request %d failed: status %d, %v", i, s.status, s.err)
		}
		if i == 0 {
			continue
		}
		if s.end.Before(shots[0].end) {
			t.Errorf("request %d finished before the stalled request it queued behind", i)
		}
		if min := stall - time.Duration(i)*interval; s.latency() < min {
			t.Errorf("request %d latency %v, want >= %v: the stall was not charged to it", i, s.latency(), min)
		}
		if queued := time.Unix(0, s.gotConn.Load()).Sub(s.due); queued < stall-time.Duration(i)*interval {
			t.Errorf("request %d waited %v for its connection, want >= %v", i, queued, stall-time.Duration(i)*interval)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the names the benchmark
// reports in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadsByName) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadsByName))
	}
	for _, w := range spec.Workloads {
		if workloadsByName[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark reports %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, the benchmark reports %s", i, m.Name, endToEnd[i])
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i] || m.Unit != unitOf(m.Name) {
			t.Errorf("per_layer[%d] = %s (%s), the benchmark reports %s (%s)", i, m.Name, m.Unit, perLayer[i], unitOf(perLayer[i]))
		}
	}
}

func TestScheduleGivesEveryKindItsShare(t *testing.T) {
	const kinds = 12
	got := schedule(7, 5*kinds+3, kinds)
	if len(got) != 5*kinds+3 {
		t.Fatalf("schedule has %d requests, want %d", len(got), 5*kinds+3)
	}
	for b := 0; b+kinds <= len(got); b += kinds {
		seen := make([]bool, kinds)
		for _, k := range got[b : b+kinds] {
			if k < 0 || k >= kinds || seen[k] {
				t.Fatalf("block at %d is not a permutation of the kinds: %v", b, got[b:b+kinds])
			}
			seen[k] = true
		}
	}
	if a, b := schedule(7, 24, kinds), schedule(8, 24, kinds); slices.Equal(a, b) {
		t.Errorf("seeds 7 and 8 gave the same order %v", a)
	}
}
