package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/flow"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// smallFamilies are the six small parameterizations grid-cold crosses
// with a seed range and simd-open serves on both backends: small enough
// that compile, elaboration and first-visit build dominate a case.
var smallFamilies = []string{
	"hamming,words=8", "fir,n=16,taps=4", "newton,n=8,iters=4",
	"matmul,n=4", "erasure,k=4,stripes=2", "fdct2,pixels=64",
}

const (
	gridSeeds  = 30 // seeds per family in one campaign: 180 cases
	gridShards = 12
)

// gridSpec is one grid-cold campaign: every case has its own seed, so
// every case is a new prepared-design key.
func gridSpec(name string, seed int64, seeds int) *api.SweepSpec {
	from := workloadSeed(seed, 1)
	return &api.SweepSpec{
		SchemaVersion: api.SchemaVersion,
		Name:          name,
		Shards:        gridShards,
		Backend:       flow.DefaultBackend,
		Grid:          &api.GridSpec{Workloads: smallFamilies, SeedFrom: from, SeedTo: from + seeds},
	}
}

// stampWorker is the in-process shard worker with a clock on its
// writer: it executes a shard exactly as sweep.LocalWorker does and
// takes each case's time to verdict as the gap between the shard's
// record writes. With a recorder it also records one span per shard.
type stampWorker struct {
	rec    *recorder
	parent int

	mu     sync.Mutex
	caseMS []float64
}

// Name implements sweep.Worker.
func (w *stampWorker) Name() string { return "perfbench" }

// RunShard implements sweep.Worker.
func (w *stampWorker) RunShard(ctx context.Context, c *sweep.Campaign, sh sweep.Shard, path string) error {
	start := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	sw := &stampWriter{w: bw}
	_, err = sweep.ExecuteShard(ctx, c, sh, sw, nil)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if w.rec != nil {
		w.rec.add(spanShard, w.parent, strconv.Itoa(sh.Index), w.rec.at(start), w.rec.now())
	}
	w.mu.Lock()
	w.caseMS = append(w.caseMS, sw.caseGaps()...)
	w.mu.Unlock()
	return err
}

// stampWriter notes when each record reaches it; every record is one
// Write call.
type stampWriter struct {
	w     io.Writer
	times []time.Time
}

func (s *stampWriter) Write(p []byte) (int, error) {
	s.times = append(s.times, time.Now())
	return s.w.Write(p)
}

// caseGaps are the times between consecutive record writes, dropping
// the trailing footer or summary: the header's write starts case 0.
func (s *stampWriter) caseGaps() []float64 {
	var out []float64
	for i := 1; i+1 < len(s.times); i++ {
		out = append(out, ms(s.times[i].Sub(s.times[i-1])))
	}
	return out
}

// gridState is what grid-cold's set-up leaves for the timed phase.
type gridState struct {
	camp *sweep.Campaign
	dir  string
}

func gridSetup(cfg runConfig) (gridState, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("grid-%d", os.Getpid()))
	camp, err := sweep.Load(gridSpec("grid-cold", cfg.seed, gridSeeds), nil)
	if err != nil {
		return gridState{}, err
	}
	// One seed per family, run once, so lazy process-wide set-up is not
	// charged to the first timed campaign.
	warm, err := sweep.Load(gridSpec("grid-warmup", cfg.seed, 1), nil)
	if err != nil {
		return gridState{}, err
	}
	if _, _, err := sweepOnce(warm, dir, cfg.procs, &stampWorker{}); err != nil {
		return gridState{}, err
	}
	return gridState{camp: camp, dir: dir}, nil
}

// sweepOnce runs one campaign through the sharded coordinator and
// returns the merged campaign trace and the coordinator's wall; a
// worker with a recorder gets a sweep span over the coordinator call.
func sweepOnce(camp *sweep.Campaign, dir string, workers int, w *stampWorker) ([]byte, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	if w.rec != nil {
		w.parent = w.rec.begin(spanSweep, 0, camp.Spec.Name)
	}
	start := time.Now()
	res, err := sweep.Run(context.Background(), camp, sweep.Options{Workers: workers, OutDir: dir, Worker: w})
	wall := time.Since(start)
	if w.rec != nil {
		w.rec.end(w.parent)
	}
	if err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(res.Out)
	return data, wall, err
}

// checkTrace decodes a campaign trace (header, case lines, summary) and
// counts its cases and the ones that did not pass. It returns the
// digest of the whole trace and of its case lines alone.
func checkTrace(data []byte) (cases, failed int, digest, caseDigest string, err error) {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		return 0, 0, "", "", fmt.Errorf("campaign trace has %d lines", len(lines))
	}
	for _, line := range lines[1 : len(lines)-1] {
		var rec api.TraceCase
		if err := json.Unmarshal(line, &rec); err != nil {
			return 0, 0, "", "", fmt.Errorf("campaign trace case: %w", err)
		}
		cases++
		if !rec.Passed || !rec.Completed || !rec.PolicyOK {
			failed++
		}
	}
	var sum api.TraceSummary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		return 0, 0, "", "", fmt.Errorf("campaign trace summary: %w", err)
	}
	if sum.Cases != cases || sum.OK != (failed == 0) {
		return 0, 0, "", "", fmt.Errorf("campaign summary (cases %d ok %v) disagrees with its %d case lines (%d failed)", sum.Cases, sum.OK, cases, failed)
	}
	body := bytes.Join(lines[1:len(lines)-1], []byte("\n"))
	return cases, failed, hash64(data), hash64(body, []byte("\n")), nil
}

// gridRun runs one unit: a sweep campaign and, with replay, the
// sequential replay of its cases, which must yield case records
// byte-identical to the sweep's. A nil recorder runs it untraced.
func gridRun(st gridState, cfg runConfig, rec *recorder, replay bool) (*unit, error) {
	w := &stampWorker{rec: rec}
	data, wall, err := sweepOnce(st.camp, st.dir, cfg.procs, w)
	if err != nil {
		return nil, err
	}
	u := &unit{rateWall: wall, wall: wall, caseMS: w.caseMS}
	var caseDigest string
	if u.cases, u.failed, u.digest, caseDigest, err = checkTrace(data); err != nil {
		return nil, err
	}
	if !replay {
		return u, nil
	}
	start := time.Now()
	obs, digest, err := gridReplay(st.camp, rec)
	u.wall += time.Since(start)
	if err != nil {
		return nil, err
	}
	if digest != caseDigest {
		return nil, fmt.Errorf("replay through scenario.Executor gave case digest %s, the sweep %s", digest, caseDigest)
	}
	u.obs = obs
	return u, nil
}

// gridReplay executes the campaign's cases in order on one
// scenario.Executor. With a recorder, a flow observer records the stage
// spans of each case and the compile-side breakdown. It returns the
// digest of the case records.
func gridReplay(camp *sweep.Campaign, rec *recorder) (*stageSpans, string, error) {
	var (
		root, cur int
		current   *scenario.CaseRun
		obs       *stageSpans
	)
	if rec != nil {
		root = rec.begin("replay", 0, camp.Spec.Name)
		cur = rec.begin(spanBuild, root, "")
	}
	runs, err := camp.MaterializeRange(0, camp.Cases())
	if err != nil {
		return nil, "", err
	}
	opts := scenario.Options{Backend: camp.Backend, Width: camp.Width}
	if rec != nil {
		rec.end(cur)
		obs = newStageSpans(rec, func() int { return cur }, func(string) *workloads.Case { return current.Clean })
		opts.Flow = []flow.Option{flow.WithObserver(obs)}
	}
	ex, err := scenario.NewExecutor(opts)
	if err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	for _, cr := range runs {
		current = cr
		if rec != nil {
			obs.unit = strconv.Itoa(cr.Index)
			cur = rec.begin(spanCase, root, obs.unit)
		}
		tc, err := ex.Execute(context.Background(), cr)
		if rec != nil {
			rec.end(cur)
		}
		if err != nil {
			return nil, "", err
		}
		line, err := json.Marshal(tc)
		if err != nil {
			return nil, "", err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if rec != nil {
		rec.end(root)
		if obs.err != nil {
			return nil, "", obs.err
		}
	}
	return obs, hash64(buf.Bytes()), nil
}

// sweepMetrics reads the coordinator from its spans: the median shard
// wall, the time from the last shard's end to the coordinator's return
// (validation, stats sidecar and merge), and how busy the workers were.
func sweepMetrics(m map[string]metric, spans []span, workers int) {
	lastShard := map[int]time.Duration{}
	var shardMS []float64
	var shardSum, runSum time.Duration
	for _, s := range spans {
		if s.Name == spanShard {
			shardMS = append(shardMS, ms(s.End-s.Start))
			shardSum += s.End - s.Start
			lastShard[s.Parent] = max(lastShard[s.Parent], s.End)
		}
	}
	var merge []float64
	for _, s := range spans {
		if s.Name == spanSweep {
			runSum += s.End - s.Start
			merge = append(merge, ms(s.End-lastShard[s.ID]))
		}
	}
	m["sweep.shard_p50_ms"] = metric{median(shardMS), "ms"}
	m["sweep.merge_ms"] = metric{median(merge), "ms"}
	if runSum > 0 {
		m["sweep.busy_ratio"] = metric{shardSum.Seconds() / (float64(workers) * runSum.Seconds()), "ratio"}
	}
}

func runGridCold(cfg runConfig, traced bool) (*outcome, error) {
	st, setupS, err := timeSetup(func() (gridState, error) { return gridSetup(cfg) }, func(gridState) {})
	if err != nil {
		return nil, err
	}
	run := func(rec *recorder, replay bool) (*unit, error) { return gridRun(st, cfg, rec, replay) }
	out, spans, err := throughput(cfg, traced, setupS, run, map[string]bool{spanShard: true})
	if err != nil {
		return nil, err
	}
	if traced {
		sweepMetrics(out.metrics, spans, cfg.procs)
	} else {
		fmt.Printf("campaign: %d cases in %d shards, %d workers\n", st.camp.Cases(), gridShards, cfg.procs)
	}
	return out, nil
}
