// Command perfbench is the repository's end-to-end benchmark of the
// verification flow. It drives the units users run — a sharded sweep
// (grid-cold), a scenario campaign (campaign-warm) and simd verify
// requests (simd-open) — checks every verdict, and prints each metric by
// name with its unit. With -trace 1 it records spans around the calls
// into each layer and reports per-layer metrics instead. README.md in
// this directory lists the workloads and the metric → layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 7

// outDir holds the files a run leaves: sweep shard directories while a
// campaign runs and the span file of the last traced run per workload.
const outDir = ".bench_out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	procs   int
	spans   string // span output path of a traced run
}

// outcome is what a workload hands back: verdict accounting, the digest
// of its simulated results, and its metrics.
type outcome struct {
	attempted, failed int
	digest            string
	metrics           map[string]metric
}

// workload runs one benchmark workload, untraced (end-to-end metrics)
// or traced (per-layer metrics).
type workload func(cfg runConfig, traced bool) (*outcome, error)

var workloadsByName = map[string]workload{
	"grid-cold":     runGridCold,
	"campaign-warm": runCampaignWarm,
	"simd-open":     runSimdOpen,
}

// endToEnd and perLayer are the metric names each run must report; they
// match BENCHMARK.json.
var endToEnd = []string{"setup_s", "cases_per_s", "case_p50_ms", "peak_rss_mb"}

var perLayer = []string{
	"lang.parse_ms", "compiler.compile_ms", "xmlspec.marshal_ms", "xsl.transform_ms",
	"flow.compile_ms", "flow.elaborate_ms", "rtg.build_ms",
	"hades.sim_ms", "hades.events", "hades.events_per_s",
	"cycle.sim_ms", "cycle.cycles",
	"flow.verify_ms", "flow.compiles", "flow.cache_hit_ratio",
	"workloads.build_ms", "scenario.case_other_ms",
	"sweep.run_ms", "sweep.shard_p50_ms", "sweep.merge_ms", "sweep.busy_ratio",
	"simd.queue_ms", "simd.service_ms", "simd.sim_ms", "simd.overhead_ms",
	"simd.pool_hit_ratio", "simd.rejected", "gen.lag_ms",
	"go.alloc_mb_per_case", "go.gc_cycles",
	"trace.wall_ms", "trace.remainder_ms", "trace.overhead_ratio",
}

func main() {
	name := flag.String("workload", "", "workload: grid-cold, campaign-warm or simd-open")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	wl, ok := workloadsByName[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want grid-cold, campaign-warm or simd-open)", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) || seed < 0 {
		return errors.New("-seconds must be >= 1, -trace 0 or 1, -seed >= 0")
	}
	// Before Go 1.25 GOMAXPROCS ignores a container's CPU quota; pin it
	// to the CPUs this process may run on, so runs compare across hosts.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := runConfig{seed: seed, seconds: time.Duration(seconds) * time.Second, procs: procs}
	if trace == 1 {
		cfg.spans = filepath.Join(outDir, "spans-"+name+".jsonl")
	}
	fmt.Println("host:", fingerprint(procs))
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)

	out, err := wl(cfg, trace == 1)
	if err != nil {
		return err
	}
	want := endToEnd
	if trace == 1 {
		want = perLayer
	}
	if err := checkMetrics(out.metrics, want); err != nil {
		return err
	}
	fmt.Printf("digest: %s\n", out.digest)
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("  %-24s %14.4f %s\n", n, m.Value, m.Unit)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkMetrics insists on exactly the wanted names, each valid and
// finite.
func checkMetrics(got map[string]metric, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("internal: %d metrics, want %d", len(got), len(want))
	}
	for _, n := range want {
		if err := validName(n); err != nil {
			return err
		}
		m, ok := got[n]
		if !ok {
			return fmt.Errorf("internal: metric %s missing", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
	}
	return nil
}

// fingerprint names the host class a result belongs to: results compare
// only within one.
func fingerprint(procs int) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpuModel(), procs, runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the process's VmHWM from its current RSS. Where
// the kernel refuses, later readings are the peak since the process
// started: still a peak, only a coarser one.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reset the peak RSS, reporting the process's peak:", err)
	}
}

// peakRSSMB is the process's VmHWM: the most resident memory it held
// since it started or since resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// timeSetup runs setup setupReps times and returns the last result with
// the median of the walls; close releases an earlier repetition's state.
func timeSetup[T any](setup func() (T, error), close func(T)) (T, float64, error) {
	var (
		st    T
		walls []float64
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			close(st)
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return st, 0, fmt.Errorf("setup: %w", err)
		}
		walls = append(walls, time.Since(start).Seconds())
		st = s
	}
	return st, median(walls), nil
}

// hash64 is a running FNV-1a digest of simulated results.
func hash64(parts ...[]byte) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// memStats samples the Go runtime's allocation and GC counters.
type memStats struct {
	alloc uint64
	gc    uint32
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{m.TotalAlloc, m.NumGC}
}

// goMetrics reports allocation and GC cycles per case between two
// samples.
func goMetrics(m map[string]metric, before, after memStats, cases int) {
	n := float64(max(cases, 1))
	m["go.alloc_mb_per_case"] = metric{float64(after.alloc-before.alloc) / (1 << 20) / n, "MB"}
	m["go.gc_cycles"] = metric{float64(after.gc-before.gc) / n, "1/case"}
}

// splitmix is a small seeded generator for the benchmark's own choices
// (the repository keeps math/rand to its scenario package).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// workloadSeed derives a family's input seed (the workloads' seed
// parameter range is [0, 2^30]) from the run seed and a salt.
func workloadSeed(seed int64, salt uint64) int {
	s := splitmix(uint64(seed)*0x100000001b3 + salt)
	return int(s.next() % (1 << 29))
}
