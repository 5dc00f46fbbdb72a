package flow_test

import (
	"fmt"
	"testing"

	"repro/internal/flow"
	"repro/internal/workloads"
)

// TestSimulateGangMatchesSequential is the gang acceptance property:
// the same lane population must produce identical per-lane results on
// the compiled backend's lockstep path, the event backend's sequential
// fallback, and plain one-at-a-time SetSeed+Simulate rounds — same
// configuration sequences, same cycle counts, same sink recordings,
// same final memories.
func TestSimulateGangMatchesSequential(t *testing.T) {
	laneSeeds := []map[string][]int64{
		nil, // prepared seeds untouched
		{"a": {1, 2, 3, 4, 5, 6, 7, 8}},
		{"a": {-8, -7, -6, -5, -4, -3, -2, -1}},
		{"a": {100, 0, -100, 50, 25, 12, 6, 3}},
	}

	type laneOut struct {
		completed bool
		runs      string
		memories  string
	}
	gangOn := func(backend string) []laneOut {
		p, err := flow.New(flow.WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.Prepare(scaleSource())
		if err != nil {
			t.Fatal(err)
		}
		sims, err := d.SimulateGang(laneSeeds)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]laneOut, len(sims))
		for l, s := range sims {
			var runs string
			for _, run := range s.Runs {
				runs += fmt.Sprintf("%s cycles=%d completed=%v state=%s sinks=%v;",
					run.ID, run.Cycles, run.Completed, run.FinalState, run.Sinks)
			}
			out[l] = laneOut{completed: s.Completed, runs: runs, memories: fmt.Sprint(s.Memories)}
		}
		return out
	}

	compiled := gangOn("compiled")
	event := gangOn("twolevel")
	if len(compiled) != len(laneSeeds) || len(event) != len(laneSeeds) {
		t.Fatalf("lane counts: compiled %d, event %d, want %d", len(compiled), len(event), len(laneSeeds))
	}
	for l := range laneSeeds {
		if compiled[l] != event[l] {
			t.Fatalf("lane %d diverges between lockstep and sequential gang:\ncompiled %+v\nevent    %+v",
				l, compiled[l], event[l])
		}
	}

	// Ground truth: each lane as its own sequential SetSeed+Simulate round.
	p, err := flow.New(flow.WithBackend("twolevel"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Prepare(scaleSource())
	if err != nil {
		t.Fatal(err)
	}
	for l, seeds := range laneSeeds {
		for id, words := range seeds {
			if err := d.SetSeed(id, words); err != nil {
				t.Fatal(err)
			}
		}
		s, err := d.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(s.Memories); got != compiled[l].memories {
			t.Fatalf("lane %d: gang memories diverge from a sequential round:\ngang %s\nseq  %s",
				l, compiled[l].memories, got)
		}
		if s.Completed != compiled[l].completed {
			t.Fatalf("lane %d: completion diverges", l)
		}
	}
}

// TestSimulateGangLaneSeedValidation: unknown shared-memory ids in a
// lane seed must fail the whole gang up front.
func TestSimulateGangLaneSeedValidation(t *testing.T) {
	p, err := flow.New(flow.WithBackend("compiled"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Prepare(scaleSource())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SimulateGang([]map[string][]int64{{"ghost": {1}}}); err == nil {
		t.Fatal("unknown lane-seed memory must error")
	}
}

// gangReuseParams keeps every registered family small enough for a
// two-round, three-lane gang on both engines.
var gangReuseParams = map[string]workloads.Values{
	"erasure": {"k": 4, "stripes": 8},
	"fdct1":   {"pixels": 128},
	"fdct2":   {"pixels": 128},
	"fir":     {"n": 64, "taps": 4},
	"hamming": {"words": 16},
	"matmul":  {"n": 6},
	"newton":  {"n": 32, "iters": 8},
}

// TestSimulateGangReuseExact guards the compiled engine's change
// epochs across rounds: a prepared design runs two gangs with
// different lane seeds, and every lane of the second round must equal
// a fresh single-lane gang on the same seeds — runs, sinks, memories
// and the Events/Reactions/Cycles counters — and a twolevel round on
// them in everything but the engine-specific counters. A stale epoch
// surviving Reset would skip work the fresh run does.
func TestSimulateGangReuseExact(t *testing.T) {
	const lanes = 3
	for _, fam := range workloads.Names() {
		vals, ok := gangReuseParams[fam]
		if !ok {
			t.Fatalf("family %q has no gang reuse parameters", fam)
		}
		t.Run(fam, func(t *testing.T) {
			w, err := workloads.Lookup(fam)
			if err != nil {
				t.Fatal(err)
			}
			c, err := workloads.BuildWorkloadInputs(w, vals)
			if err != nil {
				t.Fatal(err)
			}
			src := flow.Source{
				Name: c.Name, Text: c.Source, Func: c.Func,
				ArraySizes: c.ArraySizes, ScalarArgs: c.ScalarArgs, Inputs: c.Inputs,
			}
			prepare := func(backend string) *flow.PreparedDesign {
				p, err := flow.New(flow.WithBackend(backend))
				if err != nil {
					t.Fatal(err)
				}
				d, err := p.Prepare(src)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			// Lane seeds rotate each input array by a per-round,
			// per-lane offset, so both rounds carry different data.
			seedsFor := func(round int) []map[string][]int64 {
				out := make([]map[string][]int64, lanes)
				for l := range out {
					out[l] = map[string][]int64{}
					for name, in := range c.Inputs {
						if len(in) == 0 {
							continue
						}
						words := make([]int64, c.ArraySizes[name])
						for i := range words {
							words[i] = in[(i+round*lanes+l+1)%len(in)]
						}
						out[l][name] = words
					}
				}
				return out
			}
			reused := prepare("compiled")
			if _, err := reused.SimulateGang(seedsFor(0)); err != nil {
				t.Fatal(err)
			}
			seeds := seedsFor(1)
			got, err := reused.SimulateGang(seeds)
			if err != nil {
				t.Fatal(err)
			}
			event := prepare("twolevel")
			for l := range seeds {
				fresh, err := prepare("compiled").SimulateGang(seeds[l : l+1])
				if err != nil {
					t.Fatal(err)
				}
				for id, words := range seeds[l] {
					if err := event.SetSeed(id, words); err != nil {
						t.Fatal(err)
					}
				}
				seq, err := event.Simulate()
				if err != nil {
					t.Fatal(err)
				}
				if want, f := laneDigest(got[l], true), laneDigest(fresh[0], true); f != want {
					t.Fatalf("lane %d: reused gang diverges from a fresh gang:\nreused %s\nfresh  %s", l, want, f)
				}
				if want, s := laneDigest(got[l], false), laneDigest(seq, false); s != want {
					t.Fatalf("lane %d: compiled gang diverges from twolevel:\ncompiled %s\ntwolevel %s", l, want, s)
				}
			}
		})
	}
}

// laneDigest renders what the gang reuse test compares; counters adds
// the engine-specific Events and Reactions.
func laneDigest(s *flow.SimResult, counters bool) string {
	out := fmt.Sprintf("completed=%v cycles=%d mem=%v;", s.Completed, s.TotalCycles, s.Memories)
	for _, run := range s.Runs {
		out += fmt.Sprintf(" %s cycles=%d completed=%v state=%s sinks=%v",
			run.ID, run.Cycles, run.Completed, run.FinalState, run.Sinks)
		if counters {
			out += fmt.Sprintf(" events=%d reactions=%d", run.Stats.Events, run.Stats.Reactions)
		}
		out += ";"
	}
	return out
}
