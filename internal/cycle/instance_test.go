package cycle_test

import (
	"testing"

	"repro/internal/cycle"
	"repro/internal/workloads"
)

// TestGangRunSteadyStateAllocs: once a 32-lane instance has run one
// round, a Reset+Run round of the whole gang allocates nothing — lane
// state, the deferred-publication list and the guard environment are
// all reused.
func TestGangRunSteadyStateAllocs(t *testing.T) {
	const lanes = 32
	for _, name := range []string{"erasure", "newton"} {
		t.Run(name, func(t *testing.T) {
			cs, err := workloads.Build(name, equivParams[name])
			if err != nil {
				t.Fatal(err)
			}
			design := compileDesign(t, cs)
			cfg := design.RTG.Configurations[0]
			dp := design.Datapaths[cfg.Datapath]
			prog, err := cycle.Compile(dp, design.FSMs[cfg.FSM], nil)
			if err != nil {
				t.Fatal(err)
			}
			init := configSeeds(dp, newStore(cs))
			inst := prog.NewInstance(lanes)
			round := func() {
				for l := 0; l < lanes; l++ {
					inst.Reset(l, init)
				}
				if err := inst.Run(10, equivMaxCycles, nil); err != nil {
					t.Fatal(err)
				}
			}
			round()
			if !inst.Result(0).Completed {
				t.Fatal("warm-up round did not complete")
			}
			if avg := testing.AllocsPerRun(5, round); avg != 0 {
				t.Fatalf("gang Reset+Run allocates %v objects per round, want 0", avg)
			}
		})
	}
}
