package sweep

import (
	"context"
	"testing"
	"time"

	"repro/internal/api"
)

// TestHalfOpenEndpointProbesWithHedge pins the dispatcher's liveness
// once the queue has drained: a half-open endpoint with no pending
// shard probes by hedging a straggler — here the only endpoint that
// may — instead of waiting for pending work that never comes.
func TestHalfOpenEndpointProbesWithHedge(t *testing.T) {
	words := 4
	spec := &api.ScenarioSpec{
		Name: "probe", Seed: 1, Cases: 1,
		Mix:     []api.MixEntry{{Family: "hamming", Params: map[string]api.Dist{"words": {Const: &words}}}},
		Arrival: &api.ArrivalSpec{Kind: api.ArrivalDeterministic, IntervalNS: 1000},
	}
	c, err := Load(WrapScenario(spec, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		OutDir:   t.TempDir(),
		HedgeMin: time.Millisecond,
		Endpoints: []Endpoint{
			{Worker: &LocalWorker{}, Name: "stalled"},
			{Worker: &LocalWorker{}, Name: "probe"},
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newDispatcher(ctx, cancel, c, opts, c.Shards(), &Result{Shards: make([]api.ShardStats, 1)}, 0)
	// The only shard is in flight on the stalled endpoint, an attempt
	// that never returns, and the other endpoint is half-open.
	d.newAttempt(d.tasks[0], 0, false, false).start = time.Now().Add(-time.Second)
	probe := d.eps[1]
	probe.state = healthHalfOpen

	ran := make(chan struct{})
	go func() {
		d.run()
		close(ran)
	}()
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		cancel()
		<-ran
		t.Fatal("the half-open endpoint never probed the straggler: the pass hung")
	}
	if d.done != 1 || d.hedgesWon != 1 {
		t.Errorf("done=%d hedgesWon=%d, want the straggler won by one hedge", d.done, d.hedgesWon)
	}
	if probe.probes != 1 || probe.state != healthClosed {
		t.Errorf("probes=%d state=%q, want one probe that closed the breaker", probe.probes, probe.state)
	}
}
