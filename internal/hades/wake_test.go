package hades

import (
	"reflect"
	"testing"
)

// labelReactor records its label on every reaction and, when stop is
// set, requests a stop; its id stays 0 unless assigned.
type labelReactor struct {
	IDBase
	label string
	out   *[]string
	stop  bool
}

func (r *labelReactor) Name() string { return r.label }
func (r *labelReactor) React(s *Simulator) {
	*r.out = append(*r.out, r.label)
	if r.stop {
		s.RequestStop(r.label)
	}
}

// TestReactorWokenOncePerDelta: a reactor listening on several signals
// that all change in the same delta reacts exactly once.
func TestReactorWokenOncePerDelta(t *testing.T) {
	for _, k := range resetKernels {
		t.Run(k.name, func(t *testing.T) {
			sim := k.mk()
			var got []string
			r := &labelReactor{label: "r", out: &got}
			r.AssignID(NextID())
			f := &ReactorFunc{Label: "f", Fn: func(*Simulator) { got = append(got, "f") }}
			for _, name := range []string{"a", "b", "c"} {
				sig := sim.NewSignal(name, 8)
				sig.Listen(r)
				sig.Listen(f)
				sim.Set(sig, 1, 1)
			}
			if _, err := sim.Run(TimeMax); err != nil {
				t.Fatal(err)
			}
			if want := []string{"r", "f"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("reactions %v, want %v", got, want)
			}
			if st := sim.Stats(); st.Reactions != 2 || st.Events != 3 {
				t.Fatalf("stats %+v, want 3 events and 2 reactions", st)
			}
		})
	}
}

// TestEqualIDReactorsFirstWakeOrder: distinct reactors sharing an id
// (two components never given one, so both at 0) each react once, in
// the order they were first woken; a ReactorFunc's lazy id sorts after.
func TestEqualIDReactorsFirstWakeOrder(t *testing.T) {
	for _, tc := range []struct {
		first string // signal whose event is applied first
		want  []string
	}{
		{"s2", []string{"x", "y", "f"}}, // s2 wakes x, y; s1 wakes y, f
		{"s1", []string{"y", "x", "f"}}, // s1 wakes y, f; s2 wakes x, y
	} {
		for _, k := range resetKernels {
			t.Run(k.name+"/"+tc.first, func(t *testing.T) {
				sim := k.mk()
				var got []string
				x := &labelReactor{label: "x", out: &got}
				y := &labelReactor{label: "y", out: &got}
				f := &ReactorFunc{Label: "f", Fn: func(*Simulator) { got = append(got, "f") }}
				s1 := sim.NewSignal("s1", 8)
				s2 := sim.NewSignal("s2", 8)
				s1.Listen(y)
				s1.Listen(f)
				s2.Listen(x)
				s2.Listen(y)
				if tc.first == "s1" {
					sim.Set(s1, 1, 1)
					sim.Set(s2, 1, 1)
				} else {
					sim.Set(s2, 1, 1)
					sim.Set(s1, 1, 1)
				}
				if _, err := sim.Run(TimeMax); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("reactions %v, want %v", got, tc.want)
				}
			})
		}
	}
}

// TestStopMidBatchLeavesNoStaleWakes: reactors a stop request cuts off
// stay unreacted — neither a resumed Run nor the Run after a Reset
// invokes them unless a fresh change wakes them.
func TestStopMidBatchLeavesNoStaleWakes(t *testing.T) {
	for _, k := range resetKernels {
		t.Run(k.name, func(t *testing.T) {
			sim := k.mk()
			var got []string
			stopper := &labelReactor{label: "stop", out: &got, stop: true}
			b := &labelReactor{label: "b", out: &got}
			c := &labelReactor{label: "c", out: &got}
			d := &labelReactor{label: "d", out: &got}
			for i, r := range []*labelReactor{stopper, b, c, d} {
				r.AssignID(i + 1)
			}
			s := sim.NewSignal("s", 8)
			u := sim.NewSignal("u", 8)
			s.Listen(c)
			s.Listen(b)
			s.Listen(stopper)
			u.Listen(d)
			sim.Set(s, 1, 1)
			if _, err := sim.Run(TimeMax); err != nil {
				t.Fatal(err)
			}
			if want := []string{"stop"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("stopping batch reacted %v, want %v", got, want)
			}
			if _, err := sim.Run(TimeMax); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 {
				t.Fatalf("resumed stopped run reacted %v", got[1:])
			}

			sim.Reset()
			got = got[:0]
			sim.Set(u, 1, 1)
			if _, err := sim.Run(TimeMax); err != nil {
				t.Fatal(err)
			}
			if want := []string{"d"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("run after reset reacted %v, want %v", got, want)
			}
			if st := sim.Stats(); st.Reactions != 1 {
				t.Fatalf("reactions after reset = %d, want 1", st.Reactions)
			}
		})
	}
}
