package hades

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Reactor is anything that reacts to signal changes: operators,
// finite-state machines, probes, assertions. React is invoked once per
// delta cycle in which at least one watched signal changed, after all
// signal updates of that delta have been applied.
type Reactor interface {
	Name() string
	React(sim *Simulator)
}

// ReactorFunc adapts a function to the Reactor interface.
type ReactorFunc struct {
	Label string
	Fn    func(sim *Simulator)
}

// Name returns the reactor label.
func (r *ReactorFunc) Name() string { return r.Label }

// React invokes the wrapped function.
func (r *ReactorFunc) React(sim *Simulator) { r.Fn(sim) }

// Stats accumulates kernel counters; the paper's evaluation reports
// simulation wall times, which the benchmarks derive while these counters
// support the ablation experiments.
//
// Events through Instants are per-run counters: Reset rewinds them to
// zero along with simulated time. Elaborations and Resets are lifetime
// counters that survive Reset — together they record how often this
// simulator's fabric was rebuilt versus reset-and-replayed, the
// reconfiguration cost the replay cache amortizes.
type Stats struct {
	Events    uint64 // signal-update events applied
	Deltas    uint64 // delta cycles executed
	Reactions uint64 // reactor invocations
	Instants  uint64 // distinct simulated time points

	Elaborations uint64 // netlist elaborations built on this simulator
	Resets       uint64 // reset-and-replay rounds served
}

// ErrMaxDeltas is returned when a single instant exceeds the delta-cycle
// bound, which indicates combinational feedback in the design under test.
var ErrMaxDeltas = errors.New("hades: delta cycle limit exceeded (combinational loop?)")

// ErrInterrupted is returned by Run when the Interrupt hook asks the
// kernel to stop (per-case timeouts and suite cancellation).
var ErrInterrupted = errors.New("hades: run interrupted")

// Simulator is the event-driven kernel. Create with NewSimulator, build
// signals and reactors, then Run.
//
// Events are held in a two-level queue (see queue.go): future instants
// in time-bucketed lanes backed by an overflow heap, and the zero-delay
// events of the current instant in a plain FIFO, because a delta cycle
// at (T, d) can only ever schedule into (T, d+1). The whole batch of an
// instant or delta is popped in one step with no per-event ordering
// work.
type Simulator struct {
	now    Time
	delta  int
	seq    uint64
	q      kernelQueue
	kernel string // kernelQueue implementation name (KernelTwoLevel, ...)

	// nextDelta chains the zero-delay events of the current instant in
	// insertion order; they run as one batch at delta s.delta+1.
	nextDeltaHead *event
	nextDeltaTail *event
	nextDeltaLen  int

	signals  []*Signal
	stats    Stats
	stopped  bool
	stopWhy  string
	finalize []func()

	// MaxDeltas bounds delta cycles per instant (default 10000).
	MaxDeltas int

	// Interrupt, when set, is polled once per simulated instant — on the
	// time-advance path, never per event — and when it returns true, Run
	// stops immediately and returns ErrInterrupted. Suite runners use it
	// to enforce per-case timeouts and cancellation without abandoning
	// the goroutine that owns the kernel.
	Interrupt func() bool

	order  []wake          // this delta's wake list, one entry per wake
	ids    map[Reactor]int // ordering ids for reactors without their own
	nextID int

	mark simMark // structural baseline Reset rewinds to (see Mark)
}

// simMark is the structural snapshot taken by Mark: how many signals
// exist, how many listeners each carries, and how many finish callbacks
// are registered. Reset truncates back to these counts, detaching
// everything attached after the mark (clocks, watchdogs, probes, VCD
// taps) while keeping the wired component graph itself.
type simMark struct {
	valid     bool
	signals   int
	listeners []int // per signal, parallel to Simulator.signals
	finalize  int
}

// Kernel names for the queue implementations behind a Simulator. The
// flow package registers one simulator backend per kernel.
const (
	KernelTwoLevel = "twolevel" // two-level time-bucketed queue (queue.go)
	KernelHeapRef  = "heapref"  // seed binary-heap kernel (heapqueue.go)
)

// NewSimulator returns an empty simulator on the default two-level
// queue kernel.
func NewSimulator() *Simulator {
	return newSimulator(&twoLevelQueue{}, KernelTwoLevel)
}

// NewHeapRefSimulator returns an empty simulator on the promoted seed
// heap kernel — the reference scheduling discipline the two-level queue
// is property-tested against, available as a real backend so suites can
// cross-check full runs under both kernels.
func NewHeapRefSimulator() *Simulator {
	return newSimulator(&heapQueue{}, KernelHeapRef)
}

func newSimulator(q kernelQueue, kernel string) *Simulator {
	return &Simulator{
		q:         q,
		kernel:    kernel,
		MaxDeltas: 10000,
		ids:       make(map[Reactor]int),
	}
}

// Kernel reports which queue implementation drives this simulator.
func (s *Simulator) Kernel() string { return s.kernel }

// NewSignal creates and registers a signal of the given width (1..64).
func (s *Simulator) NewSignal(name string, width int) *Signal {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("hades: signal %q has invalid width %d", name, width))
	}
	sig := &Signal{name: name, width: width, mask: Mask(^uint64(0), width), id: len(s.signals)}
	s.signals = append(s.signals, sig)
	return sig
}

// Signals returns all registered signals in creation order.
func (s *Simulator) Signals() []*Signal { return s.signals }

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Stats returns a copy of the kernel counters.
func (s *Simulator) Stats() Stats { return s.stats }

// NoteElaboration counts one netlist elaboration built on this
// simulator (a lifetime counter; see Stats).
func (s *Simulator) NoteElaboration() { s.stats.Elaborations++ }

// Mark snapshots the simulator's structure — registered signals, their
// listener counts, and finish callbacks — as the baseline Reset rewinds
// to. The elaboration layer calls it once the component graph is wired,
// so anything attached afterwards (clocks, watchdogs, probes, VCD taps)
// is detached again by Reset while the graph itself survives. A later
// Mark replaces the earlier one.
func (s *Simulator) Mark() {
	s.mark.valid = true
	s.mark.signals = len(s.signals)
	s.mark.listeners = s.mark.listeners[:0]
	for _, sig := range s.signals {
		s.mark.listeners = append(s.mark.listeners, len(sig.listeners))
	}
	s.mark.finalize = len(s.finalize)
}

// Reset rewinds the simulator so the same wired design can be run again
// without rebuilding: every pending event (both queue levels and the
// delta FIFO) returns to the free list, simulated time, the event
// sequence counter and the per-run Stats counters rewind to zero, any
// requested stop is cleared, and every signal becomes undefined again
// (the power-on X state). When a Mark was taken, signals created and
// listeners/finish callbacks attached after it are removed.
//
// Reset touches only kernel state. Re-establishing the design's
// power-on drives (constants, register reset values, FSM outputs) is
// the elaboration layer's job — see netlist.Elaboration.Reset, which
// wraps this and replays the elaboration-time initialisation.
func (s *Simulator) Reset() {
	for e := s.nextDeltaHead; e != nil; {
		next := e.next
		s.q.release(e)
		e = next
	}
	s.nextDeltaHead, s.nextDeltaTail, s.nextDeltaLen = nil, nil, 0
	s.q.reset()
	s.now, s.delta, s.seq = 0, 0, 0
	s.stopped, s.stopWhy = false, ""
	s.order = s.order[:0]
	if s.mark.valid {
		for _, sig := range s.signals[s.mark.signals:] {
			sig.listeners = nil
		}
		s.signals = s.signals[:s.mark.signals]
		for i, sig := range s.signals {
			sig.listeners = sig.listeners[:s.mark.listeners[i]]
		}
		s.finalize = s.finalize[:s.mark.finalize]
	}
	for _, sig := range s.signals {
		sig.val, sig.valid, sig.lastChange = 0, false, 0
	}
	s.stats = Stats{Elaborations: s.stats.Elaborations, Resets: s.stats.Resets + 1}
}

// PendingEvents reports the number of scheduled-but-unapplied events.
func (s *Simulator) PendingEvents() int { return s.q.len() + s.nextDeltaLen }

// Set schedules sig to take value val after delay ticks. A zero delay
// schedules for the next delta cycle of the current instant, preserving
// the evaluate/update separation of an HDL simulator.
func (s *Simulator) Set(sig *Signal, val int64, delay Time) {
	s.set(sig, uint64(val), delay)
}

// SetUint is Set for raw unsigned values.
func (s *Simulator) SetUint(sig *Signal, val uint64, delay Time) {
	s.set(sig, val, delay)
}

func (s *Simulator) set(sig *Signal, val uint64, delay Time) {
	if delay < 0 {
		panic("hades: negative delay")
	}
	s.seq++
	e := s.q.alloc()
	e.at = s.now + delay
	e.seq = s.seq
	e.sig = sig
	e.val = Mask(val, sig.width)
	if delay == 0 {
		// Same instant, next delta: a plain FIFO, because every event
		// appended here belongs to delta s.delta+1 and seq is monotonic.
		if s.nextDeltaTail != nil {
			s.nextDeltaTail.next = e
		} else {
			s.nextDeltaHead = e
		}
		s.nextDeltaTail = e
		s.nextDeltaLen++
		return
	}
	s.q.schedule(e)
}

// Drive immediately forces a signal value without an event; intended for
// initialisation before Run (e.g. loading reset states).
func (s *Simulator) Drive(sig *Signal, val int64) {
	sig.val = Mask(uint64(val), sig.width)
	sig.valid = true
}

// RequestStop asks the run loop to stop after the current delta; the
// paper lists explicit stop mechanisms among the requirements testing by
// implementation cannot offer.
func (s *Simulator) RequestStop(why string) {
	s.stopped = true
	s.stopWhy = why
}

// Stopped reports whether a stop was requested and why.
func (s *Simulator) Stopped() (bool, string) { return s.stopped, s.stopWhy }

// OnFinish registers a callback invoked when Run returns (e.g. VCD flush).
func (s *Simulator) OnFinish(fn func()) { s.finalize = append(s.finalize, fn) }

// Run processes events until the queue drains, until time exceeds limit,
// or until a stop is requested. It returns the time of the last processed
// instant.
//
// The stop flag is re-checked at the top of every batch, before any
// queue state is read: a reactor that calls RequestStop mid delta cycle
// ends the run with the remaining same-instant events still queued and
// no further reactors invoked.
func (s *Simulator) Run(limit Time) (Time, error) {
	defer func() {
		for _, fn := range s.finalize {
			fn()
		}
	}()
	for !s.stopped {
		// Current instant first: drain the delta chain before time moves.
		if s.nextDeltaHead != nil {
			if s.now > limit {
				return s.now, nil
			}
			d := s.delta + 1
			if d > s.MaxDeltas {
				return s.now, fmt.Errorf("%w at t=%s", ErrMaxDeltas, s.now)
			}
			head := s.nextDeltaHead
			s.nextDeltaHead, s.nextDeltaTail, s.nextDeltaLen = nil, nil, 0
			s.delta = d
			s.runBatch(head)
			continue
		}
		at, fromOverflow, ok := s.q.peekTime(limit)
		if !ok {
			return s.now, nil // drained, or next instant beyond limit
		}
		// Per-instant path: poll cancellation once per time advance,
		// before the queue commits any window movement to the instant.
		if s.Interrupt != nil && s.Interrupt() {
			return s.now, ErrInterrupted
		}
		s.q.commitTime(at, fromOverflow)
		s.stats.Instants++
		s.now, s.delta = at, 0
		s.runBatch(s.q.popInstant(at))
	}
	return s.now, nil
}

// runBatch applies one (time, delta) batch of signal updates and then
// evaluates the affected reactors deterministically.
func (s *Simulator) runBatch(head *event) {
	s.stats.Deltas++

	// Phase 1: apply all signal updates of this (time, delta), waking
	// the listeners of every signal that changed.
	s.order = s.order[:0]
	for e := head; e != nil; {
		s.stats.Events++
		sig := e.sig
		changed := !sig.valid || sig.val != e.val
		sig.val = e.val
		sig.valid = true
		if changed {
			sig.lastChange = s.now
			for _, r := range sig.listeners {
				s.schedule(r)
			}
		}
		next := e.next
		s.q.release(e)
		e = next
	}

	// Phase 2: evaluate affected reactors deterministically.
	s.sortOrder()
	for _, w := range s.order {
		s.stats.Reactions++
		w.r.React(s)
		if s.stopped {
			break
		}
	}
}

// wake is one wake-list entry: a reactor woken by a changed signal,
// with its ordering id resolved once at wake time.
type wake struct {
	r  Reactor
	id int
}

// schedule appends one wake. A reactor listening on several signals
// that change in the same delta appears once per change; sortOrder
// folds the repeats.
func (s *Simulator) schedule(r Reactor) {
	s.order = append(s.order, wake{r: r, id: s.reactorID(r)})
}

// sortOrder sorts the wake list by id and drops repeat wakes, leaving
// each woken reactor once. Batches are small and listeners mostly fire
// in creation order already, so an insertion sort beats sort.Slice here
// and — unlike sort.Slice — does not allocate, keeping the steady-state
// event path allocation-free. The sort is stable, so within a run of
// equal ids the first wake of each reactor comes first; keeping only
// that one orders distinct reactors sharing an id by first wake.
func (s *Simulator) sortOrder() {
	o := s.order
	for i := 1; i < len(o); i++ {
		w := o[i]
		j := i - 1
		for j >= 0 && o[j].id > w.id {
			o[j+1] = o[j]
			j--
		}
		o[j+1] = w
	}
	n, run := 0, 0 // run: start of the current equal-id run in o[:n]
	for _, w := range o {
		if n > 0 && o[n-1].id != w.id {
			run = n
		}
		if !woken(o[run:n], w.r) {
			o[n] = w
			n++
		}
	}
	s.order = o[:n]
}

// woken reports whether r already appears in a run of equal-id wakes.
func woken(run []wake, r Reactor) bool {
	for _, w := range run {
		if w.r == r {
			return true
		}
	}
	return false
}

// identified is implemented by reactors that carry a stable ordering id.
type identified interface{ ReactorID() int }

func (s *Simulator) reactorID(r Reactor) int {
	if id, ok := r.(identified); ok {
		return id.ReactorID()
	}
	id, ok := s.ids[r]
	if !ok {
		s.nextID++
		id = 1<<30 + s.nextID
		s.ids[r] = id
	}
	return id
}

// IDBase hands out stable reactor ids; embed in components.
type IDBase struct{ id int }

// AssignID gives the component its ordering id (done by NewComponent).
func (b *IDBase) AssignID(id int) { b.id = id }

// ReactorID returns the stable ordering id.
func (b *IDBase) ReactorID() int { return b.id }

var globalID atomic.Int64

// NextID returns a fresh monotonically increasing reactor id. It is safe
// for concurrent use: independent simulators are routinely built in
// parallel by the suite runner, and ids only order reactors within one
// simulator, so cross-simulator gaps are harmless.
func NextID() int {
	return int(globalID.Add(1))
}
