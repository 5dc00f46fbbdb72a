package cycle

import (
	"fmt"

	"repro/internal/hades"
	"repro/internal/rtg"
)

// Sample is one traced slot observation: the raw masked value and its
// definedness, exactly what a hades.Signal holds pre-edge.
type Sample struct {
	Val   uint64
	Valid bool
}

// Instance is runnable per-lane state of a compiled Program. All value
// state is struct-of-arrays indexed slot-major (slot*lanes+lane), so a
// gang of lanes evaluates each node over a contiguous stripe. An
// Instance is not safe for concurrent use; the controller serializes.
//
// Evaluation is change-driven. Every slot change is stamped with the
// number of the clock edge that made it, one stamp per slot over all
// lanes (a gang's lanes move in lockstep, so finer stamps cost more
// than they skip). A combinational node none of whose inputs carries
// the current edge's stamp, and a register or RAM port none of whose
// inputs carries the previous edge's, would recompute what its output
// already holds, so its whole stripe is skipped; the FSM skips per lane
// when its state and its guard operands are unchanged. Edge numbers
// only grow, so a stale stamp never reads as current, and the first
// edge after a Reset evaluates everything. A memory read needs no write
// stamp: a RAM writes only at the address its port reads, and the port
// itself republishes that word.
type Instance struct {
	p     *Program
	lanes int

	vals  []uint64 // slot-major value planes
	valid []bool

	slotChg []uint64 // per slot: edge of the last change in any lane
	edge    uint64   // number of the current (or last) clock edge
	full    bool     // set by Reset: the next edge evaluates everything

	mems    [][]uint64 // per memSpec, address-major: mem[addr*lanes+lane]
	stimVec [][]int64  // per (stim, lane): private copy of the vector
	stimPos []int
	sinkRec [][]int64 // per (sink, lane)

	state     []int
	cycles    []uint64
	endTime   []hades.Time
	completed []bool
	armed     []bool
	stateChg  []uint64 // per lane: edge of the last FSM state change
	doneChg   []uint64 // per lane: edge of the last change of done

	// per-run counters (rewound by Reset) and the lifetime reset count,
	// mirroring the hades.Stats split.
	events    []uint64
	reactions []uint64
	instants  []uint64
	resets    []uint64

	// Deferred-publication scratch: phase A samples against pre-edge
	// slot values and parks results here; publish() then applies them,
	// which is what makes register chains and RAM read-after-write match
	// the event kernel's next-delta Set semantics.
	pend  []pendSet   // register, RAM read-port and stimulus updates
	taken []*fsmTrans // per lane: state-changing transition taken, or nil

	env laneEnv // reused guard environment, so no per-lane boxing

	traceOn bool
	traces  [][][]Sample // per lane, per cycle: one Sample per slot
}

// NewInstance allocates state for the given lane count (minimum 1).
func (p *Program) NewInstance(lanes int) *Instance {
	if lanes < 1 {
		lanes = 1
	}
	in := &Instance{p: p, lanes: lanes}
	in.env.in = in
	n := len(p.slots) * lanes
	in.vals = make([]uint64, n)
	in.valid = make([]bool, n)
	in.slotChg = make([]uint64, len(p.slots))
	in.mems = make([][]uint64, len(p.mems))
	for m := range p.mems {
		in.mems[m] = make([]uint64, p.mems[m].depth*lanes)
	}
	in.stimVec = make([][]int64, len(p.stims)*lanes)
	in.stimPos = make([]int, len(p.stims)*lanes)
	in.sinkRec = make([][]int64, len(p.sinks)*lanes)
	in.state = make([]int, lanes)
	in.cycles = make([]uint64, lanes)
	in.endTime = make([]hades.Time, lanes)
	in.completed = make([]bool, lanes)
	in.armed = make([]bool, lanes)
	in.stateChg = make([]uint64, lanes)
	in.doneChg = make([]uint64, lanes)
	in.events = make([]uint64, lanes)
	in.reactions = make([]uint64, lanes)
	in.instants = make([]uint64, lanes)
	in.resets = make([]uint64, lanes)
	in.pend = make([]pendSet, 0, (len(p.regs)+len(p.rams)+2*len(p.stims))*lanes)
	in.taken = make([]*fsmTrans, lanes)
	in.traces = make([][][]Sample, lanes)
	return in
}

// Lanes returns the lane count.
func (in *Instance) Lanes() int { return in.lanes }

// EnableTrace records every slot's pre-edge value each cycle, the
// cycle-engine side of the cross-engine clock-edge trace comparison.
func (in *Instance) EnableTrace() { in.traceOn = true }

// TraceRows returns a lane's recorded trace: one row per executed
// cycle, indexed by slot (see Program.SlotNames). Rows are live until
// the lane's next Reset.
func (in *Instance) TraceRows(lane int) [][]Sample { return in.traces[lane] }

// Slot value accessors. Reads mirror hades.Signal exactly: Int
// sign-extends from the producing slot's width, Bool is bit 0 of the
// raw value (an undefined slot reads 0, hence false), Uint is raw.

func (in *Instance) validAt(slot, lane int) bool  { return in.valid[slot*in.lanes+lane] }
func (in *Instance) uintAt(slot, lane int) uint64 { return in.vals[slot*in.lanes+lane] }
func (in *Instance) boolAt(slot, lane int) bool   { return in.vals[slot*in.lanes+lane]&1 == 1 }
func (in *Instance) intAt(slot, lane int) int64 {
	sh := in.p.slots[slot].shift
	return int64(in.vals[slot*in.lanes+lane]<<sh) >> sh
}

// set publishes a value into a slot, masked to the slot width; a change
// of value or definedness counts one event, like the kernel's batch
// apply, stamps the slot with the current edge and reports true.
func (in *Instance) set(slot, lane int, v int64) bool {
	i := slot*in.lanes + lane
	m := uint64(v) & in.p.slots[slot].mask
	if in.valid[i] && in.vals[i] == m {
		return false
	}
	in.vals[i], in.valid[i] = m, true
	in.events[lane]++
	in.slotChg[slot] = in.edge
	return true
}

// laneEnv adapts one lane's status slots to the fsmsim guard Env.
type laneEnv struct {
	in   *Instance
	lane int
}

// Truth is true when the named status is defined and non-zero.
func (e *laneEnv) Truth(name string) bool {
	s, ok := e.in.p.statusSlot[name]
	if !ok {
		return false
	}
	i := s*e.in.lanes + e.lane
	return e.in.valid[i] && e.in.vals[i] != 0
}

// Reset rewinds one lane to the program's initial state and arms it:
// slots undefined, ground and constants driven, registers at their
// power-on values, the FSM in its initial state with that state's
// outputs asserted, memories and stimuli reseeded from init (keyed by
// operator id; missing ids zero-fill), sinks cleared — then one
// combinational settle pass, the compiled counterpart of the event
// kernel's time-zero delta cascade. init contents are copied.
func (in *Instance) Reset(lane int, init map[string][]int64) {
	L := in.lanes
	in.resets[lane]++
	in.events[lane], in.reactions[lane], in.instants[lane] = 0, 0, 0
	for s := range in.p.slots {
		i := s*L + lane
		in.vals[i], in.valid[i] = 0, false
	}
	if in.p.gnd >= 0 {
		in.valid[in.p.gnd*L+lane] = true
	}
	for _, cs := range in.p.consts {
		in.set(cs.slot, lane, cs.val)
	}
	for r := range in.p.regs {
		in.set(in.p.regs[r].q, lane, in.p.regs[r].init)
	}
	in.state[lane] = in.p.initial
	st := &in.p.states[in.p.initial]
	for o, slot := range in.p.ctlSlots {
		in.set(slot, lane, st.outs[o])
	}
	for m := range in.p.mems {
		ms := &in.p.mems[m]
		mem := in.mems[m]
		words, ok := init[ms.id]
		if !ok {
			words = ms.init
		}
		for a := 0; a < ms.depth; a++ {
			var w uint64
			if a < len(words) {
				w = uint64(words[a]) & ms.mask
			}
			mem[a*L+lane] = w
		}
	}
	for s := range in.p.stims {
		i := s*L + lane
		src, ok := init[in.p.stims[s].id]
		if !ok {
			src = in.p.stims[s].init
		}
		vec := in.stimVec[i]
		if cap(vec) < len(src) {
			vec = make([]int64, len(src))
		}
		vec = vec[:len(src)]
		copy(vec, src)
		in.stimVec[i] = vec
		in.stimPos[i] = 0
	}
	for s := range in.p.sinks {
		i := s*L + lane
		in.sinkRec[i] = in.sinkRec[i][:0]
	}
	in.cycles[lane], in.endTime[lane], in.completed[lane] = 0, 0, false
	in.armed[lane] = true
	if in.traceOn {
		in.traces[lane] = in.traces[lane][:0]
	}
	in.full = true
	in.reactions[lane] += uint64(len(in.p.comb))
	for i := range in.p.comb {
		in.evalNode(&in.p.comb[i], lane, lane+1)
	}
}

// Run executes every armed lane clock-by-clock. The horizon mirrors the
// event kernel's clock arithmetic exactly: with half = period/2, rising
// edge k falls at (2k-1)*half, and edges run while that stays within
// maxCycles*period — so cycle counts and end times agree with a
// hades.Clock for every period, odd ones included. A lane completes
// when its done control transitions to 1 (the watchdog condition) and
// is disarmed; at the horizon the remaining lanes complete if their FSM
// sits in a final state or holds done high.
func (in *Instance) Run(period hades.Time, maxCycles uint64, interrupt func() bool) error {
	if period < 2 {
		return fmt.Errorf("cycle: clock period must be at least 2 ticks")
	}
	half := period / 2
	limit := hades.Time(maxCycles) * period
	edges := uint64((limit/half + 1) / 2)
	capEnd := (limit / half) * half
	perEdge := in.p.perEdge
	for cyc := uint64(1); cyc <= edges; cyc++ {
		any := false
		for l := 0; l < in.lanes; l++ {
			if in.armed[l] {
				any = true
				break
			}
		}
		if !any {
			return nil
		}
		if interrupt != nil && interrupt() {
			return hades.ErrInterrupted
		}
		if in.traceOn {
			in.snapshot()
		}
		in.edge++
		full := in.full
		in.full = false
		in.phaseA(full)
		in.publish()
		in.settleAll(full)
		for l := 0; l < in.lanes; l++ {
			if !in.armed[l] {
				continue
			}
			in.cycles[l] = cyc
			in.instants[l]++
			in.reactions[l] += perEdge
			// Completion is a *change* of done to 1, the event kernel's
			// watchdog condition: a done held high from the initial
			// state never trips it.
			if in.p.done >= 0 && in.doneChg[l] == in.edge && in.uintAt(in.p.done, l) == 1 {
				in.completed[l] = true
				in.endTime[l] = hades.Time(2*(cyc-1))*half + half
				in.armed[l] = false
			}
		}
	}
	for l := 0; l < in.lanes; l++ {
		if !in.armed[l] {
			continue
		}
		in.endTime[l] = capEnd
		in.completed[l] = in.p.states[in.state[l]].final || in.doneLevel(l)
		in.armed[l] = false
	}
	return nil
}

// doneLevel reports whether a lane's done control is defined and holds 1.
func (in *Instance) doneLevel(l int) bool {
	if in.p.done < 0 {
		return false
	}
	i := in.p.done*in.lanes + l
	return in.valid[i] && in.vals[i]&1 == 1
}

// snapshot records every armed lane's pre-edge slot values.
func (in *Instance) snapshot() {
	for l := 0; l < in.lanes; l++ {
		if !in.armed[l] {
			continue
		}
		row := make([]Sample, len(in.p.slots))
		for s := range in.p.slots {
			i := s*in.lanes + l
			row[s] = Sample{Val: in.vals[i], Valid: in.valid[i]}
		}
		in.traces[l] = append(in.traces[l], row)
	}
}

// pendSet is one deferred slot update.
type pendSet struct {
	slot, lane int32
	val        int64
}

func (in *Instance) deferSet(slot, lane int, v int64) {
	in.pend = append(in.pend, pendSet{slot: int32(slot), lane: int32(lane), val: v})
}

// phaseA evaluates every sequential element against the pre-edge slot
// values: register sampling, FSM transition, RAM write + read-port
// refresh, stimulus advance and sink capture. Nothing publishes here —
// results park in the deferred scratch so every element of the same
// edge observes the same pre-edge state, exactly like the event
// kernel's delta-0 reactions.
//
// Unless full, a register, RAM port or FSM whose inputs did not change
// on the previous edge is skipped: it would redo the previous edge's
// work and publish values its outputs already hold (a RAM rewriting the
// word it wrote, an FSM keeping its state).
func (in *Instance) phaseA(full bool) {
	L := in.lanes
	prev := in.edge - 1
	for r := range in.p.regs {
		rg := &in.p.regs[r]
		if !full && in.quiet(rg.deps, prev) {
			continue
		}
		for l := 0; l < L; l++ {
			if !in.armed[l] {
				continue
			}
			if rg.rst >= 0 && in.boolAt(rg.rst, l) {
				in.deferSet(rg.q, l, rg.init)
				continue
			}
			if rg.en >= 0 && !in.boolAt(rg.en, l) {
				continue
			}
			if in.validAt(rg.d, l) {
				in.deferSet(rg.q, l, in.intAt(rg.d, l))
			}
		}
	}
	insQuiet := !full && in.quiet(in.p.fsmIns, prev)
	for l := 0; l < L; l++ {
		in.taken[l] = nil
		if !in.armed[l] || insQuiet && in.stateChg[l] != prev {
			continue
		}
		if tr := in.transition(l); tr != nil && tr.next != in.state[l] {
			in.state[l], in.stateChg[l] = tr.next, in.edge
			in.taken[l] = tr
		}
	}
	for m := range in.p.rams {
		rn := &in.p.rams[m]
		if !full && in.quiet(rn.deps, prev) {
			continue
		}
		ms := &in.p.mems[rn.mem]
		mem := in.mems[rn.mem]
		for l := 0; l < L; l++ {
			if !in.armed[l] || !in.validAt(rn.addr, l) {
				continue
			}
			a := int(in.uintAt(rn.addr, l))
			if a >= ms.depth {
				continue
			}
			w := &mem[a*L+l]
			if in.boolAt(rn.we, l) && in.validAt(rn.din, l) {
				*w = in.uintAt(rn.din, l) & ms.mask
			}
			// Read-port refresh from the pre-edge address over the
			// post-write contents (the event RAM does both in one React).
			in.deferSet(rn.dout, l, int64(*w<<ms.shift)>>ms.shift)
		}
	}
	for s := range in.p.stims {
		sn := &in.p.stims[s]
		for l := 0; l < L; l++ {
			if !in.armed[l] {
				continue
			}
			i := s*L + l
			vec := in.stimVec[i]
			if len(vec) == 0 {
				in.deferSet(sn.last, l, 1)
				continue
			}
			pos := in.stimPos[i]
			idx := pos
			if idx >= len(vec) {
				idx = len(vec) - 1
			}
			in.deferSet(sn.out, l, vec[idx])
			var last int64
			if pos >= len(vec)-1 {
				last = 1
			}
			in.deferSet(sn.last, l, last)
			if pos < len(vec) {
				in.stimPos[i] = pos + 1
			}
		}
	}
	for s := range in.p.sinks {
		sn := &in.p.sinks[s]
		for l := 0; l < L; l++ {
			if !in.armed[l] {
				continue
			}
			if sn.en >= 0 && !in.boolAt(sn.en, l) {
				continue
			}
			if in.validAt(sn.in, l) {
				i := s*L + l
				in.sinkRec[i] = append(in.sinkRec[i], in.intAt(sn.in, l))
			}
		}
	}
}

// quiet reports whether none of the slots changed at the given edge in
// any lane.
func (in *Instance) quiet(slots []int, edge uint64) bool {
	for _, s := range slots {
		if in.slotChg[s] == edge {
			return false
		}
	}
	return true
}

// transition returns the first transition of a lane's current state
// whose guard holds, or nil.
func (in *Instance) transition(l int) *fsmTrans {
	st := &in.p.states[in.state[l]]
	in.env.lane = l
	for t := range st.trans {
		if st.trans[t].cond.Eval(&in.env) {
			return &st.trans[t]
		}
	}
	return nil
}

// publish applies the deferred phase-A results to the slots. The FSM
// republishes only the outputs its transition changes: every other
// control slot already holds the value the new state asserts.
func (in *Instance) publish() {
	for _, ps := range in.pend {
		in.set(int(ps.slot), int(ps.lane), ps.val)
	}
	in.pend = in.pend[:0]
	for l, tr := range in.taken {
		if tr == nil {
			continue
		}
		outs := in.p.states[tr.next].outs
		for _, o := range tr.diff {
			if slot := in.p.ctlSlots[o]; in.set(slot, l, outs[o]) && slot == in.p.done {
				in.doneChg[l] = in.edge
			}
		}
	}
}

// evalNode evaluates one combinational node for the armed lanes in
// [lo, hi), with the event operators' hold-on-undefined semantics: a
// lane whose node inputs are not all defined (or whose select/address
// is out of range) keeps its previous output. Each kind runs its own
// lane loop over the input stripes.
func (in *Instance) evalNode(n *combNode, lo, hi int) {
	L := in.lanes
	switch n.kind {
	case combUnary:
		a, sa := n.a*L, in.p.slots[n.a].shift
		for l := lo; l < hi; l++ {
			if in.armed[l] && in.valid[a+l] {
				in.set(n.y, l, n.un(int64(in.vals[a+l]<<sa)>>sa, n.width))
			}
		}
	case combBinary:
		a, sa := n.a*L, in.p.slots[n.a].shift
		b, sb := n.b*L, in.p.slots[n.b].shift
		for l := lo; l < hi; l++ {
			if in.armed[l] && in.valid[a+l] && in.valid[b+l] {
				in.set(n.y, l, n.bin(int64(in.vals[a+l]<<sa)>>sa, int64(in.vals[b+l]<<sb)>>sb, n.width))
			}
		}
	case combMux:
		sel := n.sel * L
		for l := lo; l < hi; l++ {
			if !in.armed[l] || !in.valid[sel+l] {
				continue
			}
			if idx := in.vals[sel+l]; idx < uint64(len(n.ins)) {
				if src := n.ins[idx]; in.validAt(src, l) {
					in.set(n.y, l, in.intAt(src, l))
				}
			}
		}
	case combMemRead:
		a, ms, mem := n.a*L, &in.p.mems[n.mem], in.mems[n.mem]
		for l := lo; l < hi; l++ {
			if !in.armed[l] || !in.valid[a+l] {
				continue
			}
			if addr := in.vals[a+l]; addr < uint64(ms.depth) {
				in.set(n.y, l, int64(mem[int(addr)*L+l]<<ms.shift)>>ms.shift)
			}
		}
	}
}

// settleAll runs the levelized combinational pass for every armed lane.
// One pass in topological order reaches the delta-cascade fixpoint;
// unless full, only nodes with an input changed on this edge evaluate.
func (in *Instance) settleAll(full bool) {
	for i := range in.p.comb {
		if n := &in.p.comb[i]; full || !in.quiet(n.deps, in.edge) {
			in.evalNode(n, 0, in.lanes)
		}
	}
}

// Result reports a lane's last run, with hades-shaped counters: Events,
// Reactions and Instants are per-run, Elaborations is 1 (the program
// compiles once) and Resets counts replay rounds — the first Reset is
// part of instantiation, matching the event path where a configuration's
// first visit elaborates (Resets 0) and repeat visits reset-and-replay.
func (in *Instance) Result(lane int) rtg.LaneRun {
	replays := in.resets[lane]
	if replays > 0 {
		replays--
	}
	return rtg.LaneRun{
		Cycles:     in.cycles[lane],
		EndTime:    in.endTime[lane],
		Completed:  in.completed[lane],
		FinalState: in.p.states[in.state[lane]].name,
		Stats: hades.Stats{
			Events:       in.events[lane],
			Deltas:       in.instants[lane],
			Reactions:    in.reactions[lane],
			Instants:     in.instants[lane],
			Elaborations: 1,
			Resets:       replays,
		},
	}
}

// Sinks returns a lane's sink recordings by operator id. The slices are
// live buffers, valid until the lane's next Reset.
func (in *Instance) Sinks(lane int) map[string][]int64 {
	out := make(map[string][]int64, len(in.p.sinks))
	for s := range in.p.sinks {
		out[in.p.sinks[s].id] = in.sinkRec[s*in.lanes+lane]
	}
	return out
}

// CopyShared writes a lane's contents of the RAM bound to the given RTG
// shared-memory ref into dst as sign-extended words, reporting whether
// the ref exists in this configuration.
func (in *Instance) CopyShared(lane int, ref string, dst []int64) bool {
	m, ok := in.p.memByRef[ref]
	if !ok {
		return false
	}
	ms := &in.p.mems[m]
	mem := in.mems[m]
	n := ms.depth
	if len(dst) < n {
		n = len(dst)
	}
	for a := 0; a < n; a++ {
		dst[a] = int64(mem[a*in.lanes+lane]<<ms.shift) >> ms.shift
	}
	return true
}
