// Package cycle compiles a datapath/FSM configuration into a levelized
// clock-by-clock evaluation program — the repository's first non-event
// execution engine. Where the hades kernel discovers evaluation order
// dynamically through delta cycles, this package fixes it at compile
// time: sequential elements (registers, RAM write ports, the FSM,
// stimuli, sinks) cut the signal graph, and the remaining combinational
// nodes are topologically sorted once. Each clock cycle then evaluates
// in two phases — sample every sequential element against the pre-edge
// slot values, publish, and settle the combinational network in level
// order — which reproduces the event kernel's signal values at every
// rising clock edge (the cross-engine property tests pin this) with no
// event queue at all.
//
// A compiled Program is immutable and can be instantiated for N lanes:
// gang simulation runs N independently seeded copies of the same
// configuration in lockstep, struct-of-arrays, amortizing the per-node
// bookkeeping over the whole population.
package cycle

import (
	"fmt"
	"sort"

	"repro/internal/fsmsim"
	"repro/internal/hades"
	"repro/internal/operators"
	"repro/internal/rtg"
	"repro/internal/xmlspec"
)

// Engine is the compiled cycle-based execution engine, satisfying
// rtg.CycleEngine.
type Engine struct{}

// New returns the compiled engine.
func New() *Engine { return &Engine{} }

// EngineName identifies the engine in run records.
func (e *Engine) EngineName() string { return "compiled" }

// CompileConfiguration levelizes one configuration for the controller.
func (e *Engine) CompileConfiguration(dp *xmlspec.Datapath, fsm *xmlspec.FSM, reg *operators.Registry) (rtg.ConfigProgram, error) {
	return Compile(dp, fsm, reg)
}

// slotInfo describes one value slot — the compiled counterpart of a
// hades.Signal. Names match the event elaboration's wire keys
// ("op.port" producer endpoints, "ctl.<name>" control lines, "gnd"), so
// traces from both engines compare by name.
type slotInfo struct {
	name  string
	width int
	mask  uint64 // low width bits set
	shift uint8  // 64-width: v<<shift>>shift (arithmetic) sign-extends
}

// maskShift precomputes a width's mask and sign-extension shift, which
// replace hades.Mask and hades.SignExtend on every slot access.
func maskShift(width int) (uint64, uint8) {
	return hades.Mask(^uint64(0), width), uint8(64 - width)
}

type combKind uint8

const (
	combUnary combKind = iota
	combBinary
	combMux
	combMemRead
)

// combNode is one combinational operator in topological order.
type combNode struct {
	kind  combKind
	width int // operator word width passed to the fn
	y     int // output slot
	a, b  int // unary/memread: a; binary: a and b
	sel   int
	ins   []int
	un    operators.UnaryFn
	bin   operators.BinaryFn
	mem   int   // combMemRead: memory index
	deps  []int // every input slot (mux: ins, then sel)
}

// regNode is an edge-triggered register; en/rst are -1 when unconnected.
type regNode struct {
	id      string
	d, q    int
	en, rst int
	init    int64
	deps    []int // d and the connected en/rst
}

// ramNode is a RAM's clocked port set; its read path is additionally a
// combMemRead node on the same dout slot.
type ramNode struct {
	id                  string
	mem                 int
	addr, din, we, dout int
	deps                []int // we, addr, din
}

// memSpec is the backing storage of one ram/rom instance. init is the
// elaboration-time contents (the operator's XML data): Reset falls back
// to it when the caller's init map has no entry for the id, exactly as
// the event elaboration reseeds components absent from a replay's init.
type memSpec struct {
	id    string
	ref   string // RTG shared-memory ref, "" for locals and ROMs
	width int
	depth int
	init  []int64
	mask  uint64 // word mask and sign-extension shift, as slotInfo
	shift uint8
}

type stimNode struct {
	id        string
	out, last int
	init      []int64 // XML-baked vector, the Reset fallback
}

type sinkNode struct {
	id     string
	in, en int // en -1: sample every edge
}

type fsmTrans struct {
	cond fsmsim.Cond
	next int
	diff []int // declared outputs whose values differ between the two states
}

// fsmState precomputes one state's Moore outputs over the declared
// output order (unassigned outputs are 0, as fsmsim drives them).
type fsmState struct {
	name  string
	final bool
	outs  []int64
	trans []fsmTrans
}

type constSet struct {
	slot int
	val  int64
}

// Program is a compiled configuration: the slot table, the sequential
// element lists, the FSM transition tables and the combinational nodes
// in evaluation order. Programs are immutable and safe to share across
// instances and goroutines.
type Program struct {
	name  string
	slots []slotInfo
	gnd   int // -1 when no input needed tying

	consts []constSet
	comb   []combNode // topological order
	regs   []regNode
	rams   []ramNode
	mems   []memSpec
	stims  []stimNode
	sinks  []sinkNode

	states     []fsmState
	initial    int
	ctlSlots   []int // per declared FSM output, in declaration order
	statusSlot map[string]int
	fsmIns     []int // status slots of the declared FSM inputs (guard operands)
	done       int   // ctl slot of the "done" output, -1 when undeclared

	memByRef map[string]int

	// perEdge is the reactions one armed lane performs per clock edge:
	// every sequential element, the FSM and every combinational node.
	perEdge uint64
}

// Name returns the datapath name the program was compiled from.
func (p *Program) Name() string { return p.name }

// SlotNames returns every slot name in slot order — the key for
// cross-engine trace comparison.
func (p *Program) SlotNames() []string {
	out := make([]string, len(p.slots))
	for i, s := range p.slots {
		out[i] = s.name
	}
	return out
}

// Instantiate allocates runnable state for the given lane count.
func (p *Program) Instantiate(lanes int) rtg.ConfigInstance { return p.NewInstance(lanes) }

// tieDefaults mirrors netlist's list of input ports that may be left
// undriven and are tied to constant zero.
var tieDefaults = map[string][]string{
	"ram":  {"we", "din"},
	"sink": {"en"},
}

func tieable(typ, port string) bool {
	for _, p := range tieDefaults[typ] {
		if p == port {
			return true
		}
	}
	return false
}

var unaryFns = map[string]operators.UnaryFn{
	"neg":  operators.WordNeg,
	"not":  operators.WordNot,
	"lnot": operators.WordLNot,
	"b2i":  operators.WordB2I,
}

var binaryFns = map[string]operators.BinaryFn{
	"add": operators.WordAdd, "sub": operators.WordSub, "mul": operators.WordMul,
	"div": operators.WordDiv, "mod": operators.WordMod,
	"and": operators.WordAnd, "or": operators.WordOr, "xor": operators.WordXor,
	"shl": operators.WordShl, "shr": operators.WordShr, "sra": operators.WordSra,
	"eq": operators.WordEq, "ne": operators.WordNe, "lt": operators.WordLt,
	"le": operators.WordLe, "gt": operators.WordGt, "ge": operators.WordGe,
}

func opWidth(p operators.Params) int {
	if p.Width <= 0 {
		return 32
	}
	return p.Width
}

// Compile levelizes a configuration. The registry resolves operator
// port shapes exactly as netlist elaboration does; operator types
// without a compiled model (custom registry entries) are rejected —
// they exist only as event-kernel reactors.
func Compile(dp *xmlspec.Datapath, fsm *xmlspec.FSM, reg *operators.Registry) (*Program, error) {
	if reg == nil {
		reg = operators.DefaultRegistry()
	}
	if err := xmlspec.ValidateDatapath(dp, reg); err != nil {
		return nil, err
	}
	if err := xmlspec.ValidateFSM(fsm); err != nil {
		return nil, err
	}

	p := &Program{
		name:       dp.Name,
		gnd:        -1,
		done:       -1,
		statusSlot: map[string]int{},
		memByRef:   map[string]int{},
	}
	slotOf := map[string]int{} // producer endpoint -> slot
	addSlot := func(name string, width int) int {
		mask, shift := maskShift(width)
		p.slots = append(p.slots, slotInfo{name: name, width: width, mask: mask, shift: shift})
		return len(p.slots) - 1
	}

	// Pass 1: one slot per operator output port, mirroring the event
	// elaboration's per-output signals.
	type pend struct {
		op    *xmlspec.Operator
		param operators.Params
		ports []operators.PortSpec
	}
	var todo []pend
	for i := range dp.Operators {
		op := &dp.Operators[i]
		spec, _ := reg.Lookup(op.Type)
		param := xmlspec.ParamsOf(op, dp.Width)
		ports := spec.Ports(param)
		for _, ps := range ports {
			if ps.Dir == operators.Out {
				ep := op.ID + "." + ps.Name
				slotOf[ep] = addSlot(ep, ps.Width)
			}
		}
		todo = append(todo, pend{op: op, param: param, ports: ports})
	}

	// Control slots: one per FSM output, widened to the datapath's
	// declared control width when that is larger.
	ctlWidth := map[string]int{}
	for _, c := range dp.Controls {
		ctlWidth[c.Name] = c.ControlWidth()
	}
	ctlSlot := map[string]int{}
	for _, out := range fsm.Outputs {
		w := out.SignalWidth()
		if dw, ok := ctlWidth[out.Name]; ok && dw > w {
			w = dw
		}
		ctlSlot[out.Name] = addSlot("ctl."+out.Name, w)
	}
	for _, c := range dp.Controls {
		if _, ok := ctlSlot[c.Name]; !ok {
			return nil, fmt.Errorf("cycle: %s: control %q has no FSM output", dp.Name, c.Name)
		}
	}

	// Drive map: input endpoint -> driving slot.
	drive := map[string]int{}
	for _, cn := range dp.Connections {
		src, ok := slotOf[cn.From]
		if !ok {
			return nil, fmt.Errorf("cycle: %s: connect from unknown output %q", dp.Name, cn.From)
		}
		drive[cn.To] = src
	}
	for _, c := range dp.Controls {
		for _, to := range c.Targets {
			drive[to.Port] = ctlSlot[c.Name]
		}
	}

	// Status lines alias operator outputs.
	for _, st := range dp.Statuses {
		src, ok := slotOf[st.From]
		if !ok {
			return nil, fmt.Errorf("cycle: %s: status %q from unknown output %q", dp.Name, st.Name, st.From)
		}
		p.statusSlot[st.Name] = src
	}

	ground := func() int {
		if p.gnd < 0 {
			p.gnd = addSlot("gnd", 64)
		}
		return p.gnd
	}
	need := func(op *xmlspec.Operator, port string) (int, error) {
		ep := op.ID + "." + port
		if s, ok := drive[ep]; ok {
			return s, nil
		}
		if tieable(op.Type, port) {
			return ground(), nil
		}
		return -1, fmt.Errorf("cycle: %s: instance %q: port %q not connected", dp.Name, op.ID, port)
	}
	opt := func(op *xmlspec.Operator, port string) int {
		if s, ok := drive[op.ID+"."+port]; ok {
			return s
		}
		return -1
	}

	// Pass 2: compile each operator to its node.
	for _, pd := range todo {
		op, param := pd.op, pd.param
		switch {
		case op.Type == "const":
			p.consts = append(p.consts, constSet{slot: slotOf[op.ID+".y"], val: param.Value})

		case unaryFns[op.Type] != nil:
			a, err := need(op, "a")
			if err != nil {
				return nil, err
			}
			p.comb = append(p.comb, combNode{
				kind: combUnary, width: opWidth(param),
				a: a, y: slotOf[op.ID+".y"], un: unaryFns[op.Type],
			})

		case binaryFns[op.Type] != nil:
			a, err := need(op, "a")
			if err != nil {
				return nil, err
			}
			b, err := need(op, "b")
			if err != nil {
				return nil, err
			}
			p.comb = append(p.comb, combNode{
				kind: combBinary, width: opWidth(param),
				a: a, b: b, y: slotOf[op.ID+".y"], bin: binaryFns[op.Type],
			})

		case op.Type == "mux":
			n := param.Inputs
			if n < 2 {
				n = 2
			}
			node := combNode{kind: combMux, y: slotOf[op.ID+".y"]}
			for i := 0; i < n; i++ {
				in, err := need(op, fmt.Sprintf("in%d", i))
				if err != nil {
					return nil, err
				}
				node.ins = append(node.ins, in)
			}
			sel, err := need(op, "sel")
			if err != nil {
				return nil, err
			}
			node.sel = sel
			p.comb = append(p.comb, node)

		case op.Type == "reg":
			d, err := need(op, "d")
			if err != nil {
				return nil, err
			}
			p.regs = append(p.regs, regNode{
				id: op.ID, d: d, q: slotOf[op.ID+".q"],
				en: opt(op, "en"), rst: opt(op, "rst"), init: param.Value,
			})

		case op.Type == "ram":
			if param.Depth <= 0 {
				return nil, fmt.Errorf("cycle: %s: ram %q needs a positive depth", dp.Name, op.ID)
			}
			addr, err := need(op, "addr")
			if err != nil {
				return nil, err
			}
			din, err := need(op, "din")
			if err != nil {
				return nil, err
			}
			we, err := need(op, "we")
			if err != nil {
				return nil, err
			}
			mem := len(p.mems)
			p.mems = append(p.mems, memSpec{id: op.ID, ref: op.Ref, width: opWidth(param), depth: param.Depth, init: param.Init})
			if op.Ref != "" {
				p.memByRef[op.Ref] = mem
			}
			dout := slotOf[op.ID+".dout"]
			p.rams = append(p.rams, ramNode{id: op.ID, mem: mem, addr: addr, din: din, we: we, dout: dout})
			p.comb = append(p.comb, combNode{kind: combMemRead, a: addr, y: dout, mem: mem})

		case op.Type == "rom":
			if param.Depth <= 0 {
				return nil, fmt.Errorf("cycle: %s: rom %q needs a positive depth", dp.Name, op.ID)
			}
			addr, err := need(op, "addr")
			if err != nil {
				return nil, err
			}
			mem := len(p.mems)
			p.mems = append(p.mems, memSpec{id: op.ID, width: opWidth(param), depth: param.Depth, init: param.Init})
			p.comb = append(p.comb, combNode{kind: combMemRead, a: addr, y: slotOf[op.ID+".dout"], mem: mem})

		case op.Type == "stim":
			p.stims = append(p.stims, stimNode{id: op.ID, out: slotOf[op.ID+".out"], last: slotOf[op.ID+".last"], init: param.Init})

		case op.Type == "sink":
			in, err := need(op, "in")
			if err != nil {
				return nil, err
			}
			en, err := need(op, "en") // tied to gnd when unconnected, as netlist does
			if err != nil {
				return nil, err
			}
			p.sinks = append(p.sinks, sinkNode{id: op.ID, in: in, en: en})

		default:
			return nil, fmt.Errorf("cycle: %s: operator %q: type %q has no compiled model", dp.Name, op.ID, op.Type)
		}
	}

	// Bind the FSM: transition guards over status slots, Moore outputs
	// precomputed per state over the declared output order.
	known := map[string]bool{}
	for _, in := range fsm.Inputs {
		if _, ok := p.statusSlot[in.Name]; !ok {
			return nil, fmt.Errorf("cycle: %s: FSM input %q has no datapath status", dp.Name, in.Name)
		}
		if !known[in.Name] {
			p.fsmIns = append(p.fsmIns, p.statusSlot[in.Name])
		}
		known[in.Name] = true
	}
	for _, out := range fsm.Outputs {
		p.ctlSlots = append(p.ctlSlots, ctlSlot[out.Name])
	}
	byName := map[string]int{}
	for i, st := range fsm.States {
		byName[st.Name] = i
	}
	for _, st := range fsm.States {
		fs := fsmState{name: st.Name, final: st.Final, outs: make([]int64, len(fsm.Outputs))}
		for o, sig := range fsm.Outputs {
			for _, a := range st.Assigns {
				if a.Signal == sig.Name {
					fs.outs[o] = a.Value
					break
				}
			}
		}
		for _, tr := range st.Transitions {
			cond, err := fsmsim.ParseCond(tr.Cond, known)
			if err != nil {
				return nil, fmt.Errorf("cycle: %s state %s: %w", fsm.Name, st.Name, err)
			}
			fs.trans = append(fs.trans, fsmTrans{cond: cond, next: byName[tr.Next]})
		}
		p.states = append(p.states, fs)
		if st.Initial {
			p.initial = len(p.states) - 1
		}
	}
	for m := range p.mems {
		p.mems[m].mask, p.mems[m].shift = maskShift(p.mems[m].width)
	}
	for s := range p.states {
		for t := range p.states[s].trans {
			tr := &p.states[s].trans[t]
			from, to := p.states[s].outs, p.states[tr.next].outs
			for o := range from {
				if from[o] != to[o] {
					tr.diff = append(tr.diff, o)
				}
			}
		}
	}
	if d, ok := ctlSlot["done"]; ok {
		p.done = d
	}

	p.bindDeps()
	if err := p.levelize(); err != nil {
		return nil, err
	}
	p.perEdge = uint64(len(p.regs) + 1 + len(p.rams) + len(p.stims) + len(p.sinks) + len(p.comb))
	return p, nil
}

// bindDeps records each element's input slots: the edges levelize
// orders by, and the change stamps an Instance checks before
// re-evaluating the element.
func (p *Program) bindDeps() {
	for i := range p.comb {
		n := &p.comb[i]
		switch n.kind {
		case combUnary, combMemRead:
			n.deps = []int{n.a}
		case combBinary:
			n.deps = []int{n.a, n.b}
		default: // combMux
			n.deps = append(append([]int(nil), n.ins...), n.sel)
		}
	}
	for r := range p.regs {
		rg := &p.regs[r]
		rg.deps = []int{rg.d}
		for _, s := range []int{rg.en, rg.rst} {
			if s >= 0 {
				rg.deps = append(rg.deps, s)
			}
		}
	}
	for m := range p.rams {
		rn := &p.rams[m]
		rn.deps = []int{rn.we, rn.addr, rn.din}
	}
}

// levelize topologically sorts the combinational nodes (Kahn's
// algorithm, FIFO seeded in node order for determinism). Sequential
// elements publish into slots no comb node produces, so they never
// appear as edges; a leftover node means combinational feedback, which
// the event kernel would also reject (ErrMaxDeltas) — here it is a
// compile error.
func (p *Program) levelize() error {
	prodBy := map[int]int{} // slot -> producing comb node
	for i := range p.comb {
		prodBy[p.comb[i].y] = i
	}
	indeg := make([]int, len(p.comb))
	succs := make([][]int, len(p.comb))
	for i := range p.comb {
		for _, s := range p.comb[i].deps {
			if j, ok := prodBy[s]; ok {
				succs[j] = append(succs[j], i)
				indeg[i]++
			}
		}
	}
	queue := make([]int, 0, len(p.comb))
	for i := range p.comb {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]combNode, 0, len(p.comb))
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, p.comb[i])
		for _, j := range succs[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) < len(p.comb) {
		var loop []string
		for i := range p.comb {
			if indeg[i] > 0 {
				loop = append(loop, p.slots[p.comb[i].y].name)
			}
		}
		sort.Strings(loop)
		return fmt.Errorf("cycle: %s: combinational loop through %v", p.name, loop)
	}
	p.comb = order
	return nil
}
