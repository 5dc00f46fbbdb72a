package main

import (
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/flow"
	"repro/internal/lang"
	"repro/internal/rtg"
	"repro/internal/workloads"
	"repro/internal/xmlspec"
	"repro/internal/xsl"
)

// Span names. The per-layer metric of each is its summed self time.
const (
	spanCase        = "scenario.case"
	spanBuild       = "workloads.build"
	spanBreakdown   = "compile.breakdown"
	spanParse       = "lang.parse"
	spanCompile     = "compiler.compile"
	spanMarshal     = "xmlspec.marshal"
	spanTransform   = "xsl.transform"
	spanHades       = "hades.sim"
	spanCycle       = "cycle.sim"
	spanSweep       = "sweep.run"
	spanShard       = "sweep.shard"
	spanRequest     = "simd.request"
	spanQueue       = "simd.queue"
	spanService     = "simd.service"
	spanStagePrefix = "flow."
)

// kernelLayer names the layer a configuration ran on: the hades event
// kernel or the cycle engine.
func kernelLayer(kernel string) string {
	if b, err := flow.LookupBackend(kernel); err == nil && b.Kind == flow.KindCycle {
		return spanCycle
	}
	return spanHades
}

// stageSpans is a flow.Observer that records each pipeline stage as a
// span under the current case span, each configuration run as a kernel
// span under the simulate stage, and — before every compile stage — the
// compile-side breakdown: the calls flow.Compile makes, replayed
// directly on the same source so their self times can be told apart.
// One goroutine drives it.
type stageSpans struct {
	flow.BaseObserver
	rec *recorder
	// caseSpan returns the span the stages belong to, opening it if the
	// caller opens cases lazily.
	caseSpan func() int
	// source returns the case about to compile, for the breakdown.
	source func(name string) *workloads.Case
	unit   string

	open     map[flow.StageName]int
	compiles int
	events   uint64
	cycles   uint64
	err      error // first compile-breakdown failure
}

func newStageSpans(rec *recorder, caseSpan func() int, source func(string) *workloads.Case) *stageSpans {
	return &stageSpans{rec: rec, caseSpan: caseSpan, source: source, open: map[flow.StageName]int{}}
}

// StageBegin implements flow.Observer.
func (o *stageSpans) StageBegin(stage flow.StageName, name string) {
	parent := o.caseSpan()
	if stage == flow.StageCompile {
		o.compiles++
		if c := o.source(name); c != nil {
			id := o.rec.begin(spanBreakdown, parent, o.unit)
			if err := breakdown(o.rec, id, o.unit, c); err != nil && o.err == nil {
				o.err = err
			}
			o.rec.end(id)
		}
	}
	o.open[stage] = o.rec.begin(spanStagePrefix+string(stage), parent, o.unit)
}

// StageEnd implements flow.Observer.
func (o *stageSpans) StageEnd(stage flow.StageName, _ string, _ error, _ time.Duration) {
	if id, ok := o.open[stage]; ok {
		o.rec.end(id)
		delete(o.open, stage)
	}
}

// ConfigDone implements flow.Observer: the run ended now and took
// run.Wall.
func (o *stageSpans) ConfigDone(run rtg.ConfigRun) {
	end := o.rec.now()
	layer := kernelLayer(run.Kernel)
	if layer == spanCycle {
		o.cycles += run.Cycles
	} else {
		o.events += run.Events
	}
	o.rec.add(layer, o.open[flow.StageSimulate], o.unit, end-run.Wall, end)
}

// breakdown replays flow.Compile's calls — parse, compile, marshal each
// datapath and FSM, transform each FSM to Java — on the case's source,
// one span each under parent. It mirrors the compile stage in
// internal/flow/stages.go at the default width.
func breakdown(rec *recorder, parent int, unit string, c *workloads.Case) error {
	timed := func(name string, fn func() error) error {
		id := rec.begin(name, parent, unit)
		err := fn()
		rec.end(id)
		if err != nil {
			return fmt.Errorf("compile breakdown of %s: %s: %w", c.Name, name, err)
		}
		return nil
	}
	var prog *lang.Program
	if err := timed(spanParse, func() (err error) {
		prog, err = lang.Parse(c.Source)
		return err
	}); err != nil {
		return err
	}
	var comp *compiler.Result
	if err := timed(spanCompile, func() (err error) {
		comp, err = compiler.Compile(prog, c.Func, compiler.Config{ArraySizes: c.ArraySizes, ScalarArgs: c.ScalarArgs})
		return err
	}); err != nil {
		return err
	}
	for _, meta := range comp.Meta {
		var fsmDoc []byte
		if err := timed(spanMarshal, func() error {
			if _, err := xmlspec.Marshal(comp.Design.Datapaths[meta.Datapath]); err != nil {
				return err
			}
			var err error
			fsmDoc, err = xmlspec.Marshal(comp.Design.FSMs[meta.FSM])
			return err
		}); err != nil {
			return err
		}
		if err := timed(spanTransform, func() error {
			_, err := xsl.TransformBytes(xsl.FSMToJava(), fsmDoc)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
