package flow_test

import (
	"os"
	"testing"

	"repro/internal/flow"
	"repro/internal/workloads"
	"repro/internal/xmlspec"
)

// caseSource renders a materialized workload case as a flow source.
func caseSource(c *workloads.Case) flow.Source {
	return flow.Source{
		Name: c.Name, Text: c.Source, Func: c.Func,
		ArraySizes: c.ArraySizes, ScalarArgs: c.ScalarArgs, Inputs: c.Inputs,
	}
}

// TestTableIEveryFamily keeps the check Compile used to make on every
// call: every registry family compiles at each preset to a design whose
// FSMs the FSM→Java stylesheet renders. Every Table I column must be
// positive, and the XML line counts must match the documents
// WriteDesignArtifacts writes for the same design.
func TestTableIEveryFamily(t *testing.T) {
	for _, w := range workloads.All() {
		for _, pr := range w.Presets() {
			t.Run(pr.Name, func(t *testing.T) {
				c, err := workloads.BuildWorkloadInputs(w, pr.Values)
				if err != nil {
					t.Fatal(err)
				}
				p, err := flow.New(flow.WithWidth(pr.Width))
				if err != nil {
					t.Fatal(err)
				}
				comp, err := p.Compile(caseSource(c))
				if err != nil {
					t.Fatal(err)
				}
				rows, err := comp.TableI()
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) == 0 || len(rows) != len(comp.Partitions) {
					t.Fatalf("%d rows for %d partitions", len(rows), len(comp.Partitions))
				}
				files, err := flow.WriteDesignArtifacts(comp.Design, t.TempDir(), false)
				if err != nil {
					t.Fatal(err)
				}
				lines := func(label string) int {
					doc, err := os.ReadFile(files[label])
					if err != nil {
						t.Fatal(err)
					}
					return xmlspec.LineCount(doc)
				}
				for i, r := range rows {
					if r.PartitionInfo != comp.Partitions[i] {
						t.Errorf("row %d is %+v, partition is %+v", i, r.PartitionInfo, comp.Partitions[i])
					}
					if r.Operators <= 0 || r.States <= 0 || r.XMLDatapathLoC <= 0 || r.XMLFSMLoC <= 0 || r.JavaFSMLoC <= 0 {
						t.Errorf("%s: non-positive column in %+v", r.ID, r)
					}
					if got := lines("datapath:" + r.Datapath); r.XMLDatapathLoC != got {
						t.Errorf("%s: XMLDatapathLoC %d, written %s has %d lines", r.ID, r.XMLDatapathLoC, r.Datapath, got)
					}
					if got := lines("fsm:" + r.FSM); r.XMLFSMLoC != got {
						t.Errorf("%s: XMLFSMLoC %d, written %s has %d lines", r.ID, r.XMLFSMLoC, r.FSM, got)
					}
				}
			})
		}
	}
}

// benchFamilies are the small parameterizations the end-to-end
// grid-cold benchmark crosses with its seeds.
var benchFamilies = []string{
	"hamming,words=8", "fir,n=16,taps=4", "newton,n=8,iters=4",
	"matmul,n=4", "erasure,k=4,stripes=2", "fdct2,pixels=64",
}

func benchSource(b *testing.B, spec string) flow.Source {
	b.Helper()
	name, v, err := workloads.ParseSpec(spec)
	if err != nil {
		b.Fatal(err)
	}
	c, err := workloads.Build(name, v)
	if err != nil {
		b.Fatal(err)
	}
	return caseSource(c)
}

// BenchmarkCompile times the compile stage alone: parse, compile and
// the per-partition metadata, with no WorkDir.
func BenchmarkCompile(b *testing.B) {
	p, err := flow.New()
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range benchFamilies {
		b.Run(spec, func(b *testing.B) {
			src := benchSource(b, spec)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Compile(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableI times the Table I line counts of one compiled design:
// the XML marshal and the FSM→Java rendering Compile no longer does.
func BenchmarkTableI(b *testing.B) {
	p, err := flow.New()
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range benchFamilies {
		b.Run(spec, func(b *testing.B) {
			c, err := p.Compile(benchSource(b, spec))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.TableI(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
