package esplang_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/ir"
	"esplang/internal/vmmc"
)

// TestVerifiedPipelineAllTestdata runs the full optimizer pipeline with
// ir.Verify enabled after every pass over every sample program. A pass
// that breaks a structural invariant fails the compile with the pass
// named in the error.
func TestVerifiedPipelineAllTestdata(t *testing.T) {
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			prog, err := esplang.CompileFile(f, esplang.CompileOptions{VerifyIR: true})
			if err != nil {
				t.Fatalf("verified compile: %v", err)
			}
			if prog.OptStats == nil || prog.OptStats.Rounds == 0 {
				t.Fatalf("optimizer did not run (stats: %+v)", prog.OptStats)
			}
			// The result must independently re-verify.
			if err := esplang.VerifyIR(prog.IR); err != nil {
				t.Fatalf("optimized program fails verification: %v", err)
			}
		})
	}
}

// feedInputs queues a deterministic message mix on every external writer
// channel of prog, and binds a collector to every external reader.
// The same inputs are used for the optimized and unoptimized runs.
func feedInputs(t *testing.T, prog *esplang.Program, m *esplang.Machine) map[string]*esplang.CollectReader {
	t.Helper()
	readers := map[string]*esplang.CollectReader{}
	for _, ch := range prog.IR.Channels {
		switch ch.Ext {
		case ir.ExtReader:
			r := &esplang.CollectReader{}
			if err := m.BindReader(ch.Name, r); err != nil {
				t.Fatal(err)
			}
			readers[ch.Name] = r
		case ir.ExtWriter:
			w := &esplang.QueueWriter{}
			if err := m.BindWriter(ch.Name, w); err != nil {
				t.Fatal(err)
			}
			switch ch.Name {
			case "inC", "inp": // add5.esp, fifo.esp, fuzz/extfeed_open.esp: interface feed, Put($v)
				for _, v := range []int64{1, 7, 42, -3, 100, 5} {
					v := v
					w.Push(0, func(*esplang.Machine) esplang.Value { return esplang.IntVal(v) })
				}
			case "userReqC": // appendixb.esp: Send / Update union cases
				userT := ch.Elem
				sendT, updateT := userT.Fields[0].Type, userT.Fields[1].Type
				update := func(vaddr, paddr int64) {
					w.Push(1, func(mm *esplang.Machine) esplang.Value {
						return mm.NewUnionV(userT, 1, mm.NewRecordV(updateT,
							esplang.IntVal(vaddr), esplang.IntVal(paddr)))
					})
				}
				send := func(dest, vaddr, size int64) {
					w.Push(0, func(mm *esplang.Machine) esplang.Value {
						return mm.NewUnionV(userT, 0, mm.NewRecordV(sendT,
							esplang.IntVal(dest), esplang.IntVal(vaddr), esplang.IntVal(size)))
					})
				}
				update(3, 777)
				update(5, 1234)
				send(9, 3, 4)
				send(2, 5, 2)
				send(7, 12, 3)
			default:
				t.Fatalf("no input script for external writer %q", ch.Name)
			}
		}
	}
	return readers
}

func renderSnap(s esplang.Snapshot) string {
	if s.Obj == nil {
		return fmt.Sprintf("%d", s.Scalar)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "obj(tag=%d){", s.Obj.Tag)
	for i, e := range s.Obj.Elems {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(renderSnap(e))
	}
	b.WriteString("}")
	return b.String()
}

// runOnce compiles path with or without the optimizer, runs it on the VM
// with the canonical inputs, and renders everything observable: fault
// state and per-channel output values.
func runOnce(t *testing.T, path string, noOpt bool) string {
	t.Helper()
	prog, err := esplang.CompileFile(path, esplang.CompileOptions{NoOptimize: noOpt, VerifyIR: true})
	if err != nil {
		t.Fatalf("compile (NoOptimize=%v): %v", noOpt, err)
	}
	m := prog.Machine(esplang.MachineConfig{MaxLiveObjects: 64})
	readers := feedInputs(t, prog, m)
	m.Run()

	var b strings.Builder
	if f := m.Fault(); f != nil {
		fmt.Fprintf(&b, "fault: %s\n", f.Msg)
	} else {
		b.WriteString("fault: none\n")
	}
	names := make([]string, 0, len(readers))
	for name := range readers {
		names = append(names, name)
	}
	// prog.IR.Channels is in declaration order; keep that order stable.
	for _, ch := range prog.IR.Channels {
		for _, name := range names {
			if name != ch.Name {
				continue
			}
			fmt.Fprintf(&b, "%s:", name)
			for _, v := range readers[name].Values {
				b.WriteString(" ")
				b.WriteString(renderSnap(v))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TestOptimizedEquivalence checks the acceptance criterion that
// optimization is observationally invisible: for every sample program,
// running the optimized and unoptimized compiles with identical external
// inputs produces byte-identical outputs and fault state.
func TestOptimizedEquivalence(t *testing.T) {
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			plain := runOnce(t, f, true)
			opt := runOnce(t, f, false)
			if plain != opt {
				t.Errorf("optimized run diverges from unoptimized\nunoptimized:\n%s\noptimized:\n%s", plain, opt)
			}
		})
	}
}

// TestVMFaultReportsFileLine checks that a runtime fault on a program
// compiled from a (named) file points back at the ESP source line.
func TestVMFaultReportsFileLine(t *testing.T) {
	src := "process boom {\n    $x = 1;\n    assert( x == 2);\n}\n"
	prog, err := esplang.Compile(src, esplang.CompileOptions{Name: "boom", File: "boom.esp"})
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Machine(esplang.MachineConfig{})
	m.Run()
	f := m.Fault()
	if f == nil {
		t.Fatal("expected an assertion fault")
	}
	if !strings.Contains(f.Error(), "boom.esp:3") {
		t.Errorf("fault does not carry file:line: %q", f.Error())
	}
	if loc := f.Location(); !strings.HasPrefix(loc, "boom.esp:3:") {
		t.Errorf("Location() = %q, want boom.esp:3:...", loc)
	}
}

// TestMemSafetyCounterexampleReportsFileLine checks the §5.2 acceptance
// criterion end to end: the model checker finds the seeded use-after-free
// in the examples/memsafety model, the faulting VM state reports an ESP
// file:line, and the counterexample trace steps are annotated with source
// locations.
func TestMemSafetyCounterexampleReportsFileLine(t *testing.T) {
	res, err := vmmc.VerifyMemSafety(vmmc.BugUseAfterFree, esplang.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("seeded use-after-free not found")
	}
	if res.Violation.Fault == nil {
		t.Fatalf("violation has no VM fault: %s", res.Violation)
	}
	if !strings.Contains(res.Violation.Fault.Error(), "memsafety.esp:") {
		t.Errorf("VM fault does not report ESP file:line: %q", res.Violation.Fault.Error())
	}
	if len(res.Violation.Trace) == 0 {
		t.Fatal("violation has no counterexample trace")
	}
	annotated := 0
	for _, st := range res.Violation.Trace {
		if strings.Contains(st.Desc, "(memsafety.esp:") {
			annotated++
		}
	}
	if annotated == 0 {
		t.Errorf("no trace step carries a source location; last step: %q",
			res.Violation.Trace[len(res.Violation.Trace)-1].Desc)
	}
}

// TestGeneratedCHasLineDirectives checks that the C backend emits #line
// directives pointing at the ESP source when the program came from a file.
func TestGeneratedCHasLineDirectives(t *testing.T) {
	prog, err := esplang.CompileFile("testdata/pipeline.esp", esplang.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cSrc := prog.C(esplang.COptions{})
	if !strings.Contains(cSrc, `#line`) || !strings.Contains(cSrc, `"testdata/pipeline.esp"`) {
		t.Errorf("generated C lacks #line directives for the source file")
	}
	// An in-memory compile must stay free of #line noise.
	prog2, err := esplang.Compile(prog.Source, esplang.CompileOptions{Name: "pipeline"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prog2.C(esplang.COptions{}), "#line") {
		t.Errorf("in-memory compile unexpectedly emits #line directives")
	}
}
