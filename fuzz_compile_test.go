package esplang_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	esplang "esplang"
	"esplang/internal/ast"
	"esplang/internal/diag"
	"esplang/internal/fuzz"
	"esplang/internal/ir"
	"esplang/internal/parser"
	"esplang/internal/token"
)

// FuzzCompile feeds arbitrary bytes to the whole compiler. Compile must
// answer every input with a program or an error — never a panic — and
// every positioned diagnostic (errors, espvet findings, and their notes)
// must point inside the input or at its end. Compile must be
// deterministic: compiling an input that compiles a second time gives
// the same IR, fused code, independence table, C, Promela and findings.
// Every instruction of the optimized IR must be reachable from its
// process's roots: dead-code elimination leaves nothing behind that
// control cannot get to. Every input that compiles must pass the
// differential oracle's VM stages (fuzz.RunDifferential without the
// model checker): both engines on the optimized and on the unoptimized
// program agree. Every input the
// parser accepts must also survive the formatter round trip: ast.Print's
// output parses again and prints to itself. The seeds are the repo's
// ESP corpora, so plain `go test` replays them; `go test -run xxx -fuzz
// FuzzCompile .` explores beyond them (docs/FUZZING.md).
func FuzzCompile(f *testing.F) {
	for _, pattern := range []string{"*.esp", "fuzz/*.esp", "vet/*.esp"} {
		files, err := filepath.Glob(filepath.Join("testdata", pattern))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := esplang.Compile(src, esplang.CompileOptions{})
		var spans []token.Pos
		var diags diag.List
		if errors.As(err, &diags) {
			for _, d := range diags {
				spans = append(spans, d.Pos)
				for _, n := range d.Notes {
					spans = append(spans, n.Pos)
				}
			}
		}
		if prog != nil {
			for _, fd := range prog.Findings {
				spans = append(spans, fd.Pos)
				for _, n := range fd.Notes {
					spans = append(spans, n.Pos)
				}
			}
		}
		for _, pos := range spans {
			if pos.IsValid() && !posInInput(src, pos) {
				t.Errorf("diagnostic at %s (offset %d) lies outside the %d-byte input; err = %v", pos, pos.Offset, len(src), err)
			}
		}
		if prog != nil {
			sameCompile(t, src, prog)
			allReachable(t, prog)
			if rep := fuzz.RunDifferential("input", src, fuzz.Options{SkipMC: true}); rep.Failed() {
				t.Errorf("differential oracle:\n%s", rep)
			}
		}

		tree, err := parser.Parse([]byte(src))
		if err != nil {
			return
		}
		once := ast.Print(tree)
		tree2, err := parser.Parse([]byte(once))
		if err != nil {
			t.Fatalf("formatted output does not parse: %v\n%s", err, once)
		}
		if twice := ast.Print(tree2); twice != once {
			t.Errorf("formatting is not idempotent\n--- once ---\n%s--- twice ---\n%s", once, twice)
		}
	})
}

// sameCompile compiles src again and requires every rendering of the
// result to equal prog's.
func sameCompile(t *testing.T, src string, prog *esplang.Program) {
	again, err := esplang.Compile(src, esplang.CompileOptions{})
	if err != nil {
		t.Fatalf("the input compiled once, then failed: %v", err)
	}
	for _, out := range []struct {
		name        string
		first, next string
	}{
		{"Disasm", prog.Disasm(), again.Disasm()},
		{"DisasmFused", prog.DisasmFused(), again.DisasmFused()},
		{"DumpIndependence", prog.DumpIndependence(), again.DumpIndependence()},
		{"C", prog.C(esplang.COptions{}), again.C(esplang.COptions{})},
		{"Promela", prog.Promela(esplang.PromelaOptions{}), again.Promela(esplang.PromelaOptions{})},
		{"findings", prog.RenderFindings(), again.RenderFindings()},
	} {
		if out.first != out.next {
			t.Errorf("%s differs between two compiles of the same input\n--- first ---\n%s--- second ---\n%s",
				out.name, out.first, out.next)
		}
	}
}

// allReachable requires every instruction of the optimized IR to be
// reachable from its process's roots.
func allReachable(t *testing.T, prog *esplang.Program) {
	for _, p := range prog.IR.Procs {
		for pc, ok := range ir.Reachable(p) {
			if !ok {
				t.Errorf("process %s: pc %d (%s) of the optimized IR is unreachable from the roots\n%s",
					p.Name, pc, p.Code[pc].Op, ir.Disasm(p))
				break
			}
		}
	}
}

// posInInput reports whether pos names a byte of src, or the end of src,
// with the line and column that offset really has.
func posInInput(src string, pos token.Pos) bool {
	if pos.Offset < 0 || pos.Offset > len(src) {
		return false
	}
	line, col := 1, 1
	for i := 0; i < pos.Offset; i++ {
		if src[i] == '\n' {
			line, col = line+1, 1
		} else {
			col++
		}
	}
	return pos.Line == line && pos.Column == col
}
