package esplang_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/ast"
	"esplang/internal/fuzz"
	"esplang/internal/nic"
	"esplang/internal/parser"
	"esplang/internal/vmmc"
)

// checkGolden compares got against the golden file, rewriting it instead
// when ESP_UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, goldenPath, got string) {
	t.Helper()
	if os.Getenv("ESP_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with ESP_UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run with ESP_UPDATE_GOLDEN=1 to update)\ngot:\n%s", goldenPath, got)
	}
}

// TestFormatGolden locks the canonical formatting of every sample: one
// espfmt pass must match the golden byte-for-byte, and a second pass must
// be idempotent over the first.
func TestFormatGolden(t *testing.T) {
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := parser.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			once := ast.Print(tree)
			tree2, err := parser.Parse([]byte(once))
			if err != nil {
				t.Fatalf("formatted output does not reparse: %v", err)
			}
			twice := ast.Print(tree2)
			if once != twice {
				t.Errorf("formatting is not idempotent")
			}
			checkGolden(t, f+".fmt.golden", once)
		})
	}
}

// TestAppendixBDisasmGolden locks the compiled (and optimized) IR of the
// paper's Appendix B program — any change to the compiler's lowering or
// the optimizer pipeline shows up as a reviewable golden diff.
func TestAppendixBDisasmGolden(t *testing.T) {
	prog, err := esplang.CompileFile("testdata/appendixb.esp", esplang.CompileOptions{Name: "appendixb"})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/appendixb.disasm.golden", prog.Disasm())
}

// TestAppendixBFusedDisasmGolden locks the fused-engine translation of
// the same program — the superinstruction code the default VM engine
// actually executes. -dump-fused in espc prints exactly this, so the
// golden keeps the fused disassembler honest after fusion rule changes.
func TestAppendixBFusedDisasmGolden(t *testing.T) {
	prog, err := esplang.CompileFile("testdata/appendixb.esp", esplang.CompileOptions{Name: "appendixb"})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/appendixb.fused.golden", prog.DisasmFused())
}

// TestPipelineFusedDisasmGolden locks the fused rendering of a program
// whose counter loops actually fuse: fconstst, flccmpbr, fincrlocal,
// flcbin, fmove, and friends all appear here with their base-pc ranges.
func TestPipelineFusedDisasmGolden(t *testing.T) {
	prog, err := esplang.CompileFile("testdata/pipeline.esp", esplang.CompileOptions{Name: "pipeline"})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/pipeline.fused.golden", prog.DisasmFused())
}

// TestCompileOutputsGolden pins everything the compiler emits for the
// sample programs, the VMMC firmware and its two verification models:
// the optimized IR, the fused code, the independence table, the C and
// the Promela. One golden per program, so
// a change to lowering, the optimizer, fusion or either backend shows up
// as a reviewable diff. The models are compiled with a file name, as
// compile-fuzz compiles them, so their #line directives and Promela
// location comments are pinned too; appendixb.options pins the C and
// Promela options that differ from the defaults.
func TestCompileOutputsGolden(t *testing.T) {
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	type program struct {
		name, golden string
		compile      func() (*esplang.Program, error)
		copts        esplang.COptions
		popts        esplang.PromelaOptions
	}
	var progs []program
	for _, f := range files {
		f := f
		name := strings.TrimSuffix(filepath.Base(f), ".esp")
		progs = append(progs, program{name: name, golden: strings.TrimSuffix(f, ".esp") + ".compile.golden",
			compile: func() (*esplang.Program, error) {
				return esplang.CompileFile(f, esplang.CompileOptions{Name: name})
			}})
	}
	cfg := nic.DefaultConfig()
	progs = append(progs, program{name: "vmmcESP", golden: "testdata/vmmcESP.compile.golden",
		compile: func() (*esplang.Program, error) {
			return esplang.Compile(vmmc.ESPSource(cfg), esplang.CompileOptions{Name: "vmmcESP"})
		}})
	for _, m := range []struct{ name, src string }{
		{"vmmc-verify", vmmc.FirmwareModel(cfg, 3)},
		{"vmmc-2node", vmmc.TwoNodeModel(cfg, 3)},
	} {
		m := m
		progs = append(progs, program{name: m.name, golden: "testdata/" + m.name + ".compile.golden",
			compile: func() (*esplang.Program, error) {
				return esplang.Compile(m.src, esplang.CompileOptions{Name: m.name, File: m.name})
			}})
	}
	progs = append(progs, program{name: "appendixb.options", golden: "testdata/appendixb.options.compile.golden",
		compile: func() (*esplang.Program, error) {
			return esplang.CompileFile("testdata/appendixb.esp", esplang.CompileOptions{Name: "appendixb"})
		},
		copts: esplang.COptions{MaxObjects: 16},
		popts: esplang.PromelaOptions{Instances: 3, DefaultBound: 8}})
	for _, pg := range progs {
		t.Run(pg.name, func(t *testing.T) {
			prog, err := pg.compile()
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, sec := range []struct{ name, text string }{
				{"Disasm", prog.Disasm()},
				{"DisasmFused", prog.DisasmFused()},
				{"DumpIndependence", prog.DumpIndependence()},
				{"C", prog.C(pg.copts)},
				{"Promela", prog.Promela(pg.popts)},
			} {
				b.WriteString("==== " + sec.name + " ====\n")
				b.WriteString(sec.text)
				if !strings.HasSuffix(sec.text, "\n") {
					b.WriteString("\n")
				}
			}
			checkGolden(t, pg.golden, b.String())
		})
	}
}

// TestFuzzPoolOutputsDigestGolden pins the compiler's outputs for
// compile-fuzz's program pool, fuzz.Generate(1..200), which reaches
// constructs testdata/ lacks. Each seed is compiled two ways (the
// default pipeline and without the optimizer), and one line per seed and
// mode holds a SHA-256 over the IR, the fused code, the C and the
// Promela; a compile error hashes its text instead.
func TestFuzzPoolOutputsDigestGolden(t *testing.T) {
	modes := []struct {
		name string
		opts esplang.CompileOptions
	}{
		{"default", esplang.CompileOptions{}},
		{"noopt", esplang.CompileOptions{NoOptimize: true}},
	}
	var b strings.Builder
	for seed := int64(1); seed <= 200; seed++ {
		g := fuzz.Generate(seed)
		for _, m := range modes {
			opts := m.opts
			opts.Name, opts.File = g.Name(), g.Name()+".esp"
			h := sha256.New()
			if prog, err := esplang.Compile(g.Source, opts); err != nil {
				io.WriteString(h, "error: "+err.Error())
			} else {
				for _, text := range []string{prog.Disasm(), prog.DisasmFused(), prog.C(esplang.COptions{}), prog.Promela(esplang.PromelaOptions{})} {
					io.WriteString(h, text)
					h.Write([]byte{0})
				}
			}
			fmt.Fprintf(&b, "%d %s %x\n", seed, m.name, h.Sum(nil))
		}
	}
	checkGolden(t, "testdata/fuzzpool.digest.golden", b.String())
}
