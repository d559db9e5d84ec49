package esplang_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/fuzz"
	"esplang/internal/ir"
)

// TestFuzzRegressions replays every minimized fuzzer-found program in
// testdata/fuzz through the full differential oracle. Each file opens
// with a "//fuzz: outcome=<label>" header naming the expected benign
// classification; the oracle itself must report zero bugs — these are
// exactly the programs that once exposed toolchain divergences, so any
// regression shows up as a cross-engine, optimizer, model-checker, or
// backend disagreement.
func TestFuzzRegressions(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*.esp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no fuzz regression corpus found")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := expectedOutcome(t, string(src))
			rep := fuzz.RunDifferential(strings.TrimSuffix(filepath.Base(path), ".esp"), string(src), fuzz.Options{
				MCMaxStates: 4000,
				MCMaxDepth:  4000,
			})
			for _, b := range rep.Bugs {
				t.Errorf("oracle bug [%s @ %s]:\n%s", b.Kind, b.Stage, b.Detail)
			}
			if rep.Outcome != want {
				t.Errorf("outcome = %q, want %q", rep.Outcome, want)
			}
		})
	}
}

// TestCastReuseCorpusReuses: testdata/fuzz/cast_reuse.esp is the
// corpus's only program whose optimized IR casts in place, so it is what
// puts the fused engine's fcastreuse case under the differential oracle.
// If the optimizer stops rewriting its castcopy, that coverage would
// vanish without any test failing; this test fails instead.
func TestCastReuseCorpusReuses(t *testing.T) {
	prog, err := esplang.CompileFile(filepath.Join("testdata", "fuzz", "cast_reuse.esp"), esplang.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prog.IR.Procs {
		for _, in := range p.Code {
			if in.Op == ir.CastReuse {
				return
			}
		}
	}
	t.Errorf("optimized IR has no castreuse:\n%s", prog.Disasm())
}

// expectedOutcome extracts the "//fuzz: outcome=<label>" header.
func expectedOutcome(t *testing.T, src string) string {
	t.Helper()
	line, _, _ := strings.Cut(src, "\n")
	const prefix = "//fuzz: outcome="
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("corpus file lacks %q header (first line: %q)", prefix, line)
	}
	return strings.TrimPrefix(line, prefix)
}
