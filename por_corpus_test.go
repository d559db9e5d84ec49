package esplang_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/analysis"
	"esplang/internal/vm"
)

// porVerdict classifies a model-checking result for POR-vs-full
// comparison: pass, deadlock, or the fault kind with its source
// location. State counts are deliberately excluded — reduction changes
// them by design — and FaultOutOfObjects is collapsed to its kind
// alone, because the global live-object peak depends on which
// interleaving the search walks (the same accepted divergence the
// optimization-level oracle has).
func porVerdict(res *esplang.VerifyResult) string {
	v := res.Violation
	switch {
	case v == nil:
		return "pass"
	case v.Deadlock:
		return "deadlock"
	case v.Fault == nil:
		return "violation"
	case v.Fault.Kind == vm.FaultOutOfObjects:
		return v.Fault.Kind.String()
	default:
		return fmt.Sprintf("%s at %s", v.Fault.Kind, v.Fault.Location())
	}
}

// TestPORCorpusEquivalence: on every shipped program — the samples and
// the whole vet corpus — an ample-set reduced search must reach exactly
// the verdict of the full search: same pass/deadlock/fault class, and
// for faults the same kind at the same source location.
func TestPORCorpusEquivalence(t *testing.T) {
	var files []string
	for _, pat := range []string{"testdata/*.esp", "testdata/vet/*.esp"} {
		fs, err := filepath.Glob(pat)
		if err != nil || len(fs) == 0 {
			t.Fatalf("no programs match %s: %v", pat, err)
		}
		files = append(files, fs...)
	}
	for _, path := range files {
		path := path
		name := strings.TrimSuffix(strings.ReplaceAll(path, "testdata/", ""), ".esp")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, err := esplang.CompileFile(path, esplang.CompileOptions{Name: path})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			opts := esplang.VerifyOptions{
				Workers:   1,
				EndRecvOK: true,
				MaxStates: 300000,
			}
			full := prog.Verify(opts)
			opts.Reduction = esplang.AmpleSets
			red := prog.Verify(opts)
			if full.Truncated || red.Truncated {
				t.Skipf("state space exceeds the comparison bound (full %d, por %d states)",
					full.States, red.States)
			}
			if fv, rv := porVerdict(full), porVerdict(red); fv != rv {
				t.Errorf("verdicts diverge: full=%q por=%q", fv, rv)
			}
			if red.States > full.States {
				t.Errorf("reduction grew the state space: full=%d por=%d", full.States, red.States)
			}
		})
	}
}

// TestFreshObjectReadKeepsProcessClean: an element read straight off a
// fresh allocation is typed like one read through the local that holds
// it. Copy propagation turns "storelocal a; loadlocal a" into "dup;
// storelocal a", so the optimized p reads a[0] off the new array itself;
// the int it sends must not demote p from the clean heap discipline the
// unoptimized code already has.
func TestFreshObjectReadKeepsProcessClean(t *testing.T) {
	prog, err := esplang.Compile(`
type arr = array of int
channel c: int
process p {
    $a: arr = { 4 -> 1};
    out( c, a[0]);
    unlink( a);
}
process q { in( c, $x); }
`, esplang.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ind := analysis.ComputeIndependence(prog.IR)
	for i, p := range prog.IR.Procs {
		if p.Name == "p" && !ind.Clean[i] {
			t.Errorf("p is unclean: %s", ind.CleanReason[i])
		}
	}
}
