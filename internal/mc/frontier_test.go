package mc_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	esplang "esplang"
	"esplang/internal/mc"
	"esplang/internal/nic"
	"esplang/internal/parser"
	"esplang/internal/vm"
	"esplang/internal/vmmc"

	"esplang/internal/check"
	"esplang/internal/compile"
	"esplang/internal/ir"
)

func compileFileSrc(t *testing.T, path string) *ir.Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	tree, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	info, err := check.Check(tree)
	if err != nil {
		t.Fatalf("check %s: %v", path, err)
	}
	return compile.Program(tree, info)
}

// verdictKind flattens a result to a comparable verdict.
func verdictKind(res *mc.Result) string {
	switch {
	case res.Violation == nil:
		return "pass"
	case res.Violation.Deadlock:
		return "deadlock"
	default:
		return "fault:" + res.Violation.Fault.Kind.String()
	}
}

var workerCounts = []int{1, 2, 4, 7, runtime.GOMAXPROCS(0)}

// TestParallelSequentialEquivalenceTestdata: on every testdata sample,
// every worker count produces the same violation verdict and the same
// state count as the deterministic Workers: 1 search.
func TestParallelSequentialEquivalenceTestdata(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			prog := compileFileSrc(t, f)
			// Permissive end-state policy: the samples with external
			// channels park on them, and a full (unaborted) search is what
			// makes the state count comparable.
			base := mc.Options{Workers: 1, EndRecvOK: true, NoDeadlockCheck: true, MaxStates: 50_000}
			want := mc.Check(prog, base)
			for _, w := range workerCounts {
				opts := base
				opts.Workers = w
				got := mc.Check(prog, opts)
				if verdictKind(got) != verdictKind(want) {
					t.Errorf("workers=%d verdict %q, want %q", w, verdictKind(got), verdictKind(want))
				}
				if got.States != want.States {
					t.Errorf("workers=%d states %d, want %d", w, got.States, want.States)
				}
				if got.Truncated != want.Truncated {
					t.Errorf("workers=%d truncated %v, want %v", w, got.Truncated, want.Truncated)
				}
			}
		})
	}
}

// TestParallelEquivalenceViolations: programs with a violation yield the
// same verdict at every worker count, and the returned trace replays to
// the same fault on a fresh machine.
func TestParallelEquivalenceViolations(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"assert", `
channel c: int
process producer { $i = 0; while (i < 20) { out( c, i); i = i + 1; } }
process consumer { $n = 0; while (true) { in( c, $v); assert( v < 17); n = n + 1; } }
`},
		{"deadlock", `
channel a: int
channel b: int
channel c: int
process p { out( c, 1); in( a, $x); }
process q { in( c, $v); in( b, $y); }
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := compileSrc(t, tc.src)
			want := mc.Check(prog, mc.Options{Workers: 1})
			if want.Violation == nil {
				t.Fatal("expected a violation")
			}
			for _, w := range workerCounts {
				got := mc.Check(prog, mc.Options{Workers: w})
				if verdictKind(got) != verdictKind(want) {
					t.Fatalf("workers=%d verdict %q, want %q", w, verdictKind(got), verdictKind(want))
				}
				if len(got.Violation.Trace) == 0 {
					t.Fatalf("workers=%d returned no counterexample trace", w)
				}
				// The trace must replay: fire the recorded choices on a
				// fresh machine and land in the same kind of trouble.
				m := vm.New(prog, vm.Config{Manual: true})
				m.Cost = vm.ZeroCostModel()
				m.Settle()
				var choices []vm.CommChoice
				for _, st := range got.Violation.Trace {
					choices = append(choices, st.Choice)
				}
				f := m.ReplayComms(choices)
				if got.Violation.Deadlock {
					if f != nil || !m.Deadlocked() {
						t.Errorf("workers=%d deadlock trace does not replay to a deadlock (fault %v)", w, f)
					}
				} else if f == nil || f.Kind != got.Violation.Fault.Kind {
					t.Errorf("workers=%d trace replays to %v, want fault kind %v", w, f, got.Violation.Fault.Kind)
				}
			}
		})
	}
}

// TestWorkersOneDeterministic: two Workers: 1 runs agree on every counter
// and on the counterexample, bit for bit.
func TestWorkersOneDeterministic(t *testing.T) {
	src := `
channel c: int
channel d: int
process p1 { $i = 0; while (i < 6) { out( c, i); i = i + 1; } }
process p2 { $n = 0; while (n < 6) { in( c, $v); out( d, v); n = n + 1; } }
process p3 { $n = 0; while (n < 6) { in( d, $v); assert( v < 5); n = n + 1; } }
`
	a := mc.Check(compileSrc(t, src), mc.Options{Workers: 1})
	b := mc.Check(compileSrc(t, src), mc.Options{Workers: 1})
	if a.States != b.States || a.Transitions != b.Transitions || a.MaxDepth != b.MaxDepth {
		t.Fatalf("counters differ: %v vs %v", a, b)
	}
	if a.Violation == nil || b.Violation == nil {
		t.Fatal("expected violations")
	}
	if len(a.Violation.Trace) != len(b.Violation.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Violation.Trace), len(b.Violation.Trace))
	}
	for i := range a.Violation.Trace {
		if a.Violation.Trace[i] != b.Violation.Trace[i] {
			t.Errorf("trace step %d differs: %+v vs %+v", i, a.Violation.Trace[i], b.Violation.Trace[i])
		}
	}
}

// TestWorkersDefaultIsAllCores: Workers: 0 resolves to GOMAXPROCS.
func TestWorkersDefaultIsAllCores(t *testing.T) {
	prog := compileSrc(t, `
channel c: int
process p { out( c, 1); }
process q { in( c, $v); }
`)
	res := mc.Check(prog, mc.Options{})
	if res.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers = %d, want GOMAXPROCS = %d", res.Workers, runtime.GOMAXPROCS(0))
	}
}

// TestTruncationStopsPromptly: once the state bound is reached the search
// shuts down instead of continuing to fire transitions into states it
// will never record. The program below branches 3 ways at every state, so
// the old behavior (finish every started level) would burn far more
// transitions than states.
func TestTruncationStopsPromptly(t *testing.T) {
	prog := compileSrc(t, `
channel c: int
process counter {
    $n = 0;
    while (true) {
        alt {
            case( out( c, 3*n)) { skip; }
            case( out( c, 3*n + 1)) { skip; }
            case( out( c, 3*n + 2)) { skip; }
        }
        n = n + 1;
    }
}
process sink {
    $sum = 0;
    while (true) { in( c, $v); sum = sum + v; }
}
`)
	const bound = 300
	res := mc.Check(prog, mc.Options{Workers: 1, MaxStates: bound})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if !res.Truncated {
		t.Fatal("search not marked truncated")
	}
	if res.States != bound {
		t.Errorf("explored %d states, bound was %d", res.States, bound)
	}
	// Every expansion fires at most the branching factor (3) per state,
	// and the search must stop within one expansion of hitting the bound.
	if maxT := 3*bound + 16; res.Transitions > maxT {
		t.Errorf("%d transitions after a %d-state bound (want ≤ %d): search kept running after truncation",
			res.Transitions, bound, maxT)
	}
	// Parallel truncation reaches exactly the same count.
	for _, w := range []int{2, 4} {
		r := mc.Check(prog, mc.Options{Workers: w, MaxStates: bound})
		if r.States != bound || !r.Truncated {
			t.Errorf("workers=%d states=%d truncated=%v, want %d/true", w, r.States, r.Truncated, bound)
		}
	}
}

// TestDepthSemanticsUnified: MaxDepth counts transitions from the initial
// state, identically in every mode.
func TestDepthSemanticsUnified(t *testing.T) {
	// A linear chain of exactly 3 transitions.
	chain := `
channel c: int
process p { out( c, 1); out( c, 2); out( c, 3); }
process q { in( c, $a); in( c, $b); in( c, $d); }
`
	res := mc.Check(compileSrc(t, chain), mc.Options{Workers: 1})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if res.States != 4 || res.MaxDepth != 3 {
		t.Errorf("chain: states=%d depth=%d, want 4 states at depth 3", res.States, res.MaxDepth)
	}

	sim := mc.Check(compileSrc(t, chain), mc.Options{Mode: mc.Simulation, SimRuns: 3, Seed: 1})
	if sim.MaxDepth != 3 {
		t.Errorf("simulation depth=%d, want 3 (same unit as exhaustive)", sim.MaxDepth)
	}

	// A root state that is never extended reports depth 0.
	root := mc.Check(compileSrc(t, `process p { skip; }`), mc.Options{Workers: 1})
	if root.Violation != nil {
		t.Fatalf("unexpected violation: %v", root.Violation)
	}
	if root.States != 1 || root.MaxDepth != 0 {
		t.Errorf("root-only: states=%d depth=%d, want 1 state at depth 0", root.States, root.MaxDepth)
	}
}

// TestMaxDepthBoundTruncates: a depth bound truncates the search at that
// many transitions from the initial state.
func TestMaxDepthBoundTruncates(t *testing.T) {
	prog := compileSrc(t, `
channel c: int
process counter {
    $n = 0;
    while (true) { out( c, n); n = n + 1; }
}
process sink { while (true) { in( c, $v); } }
`)
	res := mc.Check(prog, mc.Options{Workers: 1, MaxDepth: 10})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if !res.Truncated {
		t.Error("depth-bounded search not marked truncated")
	}
	if res.MaxDepth != 10 {
		t.Errorf("MaxDepth = %d, want exactly the bound 10", res.MaxDepth)
	}
}

// TestParallelDepthDeterministic: with several workers every state gets
// its breadth-first depth, so MaxDepth and the states a depth bound cuts
// match Workers 1 whatever the scheduling. When a state's depth was that
// of whichever parent admitted it first, the two-node model reported
// depth 40 in some searches at Workers 2 and 4.
func TestParallelDepthDeterministic(t *testing.T) {
	p, err := esplang.Compile(vmmc.TwoNodeModel(nic.DefaultConfig(), 2), esplang.CompileOptions{Name: "two-node"})
	if err != nil {
		t.Fatal(err)
	}
	opts := func(workers, maxDepth int) mc.Options {
		return mc.Options{Workers: workers, EndRecvOK: true, MaxLiveObjects: 64, MaxDepth: maxDepth}
	}
	for _, workers := range []int{2, 4} {
		for i := 0; i < 30; i++ {
			res := mc.Check(p.IR, opts(workers, 0))
			if res.Violation != nil || res.MaxDepth != 39 || res.States != 781 || res.Transitions != 1705 {
				t.Fatalf("Workers %d, search %d: violation %v, depth %d, %d states, %d transitions; want none, 39, 781, 1705",
					workers, i, res.Violation, res.MaxDepth, res.States, res.Transitions)
			}
		}
	}
	want := mc.Check(p.IR, opts(1, 20))
	if !want.Truncated {
		t.Fatal("a depth-20 search of the two-node model is not truncated")
	}
	for _, workers := range []int{2, 4} {
		for i := 0; i < 3; i++ {
			got := mc.Check(p.IR, opts(workers, 20))
			if got.States != want.States || got.Transitions != want.Transitions || got.Truncated != want.Truncated {
				t.Fatalf("MaxDepth 20 at Workers %d: %d states, %d transitions, truncated %v; Workers 1: %d, %d, %v",
					workers, got.States, got.Transitions, got.Truncated, want.States, want.Transitions, want.Truncated)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Options interactions (§5.1 end-state policy, step budget).

// TestEndRecvOKMasksMutualReceiveWait: two processes each waiting to
// receive on a channel nobody sends on is a genuine deadlock — and
// EndRecvOK deliberately masks it (the documented trade-off of the
// firmware-at-rest convention).
func TestEndRecvOKMasksMutualReceiveWait(t *testing.T) {
	src := `
channel a: int
channel b: int
process p { in( a, $x); }
process q { in( b, $y); }
`
	strict := mc.Check(compileSrc(t, src), mc.Options{Workers: 1})
	if strict.Violation == nil || !strict.Violation.Deadlock {
		t.Fatalf("mutual receive-wait not reported without EndRecvOK: %v", strict.Violation)
	}
	lax := mc.Check(compileSrc(t, src), mc.Options{Workers: 1, EndRecvOK: true})
	if lax.Violation != nil {
		t.Fatalf("EndRecvOK should mask the receive-wait, got %v", lax.Violation)
	}
}

// TestNoDeadlockCheckSuppressesDeadlock: with the check disabled a stuck
// state is not a violation, and the search still terminates and counts it.
func TestNoDeadlockCheckSuppressesDeadlock(t *testing.T) {
	src := `
channel a: int
channel b: int
process p { in( a, $x); out( b, 1); }
process q { in( b, $y); out( a, 2); }
`
	res := mc.Check(compileSrc(t, src), mc.Options{Workers: 1, NoDeadlockCheck: true})
	if res.Violation != nil {
		t.Fatalf("deadlock reported despite NoDeadlockCheck: %v", res.Violation)
	}
	if res.States != 1 {
		t.Errorf("states = %d, want 1 (the stuck root)", res.States)
	}
}

// TestStepBudgetFaultSurfacesAsViolation: a runaway local loop reached
// through a transition surfaces as a step-budget fault with the trace
// that provoked it.
func TestStepBudgetFaultSurfacesAsViolation(t *testing.T) {
	prog := compileSrc(t, `
channel c: int
process trigger { out( c, 1); }
process runaway {
    in( c, $v);
    while (v > 0) { v = v + 1; } // never blocks again
}
`)
	res := mc.Check(prog, mc.Options{Workers: 1, StepBudget: 2000})
	if res.Violation == nil || res.Violation.Fault == nil {
		t.Fatalf("step-budget fault not reported: %+v", res)
	}
	if res.Violation.Fault.Kind != vm.FaultStep {
		t.Errorf("fault kind %v, want FaultStep", res.Violation.Fault.Kind)
	}
	if len(res.Violation.Trace) != 1 {
		t.Errorf("trace has %d steps, want the single triggering communication", len(res.Violation.Trace))
	}
}

// TestBitstateParallelFindsBug: the sharded bit-state set still finds
// violations under a parallel search.
func TestBitstateParallelFindsBug(t *testing.T) {
	prog := compileSrc(t, `
channel c: int
process producer { $i = 0; while (i < 10) { out( c, i); i = i + 1; } }
process consumer { $n = 0; while (true) { in( c, $v); assert( v < 8); n = n + 1; } }
`)
	for _, w := range []int{1, 4} {
		res := mc.Check(prog, mc.Options{Mode: mc.BitState, Workers: w})
		if res.Violation == nil || res.Violation.Fault == nil || res.Violation.Fault.Kind != vm.FaultAssert {
			t.Errorf("workers=%d bitstate missed the assertion: %v", w, res.Violation)
		}
	}
}
