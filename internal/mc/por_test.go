package mc_test

import (
	"fmt"
	"strings"
	"testing"

	"esplang/internal/mc"
)

// pipelinesSource builds `pairs` disjoint producer/consumer pipelines of
// `length` messages each. The pipelines never interact, so the full
// state space is the product of the per-pipeline spaces while the
// reduced search only needs one interleaving representative.
func pipelinesSource(pairs, length int) string {
	var b strings.Builder
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&b, "channel c%d: int\n", i)
		fmt.Fprintf(&b, "process prod%d { $i = 0; while (i < %d) { out( c%d, i); i = i + 1; } }\n", i, length, i)
		fmt.Fprintf(&b, "process cons%d { $n = 0; while (n < %d) { in( c%d, $v); assert( v == n); n = n + 1; } }\n", i, length, i)
	}
	return b.String()
}

func TestPORIndependentPipelines(t *testing.T) {
	prog := compileSrc(t, pipelinesSource(3, 3))

	full := mc.Check(prog, mc.Options{Workers: 1})
	red := mc.Check(prog, mc.Options{Workers: 1, Reduction: mc.AmpleSets})

	if full.Violation != nil || red.Violation != nil {
		t.Fatalf("unexpected violation: full=%v por=%v", full.Violation, red.Violation)
	}
	if red.POR == nil {
		t.Fatal("reduced run reported no POR stats")
	}
	if red.States*3 > full.States {
		t.Errorf("expected >=3x state reduction, got full=%d por=%d", full.States, red.States)
	}
	if red.POR.AmpleStates == 0 {
		t.Error("no state used an ample subset")
	}
	t.Logf("full: %d states %d transitions; por: %d states %d transitions (ample %d, full %d, fallbacks %d, deferred %d)",
		full.States, full.Transitions, red.States, red.Transitions,
		red.POR.AmpleStates, red.POR.FullStates, red.POR.ProvisoFallbacks, red.POR.DeferredTransitions)
}

// TestPORFindsFaultAcrossIndependentNoise checks verdict preservation
// when a fault hides behind an independent, state-space-inflating pair.
func TestPORFindsFaultAcrossIndependentNoise(t *testing.T) {
	src := pipelinesSource(2, 4) + `
channel f: int
process fp { $i = 0; while (i < 3) { out( f, i); i = i + 1; } }
process fc { $n = 0; while (n < 3) { in( f, $v); assert( v < 2); n = n + 1; } }
`
	prog := compileSrc(t, src)

	full := mc.Check(prog, mc.Options{Workers: 1})
	red := mc.Check(prog, mc.Options{Workers: 1, Reduction: mc.AmpleSets})

	if full.Violation == nil || full.Violation.Fault == nil {
		t.Fatalf("full search missed the fault: %v", full.Violation)
	}
	if red.Violation == nil || red.Violation.Fault == nil {
		t.Fatalf("reduced search missed the fault: %v", red.Violation)
	}
	if full.Violation.Fault.Kind != red.Violation.Fault.Kind {
		t.Errorf("fault kind differs: full=%v por=%v",
			full.Violation.Fault.Kind, red.Violation.Fault.Kind)
	}
}

// TestPORProvisoCycle pins the cycle proviso: an infinite independent
// ping-pong loop could absorb the whole reduced search (its ample sets
// are always valid), starving the transition that faults. The proviso's
// fallback to full expansion once the loop stops producing new states
// guarantees the fault is still found.
func TestPORProvisoCycle(t *testing.T) {
	prog := compileSrc(t, `
channel ping: int
channel pong: int
channel f: int
process a { while (true) { out( ping, 1); in( pong, $x); } }
process b { while (true) { in( ping, $y); out( pong, 2); } }
process fp { out( f, 9); }
process fc { in( f, $v); assert( v < 9); }
`)

	full := mc.Check(prog, mc.Options{Workers: 1})
	red := mc.Check(prog, mc.Options{Workers: 1, Reduction: mc.AmpleSets})

	if full.Violation == nil || full.Violation.Fault == nil {
		t.Fatalf("full search missed the fault: %v", full.Violation)
	}
	if red.Violation == nil || red.Violation.Fault == nil {
		t.Fatalf("reduced search missed the fault: %v (proviso broken?)", red.Violation)
	}
	if full.Violation.Fault.Kind != red.Violation.Fault.Kind {
		t.Errorf("fault kind differs: full=%v por=%v",
			full.Violation.Fault.Kind, red.Violation.Fault.Kind)
	}
}

// TestPORDeadlockPreserved checks that reduction never hides a deadlock.
func TestPORDeadlockPreserved(t *testing.T) {
	prog := compileSrc(t, pipelinesSource(2, 2)+`
channel d1: int
channel d2: int
process da { out( d1, 1); in( d2, $x); }
process db { out( d2, 2); in( d1, $y); }
`)
	full := mc.Check(prog, mc.Options{Workers: 1})
	red := mc.Check(prog, mc.Options{Workers: 1, Reduction: mc.AmpleSets})
	if full.Violation == nil || !full.Violation.Deadlock {
		t.Fatalf("full search missed the deadlock: %v", full.Violation)
	}
	if red.Violation == nil || !red.Violation.Deadlock {
		t.Fatalf("reduced search missed the deadlock: %v", red.Violation)
	}
}

// TestPORSequentialDeterministic: two Workers:1 reduced runs must agree
// bit for bit on every counter.
func TestPORSequentialDeterministic(t *testing.T) {
	prog := compileSrc(t, pipelinesSource(3, 3))
	a := mc.Check(prog, mc.Options{Workers: 1, Reduction: mc.AmpleSets})
	b := mc.Check(prog, mc.Options{Workers: 1, Reduction: mc.AmpleSets})
	if a.States != b.States || a.Transitions != b.Transitions || a.MaxDepth != b.MaxDepth {
		t.Errorf("sequential POR runs disagree: %v vs %v", a, b)
	}
	if *a.POR != *b.POR {
		t.Errorf("sequential POR stats disagree: %+v vs %+v", a.POR, b.POR)
	}
}

// TestPORParallelVerdict: parallel reduced runs must reach the same
// verdict as the sequential one (state counts may differ — the proviso
// races on the visited set).
func TestPORParallelVerdict(t *testing.T) {
	pass := compileSrc(t, pipelinesSource(3, 3))
	seq := mc.Check(pass, mc.Options{Workers: 1, Reduction: mc.AmpleSets})
	par := mc.Check(pass, mc.Options{Workers: 4, Reduction: mc.AmpleSets})
	if (seq.Violation == nil) != (par.Violation == nil) {
		t.Errorf("verdict differs: seq=%v par=%v", seq.Violation, par.Violation)
	}

	fail := compileSrc(t, pipelinesSource(2, 3)+`
channel f: int
process fp { out( f, 9); }
process fc { in( f, $v); assert( v < 9); }
`)
	seqF := mc.Check(fail, mc.Options{Workers: 1, Reduction: mc.AmpleSets})
	parF := mc.Check(fail, mc.Options{Workers: 4, Reduction: mc.AmpleSets})
	if seqF.Violation == nil || seqF.Violation.Fault == nil {
		t.Fatalf("sequential POR missed the fault: %v", seqF.Violation)
	}
	if parF.Violation == nil || parF.Violation.Fault == nil {
		t.Fatalf("parallel POR missed the fault: %v", parF.Violation)
	}
}

// TestAmpleOrderAllocFree: choosing an ample set reuses the worker's
// scratch — the closure's channel buffer, its worklist, and the
// partition — so a reduced state costs no allocation.
func TestAmpleOrderAllocFree(t *testing.T) {
	allocs, ample, full := mc.AmpleOrderAllocs(compileSrc(t, pipelinesSource(3, 3)))
	if ample >= full {
		t.Fatalf("no proper ample set: prefix %d of %d", ample, full)
	}
	if allocs != 0 {
		t.Errorf("ampleOrder allocates %.1f times per call, want 0", allocs)
	}
}
