package mc_test

import (
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/mc"
	"esplang/internal/nic"
	"esplang/internal/vmmc"
)

// chatterSrc: two processes ping-pong forever on chatC while a worker
// starves waiting for workC — the system has an infinite run that never
// touches workC.
const chatterSrc = `
channel chatC: int
channel chatBackC: int
channel workC: int
process a {
    while (true) {
        out( chatC, 1);
        in( chatBackC, $x);
    }
}
process b {
    while (true) {
        in( chatC, $y);
        out( chatBackC, y);
    }
}
process worker {
    while (true) {
        in( workC, $w);
    }
}
`

func TestNonProgressCycleFound(t *testing.T) {
	prog := compileSrc(t, chatterSrc)
	res := mc.CheckProgress(prog, []string{"workC"}, mc.Options{})
	if res.Violation == nil {
		t.Fatal("starvation cycle not found")
	}
	if len(res.Violation.Trace) == 0 {
		t.Error("no cycle trace")
	}
	joined := ""
	for _, s := range res.Violation.Trace {
		joined += s.Desc + "\n"
	}
	if !strings.Contains(joined, "chatC") && !strings.Contains(joined, "chatBackC") {
		t.Errorf("cycle trace does not mention the chatter channels:\n%s", joined)
	}
}

func TestProgressOnChatterClears(t *testing.T) {
	// Declaring the chatter itself as progress: every cycle now contains
	// a progress step, so no violation.
	prog := compileSrc(t, chatterSrc)
	res := mc.CheckProgress(prog, []string{"chatC"}, mc.Options{})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if res.States < 2 {
		t.Errorf("suspiciously few states: %d", res.States)
	}
}

func TestProgressServerLoop(t *testing.T) {
	// A served request loop: progress on the reply channel holds (every
	// cycle passes through a reply).
	prog := compileSrc(t, `
channel req: int
channel rep: int
process server {
    while (true) {
        in( req, $v);
        out( rep, v + 1);
    }
}
process client {
    while (true) {
        out( req, 1);
        in( rep, $r);
    }
}
`)
	res := mc.CheckProgress(prog, []string{"rep"}, mc.Options{})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	// With an unrelated channel as the progress label, the whole loop is
	// a non-progress cycle.
	prog2 := compileSrc(t, `
channel req: int
channel rep: int
channel never: int
process server {
    while (true) {
        in( req, $v);
        out( rep, v + 1);
    }
}
process client {
    while (true) {
        out( req, 1);
        in( rep, $r);
    }
}
process idle {
    in( never, $x);
}
`)
	res2 := mc.CheckProgress(prog2, []string{"never"}, mc.Options{})
	if res2.Violation == nil {
		t.Fatal("non-progress loop not found")
	}
}

func TestProgressUnknownChannel(t *testing.T) {
	prog := compileSrc(t, chatterSrc)
	res := mc.CheckProgress(prog, []string{"nosuch"}, mc.Options{})
	if res.Violation == nil || res.Violation.Fault == nil {
		t.Fatal("unknown progress channel not reported")
	}
}

func TestProgressTerminatingSystemHasNoCycle(t *testing.T) {
	prog := compileSrc(t, `
channel c: int
process p { $i = 0; while (i < 3) { out( c, i); i = i + 1; } }
process q { $n = 0; while (n < 3) { in( c, $v); n = n + 1; } }
`)
	res := mc.CheckProgress(prog, []string{}, mc.Options{})
	if res.Violation != nil {
		t.Fatalf("terminating system reported a cycle: %v", res.Violation)
	}
}

// TestProgressTruncationStopsAtBound: CheckProgress stops at exactly
// MaxStates, as Check does (TestTruncationStopsPromptly), instead of
// admitting the rest of the expansion that reaches the bound. The
// program branches 3 ways at every state; the vmmc firmware model is the
// reproducer, which used to report 11 states under a bound of 10.
func TestProgressTruncationStopsAtBound(t *testing.T) {
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
	res := mc.CheckProgress(prog, []string{"c"}, mc.Options{MaxStates: bound})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if !res.Truncated || res.States != bound {
		t.Errorf("states=%d truncated=%v, want %d/true", res.States, res.Truncated, bound)
	}
	if maxT := 3*bound + 16; res.Transitions > maxT {
		t.Errorf("%d transitions after a %d-state bound (want ≤ %d)", res.Transitions, bound, maxT)
	}

	fw, err := esplang.Compile(vmmc.FirmwareModel(nic.DefaultConfig(), 3), esplang.CompileOptions{Name: "vmmc-verify"})
	if err != nil {
		t.Fatal(err)
	}
	res = mc.CheckProgress(fw.IR, nil, mc.Options{MaxStates: 10, EndRecvOK: true})
	if !res.Truncated || res.States != 10 {
		t.Errorf("firmware model: states=%d truncated=%v, want 10/true", res.States, res.Truncated)
	}
	// A search the bound does not cut is not truncated.
	small := compileSrc(t, `
channel c: int
process p { $i = 0; while (i < 3) { out( c, i); i = i + 1; } }
process q { $n = 0; while (n < 3) { in( c, $v); n = n + 1; } }
`)
	full := mc.CheckProgress(small, nil, mc.Options{})
	if full.Truncated {
		t.Fatalf("unbounded search truncated at %d states", full.States)
	}
	if res := mc.CheckProgress(small, nil, mc.Options{MaxStates: full.States}); res.Truncated || res.States != full.States {
		t.Errorf("bound = state count: states=%d truncated=%v, want %d/false", res.States, res.Truncated, full.States)
	}
}
