package mc_test

import (
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	esplang "esplang"
	"esplang/internal/mc"
	"esplang/internal/nic"
	"esplang/internal/obs"
	"esplang/internal/vm"
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

// doubleFreeSrc faults in the second process's first transition: p hands
// q a scalar, then frees its array twice.
const doubleFreeSrc = `
type t = array of int
channel c: int
channel d: int
process p { $a: t = { 4 -> 1}; out( c, 1); unlink( a); unlink( a); out( d, 2); }
process q { in( c, $x); in( d, $y); }
`

// TestProgressFaultCarriesCounterexample: a fault found while the
// progress search builds the state graph is reported as the safety
// search reports it — with the choices that reach it, the replay's
// postmortem, and the depth of the faulting transition.
func TestProgressFaultCarriesCounterexample(t *testing.T) {
	prog := compileSrc(t, doubleFreeSrc)
	safety := mc.Check(prog, mc.Options{Workers: 1})
	res := mc.CheckProgress(prog, []string{"d"}, mc.Options{})
	v := res.Violation
	if v == nil || v.Fault == nil || v.Fault.Kind != vm.FaultDoubleFree {
		t.Fatalf("violation %v, want a double free", v)
	}
	if safety.Violation == nil || len(safety.Violation.Trace) != 1 {
		t.Fatalf("safety search: %v", safety.Violation)
	}
	if len(v.Trace) != 1 || v.Trace[0].Desc != safety.Violation.Trace[0].Desc || v.Trace[0].Choice != safety.Violation.Trace[0].Choice {
		t.Errorf("counterexample %v, want the safety search's %v", v.Trace, safety.Violation.Trace)
	}
	if !strings.Contains(v.Postmortem, "fault") {
		t.Errorf("postmortem does not record the fault:\n%s", v.Postmortem)
	}
	if res.MaxDepth != 1 || res.MaxDepth != safety.MaxDepth {
		t.Errorf("depth %d, want 1 as in the safety search (%d)", res.MaxDepth, safety.MaxDepth)
	}
}

// TestProgressDepthMatchesSafety: the progress search reports the depth
// the safety search reports, and a depth bound admits the states at the
// bound without expanding them and marks the search partial — the same
// states the bounded safety search admits.
func TestProgressDepthMatchesSafety(t *testing.T) {
	src, err := os.ReadFile("../../testdata/pipeline.esp")
	if err != nil {
		t.Fatal(err)
	}
	prog := compileSrc(t, string(src))
	for _, bound := range []int{0, 3} {
		opts := mc.Options{Workers: 1, EndRecvOK: true, MaxDepth: bound}
		safety := mc.Check(prog, opts)
		res := mc.CheckProgress(prog, []string{"c"}, opts)
		if res.Violation != nil || safety.Violation != nil {
			t.Fatalf("bound %d: violations %v / %v", bound, res.Violation, safety.Violation)
		}
		if res.MaxDepth != safety.MaxDepth || res.States != safety.States || res.Truncated != safety.Truncated {
			t.Errorf("bound %d: progress search depth %d, %d states, truncated %v; safety search %d, %d, %v",
				bound, res.MaxDepth, res.States, res.Truncated, safety.MaxDepth, safety.States, safety.Truncated)
		}
		if want := bound > 0; res.Truncated != want || bound > 0 && res.MaxDepth != bound {
			t.Errorf("bound %d: depth %d, truncated %v", bound, res.MaxDepth, res.Truncated)
		}
	}
}

// TestNonProgressCycleCounterexample: a cycle counterexample starts at
// the initial state — the stem that leads to the cycle, then the cycle
// from its marked first step to the step that closes it, both marks on
// one step for a self-loop — replays from a fresh machine back to the
// state where the cycle starts, and carries the replay's postmortem.
func TestNonProgressCycleCounterexample(t *testing.T) {
	for _, c := range []struct {
		name, src        string
		first            string // the first step
		stem, cycleSteps int
	}{
		// starter sends process a two messages before the chatter starts.
		{"behind a stem", `
channel go: int
channel chatC: int
channel chatBackC: int
process starter { out( go, 1); out( go, 2); }
process a {
    in( go, $g1);
    in( go, $g2);
    while (true) { out( chatC, 1); in( chatBackC, $x); }
}
process b { while (true) { in( chatC, $y); out( chatBackC, y); } }
`, "starter --go--> a", 4, 2},
		// After the first message every step returns to the same state.
		{"self-loop", `
channel c: int
process p { while (true) { out( c, 1); } }
process q { while (true) { in( c, $x); } }
`, "p --c--> q", 1, 1},
	} {
		prog := compileSrc(t, c.src)
		res := mc.CheckProgress(prog, nil, mc.Options{Workers: 1})
		v := res.Violation
		if v == nil || len(v.Trace) == 0 {
			t.Fatalf("%s: no cycle found: %v", c.name, res)
		}
		if !strings.HasPrefix(v.Trace[0].Desc, c.first) {
			t.Errorf("%s: the counterexample starts with %q, want %q", c.name, v.Trace[0].Desc, c.first)
		}
		if v.Postmortem == "" {
			t.Errorf("%s: no postmortem", c.name)
		}
		m := vm.New(prog, vm.Config{Manual: true})
		m.Cost = vm.ZeroCostModel()
		m.Settle()
		start := -1
		var startKey []byte
		for i, st := range v.Trace {
			if strings.Contains(st.Desc, "(cycle starts)") {
				start = i
				_, startKey = m.SaveKey(nil, nil)
			}
			if !slices.Contains(m.EnabledComms(), st.Choice) {
				t.Fatalf("%s: step %d (%s) is not enabled on a replay from the initial state", c.name, i+1, st.Desc)
			}
			m.FireComm(st.Choice)
		}
		if start != c.stem || len(v.Trace) != c.stem+c.cycleSteps ||
			!strings.HasSuffix(v.Trace[len(v.Trace)-1].Desc, "(closes the cycle)") {
			t.Fatalf("%s: counterexample %v, want %d stem steps, then a %d-step cycle marked where it starts and closes",
				c.name, v.Trace, c.stem, c.cycleSteps)
		}
		if _, key := m.SaveKey(nil, nil); string(key) != string(startKey) {
			t.Errorf("%s: the cycle ends in another state than the one it starts from", c.name)
		}
	}
}

// TestProgressSearchReportsLikeCheck: the progress search reports its
// workers and elapsed time, delivers a final progress sample, and fills
// the metrics registry, as the safety search does.
func TestProgressSearchReportsLikeCheck(t *testing.T) {
	prog := compileSrc(t, chatterSrc)
	reg := obs.NewMetrics()
	var last mc.ProgressInfo
	res := mc.CheckProgress(prog, []string{"chatC"}, mc.Options{
		Workers:          2,
		Progress:         func(info mc.ProgressInfo) { last = info },
		ProgressInterval: time.Millisecond,
		Metrics:          reg,
	})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if res.Workers != 2 || res.Elapsed <= 0 {
		t.Errorf("workers %d, elapsed %v; want 2 and a positive time", res.Workers, res.Elapsed)
	}
	if !last.Final || int(last.States) != res.States {
		t.Errorf("last progress sample %+v, want a final one with %d states", last, res.States)
	}
	if got := reg.Snapshot().Gauges["mc_states"]; int(got) != res.States {
		t.Errorf("mc_states gauge %d, want %d", got, res.States)
	}
}
