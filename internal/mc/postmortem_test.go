package mc_test

import (
	"strings"
	"testing"
	"time"

	"esplang/internal/mc"
	"esplang/internal/obs"
)

// assertSrc violates an assertion after a short rendezvous exchange.
const assertSrc = `
channel c: int
process sender {
    $n = 0;
    while (n < 4) {
        out( c, n);
        n = n + 1;
    }
}
process receiver {
    $n = 0;
    while (n < 4) {
        in( c, $v);
        assert( v < 3);
        n = n + 1;
    }
}
`

// TestViolationCarriesPostmortem asserts every counterexample comes with
// a structurally valid flight-recorder dump of its replay.
func TestViolationCarriesPostmortem(t *testing.T) {
	prog := compileSrc(t, assertSrc)
	res := mc.Check(prog, mc.Options{Workers: 1})
	if res.Violation == nil {
		t.Fatal("assertion violation not found")
	}
	pm := res.Violation.Postmortem
	if pm == "" {
		t.Fatal("violation has no postmortem")
	}
	n, err := obs.ValidatePostmortem([]byte(pm))
	if err != nil {
		t.Fatalf("counterexample postmortem invalid: %v\n%s", err, pm)
	}
	if n == 0 {
		t.Fatal("counterexample postmortem is empty")
	}
	if !strings.Contains(pm, "\tfault\t") {
		t.Errorf("postmortem has no fault event:\n%s", pm)
	}
}

// TestSimulationViolationCarriesPostmortem covers the simulation-mode
// walk (a separate violation construction path from the frontier search).
func TestSimulationViolationCarriesPostmortem(t *testing.T) {
	prog := compileSrc(t, assertSrc)
	res := mc.Check(prog, mc.Options{Mode: mc.Simulation, Seed: 1, SimRuns: 50})
	if res.Violation == nil {
		t.Skip("random walks missed the violation at this seed")
	}
	pm := res.Violation.Postmortem
	if pm == "" {
		t.Fatal("simulation violation has no postmortem")
	}
	if _, err := obs.ValidatePostmortem([]byte(pm)); err != nil {
		t.Fatalf("simulation postmortem invalid: %v\n%s", err, pm)
	}
}

func TestProgressETA(t *testing.T) {
	p := mc.ProgressInfo{States: 4000, MaxStates: 10000, StatesPerSec: 2000}
	eta, ok := p.ETA()
	if !ok || eta != 3*time.Second {
		t.Errorf("ETA = %v, %v; want 3s, true", eta, ok)
	}
	if !strings.Contains(p.String(), "eta 3s to max-states") {
		t.Errorf("progress line missing ETA: %q", p.String())
	}

	// No ETA on final samples, unbounded searches, unknown rates, or
	// once the bound is passed.
	for name, q := range map[string]mc.ProgressInfo{
		"final":     {States: 1, MaxStates: 10, StatesPerSec: 1, Final: true},
		"unbounded": {States: 1, StatesPerSec: 1},
		"no rate":   {States: 1, MaxStates: 10},
		"past":      {States: 20, MaxStates: 10, StatesPerSec: 1},
	} {
		if _, ok := q.ETA(); ok {
			t.Errorf("%s: ETA unexpectedly available", name)
		}
		if strings.Contains(q.String(), "eta") {
			t.Errorf("%s: progress line has ETA: %q", name, q.String())
		}
	}
}

// TestProgressCarriesMaxStates asserts live samples know the bound, so
// consumers can compute ETA.
func TestProgressCarriesMaxStates(t *testing.T) {
	prog := compileSrc(t, assertSrc)
	var sawBound bool
	mc.Check(prog, mc.Options{
		Workers:          1,
		MaxStates:        5000,
		Progress:         func(p mc.ProgressInfo) { sawBound = sawBound || p.MaxStates == 5000 },
		ProgressInterval: time.Millisecond,
	})
	if !sawBound {
		t.Error("no progress sample carried MaxStates")
	}
}

// TestInitialDeadlockCarriesPostmortem: a deadlock in the initial state
// is replayed like every other counterexample, so it has a postmortem
// too — the same as a deadlock one transition later.
func TestInitialDeadlockCarriesPostmortem(t *testing.T) {
	for _, c := range []struct {
		name, src string
		steps     int
	}{
		{"initial state", `
channel c: int
channel d: int
process p { out( c, 1); }
process q { in( d, $x); }
`, 0},
		{"after one transition", `
channel a: int
channel b: int
process p { out( a, 1); in( b, $x); }
process q { in( a, $y); }
`, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := mc.Check(compileSrc(t, c.src), mc.Options{Workers: 1})
			v := res.Violation
			if v == nil || !v.Deadlock {
				t.Fatalf("verdict %v, want a deadlock", v)
			}
			if len(v.Trace) != c.steps {
				t.Errorf("%d trace steps, want %d", len(v.Trace), c.steps)
			}
			if v.Postmortem == "" {
				t.Fatal("deadlock has no postmortem")
			}
			if _, err := obs.ValidatePostmortem([]byte(v.Postmortem)); err != nil {
				t.Fatalf("postmortem invalid: %v\n%s", err, v.Postmortem)
			}
		})
	}
}
