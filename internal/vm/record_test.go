package vm_test

import (
	"strings"
	"testing"

	"esplang/internal/obs"
	"esplang/internal/vm"
)

// faultSrc rendezvouses a few times and then faults (division by zero),
// so the postmortem window holds starts, stops, rendezvous, and the
// fault itself.
const faultSrc = `
channel c: int
process producer {
    $n = 0;
    while (n < 5) {
        out( c, n);
        n = n + 1;
    }
}
process consumer {
    $n = 0;
    $sum = 1;
    while (n < 5) {
        in( c, $v);
        sum = sum / (3 - v);
        n = n + 1;
    }
}
`

var recEngines = []struct {
	name   string
	engine vm.Engine
}{
	{"baseline", vm.EngineBaseline},
	{"fused", vm.EngineFused},
}

// TestPostmortemIdenticalAcrossEngines asserts the engine-equivalence
// contract extends to the flight recorder: the same fault produces a
// bit-identical postmortem under both engines.
func TestPostmortemIdenticalAcrossEngines(t *testing.T) {
	var dumps []string
	for _, e := range recEngines {
		m := newMachine(t, faultSrc, vm.Config{Engine: e.engine})
		m.SetRecorder(obs.NewFlightRecorder(0))
		if res := m.Run(); res != vm.RunFault {
			t.Fatalf("%s: result %v, want fault", e.name, res)
		}
		pm := m.Postmortem(obs.PostmortemEvents)
		if pm == "" {
			t.Fatalf("%s: empty postmortem", e.name)
		}
		if _, err := obs.ValidatePostmortem([]byte(pm)); err != nil {
			t.Fatalf("%s: postmortem invalid: %v\n%s", e.name, err, pm)
		}
		dumps = append(dumps, pm)
	}
	for i := 1; i < len(dumps); i++ {
		if dumps[i] != dumps[0] {
			t.Errorf("postmortem differs between %s and %s:\n--- %s:\n%s\n--- %s:\n%s",
				recEngines[0].name, recEngines[i].name,
				recEngines[0].name, dumps[0], recEngines[i].name, dumps[i])
		}
	}
	// The dump names the fault and charges real cycles.
	if !strings.Contains(dumps[0], "# fault: division by zero") {
		t.Errorf("postmortem missing fault header:\n%s", dumps[0])
	}
	if !strings.Contains(dumps[0], "# charge instr cycles=") {
		t.Errorf("postmortem missing instr charge line:\n%s", dumps[0])
	}
}

// TestRecorderPreservesExecution asserts attaching a recorder changes no
// observable machine state: cycles, stats, and fault are identical with
// and without it.
func TestRecorderPreservesExecution(t *testing.T) {
	for _, e := range recEngines {
		plain := newMachine(t, faultSrc, vm.Config{Engine: e.engine})
		plain.Run()
		rec := newMachine(t, faultSrc, vm.Config{Engine: e.engine})
		rec.SetRecorder(obs.NewFlightRecorder(0))
		rec.Run()
		if plain.Cycles != rec.Cycles {
			t.Errorf("%s: cycles %d with recorder, %d without", e.name, rec.Cycles, plain.Cycles)
		}
		if plain.Stats != rec.Stats {
			t.Errorf("%s: stats diverge with recorder:\n  on:  %v\n  off: %v", e.name, rec.Stats, plain.Stats)
		}
	}
}

// TestRecorderZeroAllocRendezvous mirrors TestDisabledObsZeroAlloc with
// a flight recorder attached: the steady-state rendezvous path must stay
// allocation-free — the ring is preallocated and recording only copies.
func TestRecorderZeroAllocRendezvous(t *testing.T) {
	m := newMachine(t, `
channel c: int
process producer {
    while (true) { out( c, 1); }
}
process consumer {
    while (true) { in( c, $v); }
}
`, vm.Config{Manual: true})
	m.SetRecorder(obs.NewFlightRecorder(64))
	m.Settle()
	comms := m.EnabledComms()
	if len(comms) != 1 {
		t.Fatalf("want exactly one enabled comm, got %d", len(comms))
	}
	c := comms[0]
	for i := 0; i < 100; i++ { // warm up ready/queue capacities and wrap the ring
		m.FireComm(c)
	}
	if avg := testing.AllocsPerRun(200, func() { m.FireComm(c) }); avg != 0 {
		t.Errorf("recorder-on rendezvous path allocates %.2f objects/op, want 0", avg)
	}
}

// TestPostmortemAfterWrap runs a long program through a tiny ring: the
// dump must still validate (sequence numbers open mid-stream, orphan
// stops forgiven because events dropped).
func TestPostmortemAfterWrap(t *testing.T) {
	m := newMachine(t, faultSrc, vm.Config{})
	r := obs.NewFlightRecorder(8)
	m.SetRecorder(r)
	m.Run()
	pm := m.Postmortem(0) // also publishes the staged tail
	if r.Dropped() == 0 {
		t.Fatalf("ring did not wrap (total %d)", r.Total())
	}
	if n, err := obs.ValidatePostmortem([]byte(pm)); err != nil {
		t.Fatalf("wrapped postmortem invalid: %v\n%s", err, pm)
	} else if n != 8 {
		t.Errorf("wrapped postmortem has %d events, want 8", n)
	}
}

// TestPostmortemWithoutRecorder: no recorder, no postmortem.
func TestPostmortemWithoutRecorder(t *testing.T) {
	m := newMachine(t, faultSrc, vm.Config{})
	m.Run()
	if pm := m.Postmortem(0); pm != "" {
		t.Errorf("Postmortem without recorder = %q, want empty", pm)
	}
}
