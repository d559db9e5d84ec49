package vm_test

import (
	"bytes"
	"fmt"
	"testing"

	"esplang/internal/check"
	"esplang/internal/compile"
	"esplang/internal/ir"
	"esplang/internal/obs"
	"esplang/internal/parser"
	"esplang/internal/vm"
)

// compileBench is compileSrc without the *testing.T, for benchmarks.
func compileBench(src string) (*ir.Program, error) {
	tree, err := parser.Parse([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := check.Check(tree)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	return compile.Program(tree, info), nil
}

// pingPongSrc is a rendezvous-heavy closed pair: almost every cycle goes
// to message transfer and the context switches around it (§6.2).
const pingPongSrc = `
channel c: int
channel outC: int external reader
process producer {
    $i = 0;
    while (i < 50) {
        out( c, i); out( c, i); out( c, i); out( c, i);
        i = i + 1;
    }
}
process consumer {
    $i = 0;
    $sum = 0;
    while (i < 50) {
        in( c, $a); in( c, $b); in( c, $v); in( c, $w);
        sum = sum + v;
        i = i + 1;
    }
    out( outC, sum);
}
`

func runOnce(t *testing.T, attach func(m *vm.Machine)) (*vm.Machine, []int64) {
	t.Helper()
	m := newMachine(t, pingPongSrc, vm.Config{})
	outv := &vm.CollectReader{}
	if err := m.BindReader("outC", outv); err != nil {
		t.Fatal(err)
	}
	if attach != nil {
		attach(m)
	}
	if res := m.Run(); res == vm.RunFault {
		t.Fatalf("run result %v (fault: %v)", res, m.Fault())
	}
	var got []int64
	for _, v := range outv.Values {
		got = append(got, v.Int())
	}
	return m, got
}

// TestObsEquivalence is the core zero-interference contract: a run with
// the full observability stack attached produces the same outputs, the
// same event counts, and the same cycle total as a plain run.
func TestObsEquivalence(t *testing.T) {
	plain, plainOut := runOnce(t, nil)

	rec := obs.NewEventLog()
	prof := obs.NewProfiler("pingpong")
	reg := obs.NewMetrics()
	traced, tracedOut := runOnce(t, func(m *vm.Machine) {
		m.SetRecorder(rec)
		m.SetProfiler(prof)
		m.SetMetrics(reg)
	})

	if len(plainOut) != len(tracedOut) || plainOut[0] != tracedOut[0] {
		t.Errorf("outputs differ: %v plain, %v traced", plainOut, tracedOut)
	}
	if plain.Cycles != traced.Cycles {
		t.Errorf("cycle meter differs: %d plain, %d traced", plain.Cycles, traced.Cycles)
	}
	if d := traced.Stats.Sub(plain.Stats); d != (vm.Stats{}) {
		t.Errorf("stats differ under tracing: delta %s", d)
	}
	rec.Sync()
	if rec.Total() == 0 {
		t.Error("recorder collected no events")
	}

	var buf bytes.Buffer
	if _, err := rec.WriteChrome(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("invalid trace: %v", err)
	}
}

// TestProfileDecomposesCycles checks the profiler accounts for the cycle
// meter without remainder: every charged cycle lands on some source line
// with some kind.
func TestProfileDecomposesCycles(t *testing.T) {
	prof := obs.NewProfiler("pingpong")
	m, _ := runOnce(t, func(m *vm.Machine) { m.SetProfiler(prof) })
	if prof.TotalCycles() != m.Cycles {
		t.Errorf("profile covers %d cycles, meter says %d", prof.TotalCycles(), m.Cycles)
	}
	cycles, counts := prof.KindTotals()
	if counts[obs.KindRendezvous] != m.Stats.Rendezvous {
		t.Errorf("profile counted %d rendezvous, stats say %d",
			counts[obs.KindRendezvous], m.Stats.Rendezvous)
	}
	var sum int64
	for _, c := range cycles {
		sum += c
	}
	if sum != m.Cycles {
		t.Errorf("kind totals sum to %d, meter says %d", sum, m.Cycles)
	}
}

// TestProfileTopIsRendezvous is the §6.2 acceptance check: on a firmware-
// shaped program — a small loop moving messages between external channels
// — the hottest source line must be dominated by rendezvous or context-
// switch cost, the paper's finding that message transfer, not
// computation, is where firmware cycles go.
func TestProfileTopIsRendezvous(t *testing.T) {
	m := newMachine(t, add5Src, vm.Config{})
	in := &vm.QueueWriter{}
	outv := &vm.CollectReader{}
	if err := m.BindWriter("inC", in); err != nil {
		t.Fatal(err)
	}
	if err := m.BindReader("outC", outv); err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 20; v++ {
		v := v
		in.Push(0, func(_ *vm.Machine) vm.Value { return vm.IntVal(v) })
	}
	prof := obs.NewProfiler("add5")
	m.SetProfiler(prof)
	if res := m.Run(); res == vm.RunFault {
		t.Fatalf("run result %v (fault: %v)", res, m.Fault())
	}
	lines := prof.Lines()
	if len(lines) == 0 {
		t.Fatal("empty profile")
	}
	// The top of the profile must be message transfer: one of the two
	// hottest lines is dominated by rendezvous or context-switch cost.
	topComm := false
	for _, lp := range lines[:2] {
		if k := lp.Dominant(); k == obs.KindRendezvous || k == obs.KindCtxSwitch {
			topComm = true
		}
	}
	if !topComm {
		t.Errorf("no rendezvous/ctxswitch-dominated line in the top two\n%s",
			prof.Report(add5Src, 5))
	}
	// And across all kinds, rendezvous is the largest cost after raw
	// instruction dispatch.
	cycles, _ := prof.KindTotals()
	for k := obs.Kind(0); k < obs.NumKinds; k++ {
		if k == obs.KindInstr || k == obs.KindRendezvous {
			continue
		}
		if cycles[k] > cycles[obs.KindRendezvous] {
			t.Errorf("kind %v (%d cycles) outweighs rendezvous (%d cycles)\n%s",
				k, cycles[k], cycles[obs.KindRendezvous], prof.KindTable())
		}
	}
}

// TestDisabledObsZeroAlloc asserts the steady-state rendezvous path
// allocates nothing when no recorder is attached — the zero-cost-when-off
// property. The machine fires the same communication repeatedly in
// manual mode (the state cycles back to the same blocking point), so
// after warm-up every Go allocation would be the instrumentation's.
func TestDisabledObsZeroAlloc(t *testing.T) {
	m := newMachine(t, `
channel c: int
process producer {
    while (true) { out( c, 1); }
}
process consumer {
    while (true) { in( c, $v); }
}
`, vm.Config{Manual: true})
	m.Settle()
	comms := m.EnabledComms()
	if len(comms) != 1 {
		t.Fatalf("want exactly one enabled comm, got %d", len(comms))
	}
	c := comms[0]
	for i := 0; i < 16; i++ { // warm up: grow ready/queue capacities
		m.FireComm(c)
	}
	if avg := testing.AllocsPerRun(200, func() { m.FireComm(c) }); avg != 0 {
		t.Errorf("disabled-observability rendezvous path allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkRendezvousObsOff measures the steady-state rendezvous path
// with observability off — the configuration every production run uses,
// which must stay allocation-free.
func BenchmarkRendezvousObsOff(b *testing.B) {
	benchRendezvous(b, false)
}

// BenchmarkRendezvousEventLog measures the same path recording into a
// growing event log (esprun -trace's sink), for comparison against the
// disabled baseline.
func BenchmarkRendezvousEventLog(b *testing.B) {
	benchRendezvous(b, true)
}

func benchRendezvous(b *testing.B, logged bool) {
	prog, err := compileBench(`
channel c: int
process producer {
    while (true) { out( c, 1); }
}
process consumer {
    while (true) { in( c, $v); }
}
`)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(prog, vm.Config{Manual: true})
	if logged {
		m.SetRecorder(obs.NewEventLog())
	}
	m.Settle()
	c := m.EnabledComms()[0]
	for i := 0; i < 16; i++ {
		m.FireComm(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FireComm(c)
	}
}
