package esplang_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/nic"
	"esplang/internal/obs"
	"esplang/internal/vmmc"
)

// Differential tests for the two interpreters: the fused hot-path engine
// (superinstructions, element-storage recycling, and — when the program
// is optimized — partner scans narrowed to the schedule's per-channel
// scan lists) must be observationally indistinguishable
// from the baseline interpreter — same outputs, same faults (down to
// file:line), same cycle meter, same event statistics, same trace bytes,
// and same model-checker verdicts and state counts.

var allEngines = []esplang.Engine{esplang.EngineBaseline, esplang.EngineFused}

// engineRun executes path with the canonical inputs under one engine and
// renders everything observable plus the cycle/statistics counters.
func engineRun(t *testing.T, path string, engine esplang.Engine) string {
	t.Helper()
	prog, err := esplang.CompileFile(path, esplang.CompileOptions{VerifyIR: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := prog.Machine(esplang.MachineConfig{MaxLiveObjects: 64, Engine: engine})
	readers := feedInputs(t, prog, m)
	m.Run()

	var b bytes.Buffer
	if f := m.Fault(); f != nil {
		fmt.Fprintf(&b, "fault: %v\n", f)
	} else {
		b.WriteString("fault: none\n")
	}
	fmt.Fprintf(&b, "cycles: %d\nstats: %+v\n", m.Cycles, m.Stats)
	for _, ch := range prog.IR.Channels {
		r, ok := readers[ch.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s:", ch.Name)
		for _, v := range r.Values {
			b.WriteString(" ")
			b.WriteString(renderSnap(v))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestEngineDifferentialTestdata: every sample program behaves
// identically — outputs, fault state, cycles, and statistics — under
// both engines.
func TestEngineDifferentialTestdata(t *testing.T) {
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			base := engineRun(t, f, esplang.EngineBaseline)
			for _, engine := range allEngines[1:] {
				if got := engineRun(t, f, engine); got != base {
					t.Errorf("%v diverges from baseline:\n--- baseline ---\n%s--- %v ---\n%s", engine, base, engine, got)
				}
			}
		})
	}
}

// faultPrograms trip a runtime fault inside code the fuser groups into
// superinstructions, so the fused engine must materialize the exact
// baseline fault — kind, message, PC, and source position.
var faultPrograms = []struct{ name, src string }{
	{"div-by-zero", `
channel outC: int external reader
process p {
    $a = 10;
    $b = 0;
    $c = a / b;
    out( outC, c);
}`},
	{"mod-by-zero", `
channel outC: int external reader
process p {
    $a = 10;
    $b = 0;
    out( outC, a % b);
}`},
	{"assert-fail", `
channel outC: int external reader
process p {
    $n = 3;
    $m = n + 4;
    assert( m == 0);
    out( outC, m);
}`},
	{"use-after-free", `
channel outC: int external reader
process p {
    $d: array of int = { 4 -> 7};
    unlink( d);
    out( outC, d[0]);
}`},
}

// TestEngineDifferentialFaults: fault identity across engines, including
// the source file:line the fault reports.
func TestEngineDifferentialFaults(t *testing.T) {
	for _, tc := range faultPrograms {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				fault  esplang.Fault
				cycles int64
				stats  string
			}
			var got [2]outcome
			for i, engine := range allEngines {
				prog, err := esplang.Compile(tc.src, esplang.CompileOptions{File: tc.name + ".esp"})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				m := prog.Machine(esplang.MachineConfig{Engine: engine})
				if err := m.BindReader("outC", &esplang.CollectReader{}); err != nil {
					t.Fatal(err)
				}
				m.Run()
				f := m.Fault()
				if f == nil {
					t.Fatalf("engine %v: expected a fault", engine)
				}
				if f.Location() == "" {
					t.Fatalf("engine %v: fault carries no source location: %v", engine, f)
				}
				got[i] = outcome{fault: *f, cycles: m.Cycles, stats: fmt.Sprintf("%+v", m.Stats)}
			}
			if got[0] != got[1] {
				t.Errorf("fault outcomes diverge:\nbaseline:  %+v\nfused:     %+v", got[0], got[1])
			}
		})
	}
}

// TestEngineDifferentialTraces: the Chrome trace-event stream (whose
// timestamps are derived from the cycle meter) is byte-identical across
// engines.
func TestEngineDifferentialTraces(t *testing.T) {
	var traces [2]bytes.Buffer
	for i, engine := range allEngines {
		prog, err := esplang.CompileFile("testdata/add5.esp", esplang.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := prog.Machine(esplang.MachineConfig{Engine: engine})
		rec := obs.NewEventLog()
		m.SetRecorder(rec)
		w := &esplang.QueueWriter{}
		for _, v := range []int64{1, 10, 37} {
			v := v
			w.Push(0, func(*esplang.Machine) esplang.Value { return esplang.IntVal(v) })
		}
		if err := m.BindWriter("inC", w); err != nil {
			t.Fatal(err)
		}
		if err := m.BindReader("outC", &esplang.CollectReader{}); err != nil {
			t.Fatal(err)
		}
		m.Run()
		rec.Sync()
		if _, err := rec.WriteChrome(&traces[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Errorf("trace streams diverge:\n--- baseline ---\n%s\n--- fused ---\n%s",
			traces[0].String(), traces[1].String())
	}
}

// TestEngineDifferentialVerify: the model checker visits the same state
// space under either engine — identical verdict, state count, and
// transition count (Workers: 1 makes the counts deterministic).
func TestEngineDifferentialVerify(t *testing.T) {
	prog, err := esplang.CompileFile("testdata/pipeline.esp", esplang.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got [2]string
	for i, engine := range allEngines {
		res := prog.Verify(esplang.VerifyOptions{Workers: 1, Engine: engine})
		if res.Violation != nil {
			t.Fatalf("engine %v: unexpected violation: %v", engine, res.Violation)
		}
		got[i] = fmt.Sprintf("states=%d transitions=%d truncated=%v", res.States, res.Transitions, res.Truncated)
	}
	if got[0] != got[1] {
		t.Errorf("search results diverge: baseline %s, fused %s", got[0], got[1])
	}
}

// TestEngineDifferentialVerifySeededBugs: every seeded memory bug and the
// buggy retransmission protocol are found under both engines, with the
// same counterexample fault and (deterministic) state count.
func TestEngineDifferentialVerifySeededBugs(t *testing.T) {
	for _, bug := range []vmmc.MemBug{vmmc.BugNone, vmmc.BugLeak, vmmc.BugUseAfterFree, vmmc.BugDoubleFree} {
		t.Run(bug.String(), func(t *testing.T) {
			var got [2]string
			for i, engine := range allEngines {
				res, err := vmmc.VerifyMemSafety(bug, esplang.VerifyOptions{Workers: 1, Engine: engine})
				if err != nil {
					t.Fatal(err)
				}
				viol := "none"
				if res.Violation != nil {
					viol = res.Violation.Fault.Error()
				}
				got[i] = fmt.Sprintf("states=%d violation=%s", res.States, viol)
			}
			if got[0] != got[1] {
				t.Errorf("verdicts diverge:\nbaseline:  %s\nfused:     %s", got[0], got[1])
			}
		})
	}
	t.Run("retrans-buggy", func(t *testing.T) {
		var got [2]string
		for i, engine := range allEngines {
			res, err := vmmc.VerifyRetrans(2, 3, true, esplang.VerifyOptions{Workers: 1, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("engine %v: seeded retransmission bug not found", engine)
			}
			got[i] = fmt.Sprintf("states=%d fault=%s", res.States, res.Violation.Fault.Error())
		}
		if got[0] != got[1] {
			t.Errorf("verdicts diverge:\nbaseline:  %s\nfused:     %s", got[0], got[1])
		}
	})
}

// TestEngineDifferentialVMMC: the full firmware simulation — VM bridged
// to the simulated NIC — reports identical one-way latency under both
// engines, because both charge the same cycle cost model.
func TestEngineDifferentialVMMC(t *testing.T) {
	cfg := nic.DefaultConfig()
	defer func(prev esplang.Engine) { vmmc.Engine = prev }(vmmc.Engine)
	var lat [2]float64
	for i, engine := range allEngines {
		vmmc.Engine = engine
		v, err := vmmc.PingPong(vmmc.ESP, cfg, 64, 5)
		if err != nil {
			t.Fatal(err)
		}
		lat[i] = v
	}
	if lat[0] != lat[1] {
		t.Errorf("firmware latency diverges: baseline %.3f ns, fused %.3f ns", lat[0], lat[1])
	}
}

// TestEngineProfilerParity: installing a profiler routes execution
// through the baseline loop (the per-instruction decomposition cannot be
// charged from fused groups), so the profile and counters of a
// fused-configured machine match a baseline machine exactly.
func TestEngineProfilerParity(t *testing.T) {
	var got [2]string
	for i, engine := range allEngines {
		prog, err := esplang.CompileFile("testdata/pipeline.esp", esplang.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := prog.Machine(esplang.MachineConfig{Engine: engine})
		prof := obs.NewProfiler("pipeline.esp")
		m.SetProfiler(prof)
		m.Run()
		if f := m.Fault(); f != nil {
			t.Fatalf("engine %v: %v", engine, f)
		}
		got[i] = fmt.Sprintf("cycles=%d stats=%+v\n%s", m.Cycles, m.Stats, prof.Report(prog.Source, 20))
	}
	if got[0] != got[1] {
		t.Errorf("profiles diverge:\n--- baseline ---\n%s\n--- fused ---\n%s", got[0], got[1])
	}
}

// TestEngineDifferentialTracesTestdata: the full trace-event stream of
// every sample program — timestamps derived from the cycle meter — is
// byte-identical between the baseline and fused engines, so the fused
// engine's fast paths (superinstructions, narrowed scans, heap
// recycling) are invisible to every observer.
func TestEngineDifferentialTracesTestdata(t *testing.T) {
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			var traces [2]bytes.Buffer
			for i, engine := range allEngines {
				prog, err := esplang.CompileFile(f, esplang.CompileOptions{})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				m := prog.Machine(esplang.MachineConfig{MaxLiveObjects: 64, Engine: engine})
				rec := obs.NewEventLog()
				m.SetRecorder(rec)
				feedInputs(t, prog, m)
				m.Run()
				rec.Sync()
				if _, err := rec.WriteChrome(&traces[i], 0); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
				t.Errorf("trace streams diverge:\n--- baseline ---\n%s\n--- fused ---\n%s",
					traces[0].String(), traces[1].String())
			}
		})
	}
}

// TestEngineDifferentialVerifyParallel: with several model-checker
// workers racing over the frontier, the fused engine still explores
// exactly the baseline's state space (the exhaustive search's
// state count is worker-count-invariant).
func TestEngineDifferentialVerifyParallel(t *testing.T) {
	prog, err := esplang.CompileFile("testdata/pipeline.esp", esplang.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got [2]string
	for i, engine := range allEngines {
		res := prog.Verify(esplang.VerifyOptions{Workers: 4, Engine: engine})
		if res.Violation != nil {
			t.Fatalf("engine %v: unexpected violation: %v", engine, res.Violation)
		}
		got[i] = fmt.Sprintf("states=%d transitions=%d", res.States, res.Transitions)
	}
	if got[0] != got[1] {
		t.Errorf("parallel search diverges: baseline %s, fused %s", got[0], got[1])
	}
}

// TestModesAgreeCorpus: the wait-queue ablation of the §6.1 bit-masks
// changes only what blocking costs, so every sample and fuzz-corpus
// program prints the same outputs and the same fault in either mode, on
// both engines. Cycles and Stats differ by design and are not compared.
// The step and cycle budgets are the fuzz oracle's defaults, which stop
// the corpus's spinning programs.
func TestModesAgreeCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/*.esp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	fuzzFiles, err := filepath.Glob("testdata/fuzz/*.esp")
	if err != nil || len(fuzzFiles) == 0 {
		t.Fatalf("no fuzz corpus found: %v", err)
	}
	for _, f := range append(files, fuzzFiles...) {
		t.Run(f, func(t *testing.T) {
			prog, err := esplang.CompileFile(f, esplang.CompileOptions{})
			if err != nil {
				t.Skipf("compile-error corpus entry: %v", err)
			}
			for _, engine := range allEngines {
				var got [2]string
				for i, queues := range []bool{false, true} {
					m := prog.Machine(esplang.MachineConfig{MaxLiveObjects: 64, StepBudget: 200_000,
						MaxCycles: 2_000_000, UseWaitQueues: queues, Engine: engine})
					readers := feedInputs(t, prog, m)
					m.Run()
					var b strings.Builder
					fmt.Fprintf(&b, "fault: %v\n", m.Fault())
					for _, ch := range prog.IR.Channels {
						if r, ok := readers[ch.Name]; ok {
							fmt.Fprintf(&b, "%s:", ch.Name)
							for _, v := range r.Values {
								b.WriteString(" " + renderSnap(v))
							}
							b.WriteString("\n")
						}
					}
					got[i] = b.String()
				}
				if got[0] != got[1] {
					t.Errorf("%v: wait-queue mode diverges:\n--- bit-mask ---\n%s--- wait queues ---\n%s", engine, got[0], got[1])
				}
			}
		})
	}
}
