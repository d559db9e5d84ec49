// Benchmarks regenerating the paper's evaluation (PLDI 2001, §6.2 and
// §5.3). Each benchmark corresponds to one figure or table; the reported
// custom metrics are the simulated quantities the paper plots (latency in
// microseconds, bandwidth in MB/s, verifier states), while ns/op measures
// the host cost of running the simulation itself.
//
// Run everything:
//
//	go test -bench=. -benchmem
package esplang_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	esplang "esplang"
	"esplang/internal/nic"
	"esplang/internal/obs"
	"esplang/internal/vmmc"
)

var figFlavors = []vmmc.Flavor{vmmc.ESP, vmmc.Orig, vmmc.OrigNoFastPaths}

// BenchmarkFig5aLatency regenerates Figure 5(a): one-way latency for 4 B
// to 4 KB messages, for all three firmware flavors.
func BenchmarkFig5aLatency(b *testing.B) {
	cfg := nic.DefaultConfig()
	for _, fl := range figFlavors {
		for _, size := range []int{4, 64, 512, 4096} {
			b.Run(fmt.Sprintf("%s/%dB", fl, size), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					v, err := vmmc.PingPong(fl, cfg, size, 10)
					if err != nil {
						b.Fatal(err)
					}
					last = v
				}
				b.ReportMetric(last/1000, "us-latency")
			})
		}
	}
}

// BenchmarkFig5bBandwidth regenerates Figure 5(b): one-way bandwidth.
func BenchmarkFig5bBandwidth(b *testing.B) {
	cfg := nic.DefaultConfig()
	for _, fl := range figFlavors {
		for _, size := range []int{64, 1024, 4096, 65536} {
			b.Run(fmt.Sprintf("%s/%dB", fl, size), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					v, err := vmmc.OneWay(fl, cfg, size, 30)
					if err != nil {
						b.Fatal(err)
					}
					last = v
				}
				b.ReportMetric(last, "MB/s")
			})
		}
	}
}

// BenchmarkFig5cBidirectional regenerates Figure 5(c): total bandwidth
// with both machines streaming.
func BenchmarkFig5cBidirectional(b *testing.B) {
	cfg := nic.DefaultConfig()
	for _, fl := range figFlavors {
		for _, size := range []int{1024, 4096, 65536} {
			b.Run(fmt.Sprintf("%s/%dB", fl, size), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					v, err := vmmc.Bidirectional(fl, cfg, size, 15)
					if err != nil {
						b.Fatal(err)
					}
					last = v
				}
				b.ReportMetric(last, "MB/s-total")
			})
		}
	}
}

// BenchmarkVerifyMemSafety regenerates the §5.3 verification statistics:
// exhaustively checking memory safety of the firmware's data path (the
// paper: 2251 states, 0.5 s, 2.2 MB).
func BenchmarkVerifyMemSafety(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		res, err := vmmc.VerifyMemSafety(vmmc.BugNone, esplang.VerifyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Violation != nil {
			b.Fatalf("violation: %v", res.Violation)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkVerifyFirmwareModel exhaustively checks the whole firmware
// model with a 2-message nondeterministic driver.
func BenchmarkVerifyFirmwareModel(b *testing.B) {
	cfg := nic.DefaultConfig()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := vmmc.VerifyFirmware(cfg, 2, esplang.VerifyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Violation != nil {
			b.Fatalf("violation: %v", res.Violation)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkVerifyRetrans checks the §5.3 retransmission protocol.
func BenchmarkVerifyRetrans(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		res, err := vmmc.VerifyRetrans(2, 3, false, esplang.VerifyOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Violation != nil {
			b.Fatalf("violation: %v", res.Violation)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// --- §6.1 runtime primitives and design ablations -------------------------

const probeSrc = `
type dataT = array of int
type msgT = record of { tag: int, data: dataT }
channel c: msgT
channel done: int external reader
process producer {
    $n = 0;
    while (n < 100) {
        $d: dataT = { 8 -> n};
        out( c, { n, d});
        unlink( d);
        n = n + 1;
    }
}
process consumer {
    $n = 0;
    while (n < 100) {
        in( c, { $tag, $data});
        unlink( data);
        n = n + 1;
    }
    out( done, 1);
}
`

func runProbe(b *testing.B, cfg esplang.MachineConfig) *esplang.Machine {
	b.Helper()
	prog, err := esplang.Compile(probeSrc, esplang.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m := prog.Machine(cfg)
	if err := m.BindReader("done", &esplang.CollectReader{}); err != nil {
		b.Fatal(err)
	}
	m.Run()
	if m.Fault() != nil {
		b.Fatalf("fault: %v", m.Fault())
	}
	return m
}

// BenchmarkContextSwitch measures the simulated cycle cost per message of
// the stack-less rendezvous pipeline (Table: overhead).
func BenchmarkContextSwitch(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		m := runProbe(b, esplang.MachineConfig{})
		cycles = m.Cycles
	}
	b.ReportMetric(float64(cycles)/100, "cycles/msg")
}

// BenchmarkAblationWaitQueues compares the paper's per-process bit-masks
// (§6.1) against per-pattern wait queues.
func BenchmarkAblationWaitQueues(b *testing.B) {
	b.Run("bitmask", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			cycles = runProbe(b, esplang.MachineConfig{}).Cycles
		}
		b.ReportMetric(float64(cycles)/100, "cycles/msg")
	})
	b.Run("waitqueues", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			cycles = runProbe(b, esplang.MachineConfig{UseWaitQueues: true}).Cycles
		}
		b.ReportMetric(float64(cycles)/100, "cycles/msg")
	})
}

// BenchmarkAblationDeepCopy compares refcount-based transfer (§6.2)
// against physical deep copies.
func BenchmarkAblationDeepCopy(b *testing.B) {
	b.Run("refcount", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			cycles = runProbe(b, esplang.MachineConfig{}).Cycles
		}
		b.ReportMetric(float64(cycles)/100, "cycles/msg")
	})
	b.Run("deepcopy", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			cycles = runProbe(b, esplang.MachineConfig{ForceDeepCopy: true}).Cycles
		}
		b.ReportMetric(float64(cycles)/100, "cycles/msg")
	})
}

// optProbeSrc exercises the §6.1 passes: constant expressions, copies
// through temporaries, constant branches, and a dead-source mutability
// cast.
const optProbeSrc = `
channel c: array of int
channel done: int external reader
process maker {
    $n = 0;
    while (n < 100) {
        $hdrWords = (16 + 4 * 2) / 4;
        $size = hdrWords;
        $total = size;
        $a: #array of int = #{ 4 -> total};
        if (true) { a[0] = total + 1 * 1; }
        out( c, immutable(a));
        n = n + 1;
    }
}
process user {
    $n = 0;
    while (n < 100) {
        in( c, $d);
        assert( d[0] == 7);
        unlink( d);
        n = n + 1;
    }
    out( done, 1);
}
`

// BenchmarkAblationOptimizer compares compiled code size and simulated
// cycles with and without the §6.1 IR passes (constant folding, copy
// propagation, DCE, cast reuse).
func BenchmarkAblationOptimizer(b *testing.B) {
	run := func(b *testing.B, opts esplang.CompileOptions) {
		var instrs int
		var cycles int64
		for i := 0; i < b.N; i++ {
			prog, err := esplang.Compile(optProbeSrc, opts)
			if err != nil {
				b.Fatal(err)
			}
			instrs = prog.Stats().Instructions
			m := prog.Machine(esplang.MachineConfig{})
			if err := m.BindReader("done", &esplang.CollectReader{}); err != nil {
				b.Fatal(err)
			}
			m.Run()
			if m.Fault() != nil {
				b.Fatalf("fault: %v", m.Fault())
			}
			cycles = m.Cycles
		}
		b.ReportMetric(float64(instrs), "IR-instrs")
		b.ReportMetric(float64(cycles)/100, "cycles/msg")
	}
	b.Run("optimized", func(b *testing.B) { run(b, esplang.CompileOptions{}) })
	b.Run("unoptimized", func(b *testing.B) { run(b, esplang.CompileOptions{NoOptimize: true}) })
}

// BenchmarkCompiler measures compiler throughput on the VMMC firmware.
func BenchmarkCompiler(b *testing.B) {
	src := vmmc.ESPSource(nic.DefaultConfig())
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := esplang.Compile(src, esplang.CompileOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmit measures the compiler's text outputs on the VMMC
// firmware: the C, the Promela and the IR disassembly, compiled with a
// file name so the C carries #line directives and the Promela location
// comments.
func BenchmarkEmit(b *testing.B) {
	prog, err := esplang.Compile(vmmc.ESPSource(nic.DefaultConfig()), esplang.CompileOptions{Name: "vmmcESP", File: "vmmcESP"})
	if err != nil {
		b.Fatal(err)
	}
	for _, out := range []struct {
		name string
		emit func() string
	}{
		{"C", func() string { return prog.C(esplang.COptions{}) }},
		{"Promela", func() string { return prog.Promela(esplang.PromelaOptions{}) }},
		{"Disasm", prog.Disasm},
	} {
		b.Run(out.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				emitted = out.emit()
			}
			b.SetBytes(int64(len(emitted)))
		})
	}
}

// emitted keeps BenchmarkEmit's output alive, so the compiler cannot drop
// the call.
var emitted string

// BenchmarkVMThroughput measures host-side interpreter speed (messages
// per host-second through the probe pipeline).
func BenchmarkVMThroughput(b *testing.B) {
	prog, err := esplang.Compile(probeSrc, esplang.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := prog.Machine(esplang.MachineConfig{})
		if err := m.BindReader("done", &esplang.CollectReader{}); err != nil {
			b.Fatal(err)
		}
		m.Run()
	}
}

// execSrc is an exec-bound program: 400 int messages with arithmetic
// between them, so instruction dispatch and per-event recording dominate
// rather than heap traffic or a NIC simulation.
const execSrc = `
channel c: int
channel done: int external reader
process producer {
    $n = 0;
    $acc = 1;
    while (n < 400) {
        acc = (acc * 3) % 9973;
        acc = acc + n;
        out( c, acc);
        n = n + 1;
    }
}
process consumer {
    $n = 0;
    $sum = 0;
    while (n < 400) {
        in( c, $v);
        sum = sum + v;
        n = n + 1;
    }
    out( done, sum);
}
`

// BenchmarkRecorderOverhead measures the flight recorder's hot-path cost
// on each engine, the number held to the ≤10% leave-it-on budget. Every
// iteration runs execSrc once without and once with a recorder, so a
// drift in machine speed hits both runs of a pair alike; overhead-% is
// 100 × (median of the per-iteration on/off time ratios − 1), and the
// median drops pairs a scheduler hiccup hit. One recorder is reused
// across runs, as a long-lived deployment keeps one ring, so ring
// construction is not part of the cost.
func BenchmarkRecorderOverhead(b *testing.B) {
	prog, err := esplang.Compile(execSrc, esplang.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, engine := range []esplang.Engine{esplang.EngineBaseline, esplang.EngineFused} {
		b.Run(engine.String(), func(b *testing.B) {
			rec := obs.NewFlightRecorder(0)
			run := func(r *obs.FlightRecorder) (*esplang.Machine, *esplang.CollectReader, time.Duration) {
				done := &esplang.CollectReader{}
				start := time.Now()
				m := prog.Machine(esplang.MachineConfig{Engine: engine})
				if r != nil {
					m.SetRecorder(r)
				}
				if err := m.BindReader("done", done); err != nil {
					b.Fatal(err)
				}
				m.Run()
				return m, done, time.Since(start)
			}
			ratios := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				off, offDone, offT := run(nil)
				on, onDone, onT := run(rec)
				for _, m := range []*esplang.Machine{off, on} {
					if f := m.Fault(); f != nil {
						b.Fatal(f)
					}
				}
				if on.Stats != off.Stats || on.Cycles != off.Cycles ||
					len(onDone.Values) != 1 || len(offDone.Values) != 1 ||
					onDone.Values[0].Scalar != offDone.Values[0].Scalar {
					b.Fatalf("the recorder changed the run: stats %+v cycles %d done %v, without it %+v, %d, %v",
						on.Stats, on.Cycles, onDone.Values, off.Stats, off.Cycles, offDone.Values)
				}
				ratios = append(ratios, float64(onT)/float64(offT))
			}
			sort.Float64s(ratios)
			b.ReportMetric(100*(ratios[len(ratios)/2]-1), "overhead-%")
		})
	}
}
