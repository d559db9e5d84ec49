// Command vmmcbench regenerates every figure and table of the paper's
// evaluation (§4.6, §5.3, §6.2) on the simulated Myrinet testbed:
//
//	vmmcbench -fig 5a      one-way latency vs message size (Figure 5a)
//	vmmcbench -fig 5b      one-way bandwidth vs message size (Figure 5b)
//	vmmcbench -fig 5c      bidirectional bandwidth vs message size (Figure 5c)
//	vmmcbench -table loc   lines-of-code comparison (§4.6)
//	vmmcbench -table verify verification statistics (§5.3)
//	vmmcbench -table overhead runtime primitive costs and ablations (§6.1/§6.2)
//	vmmcbench -all         everything
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	esplang "esplang"
	"esplang/internal/nic"
	"esplang/internal/obs"
	"esplang/internal/vmmc"
)

var flavors = []vmmc.Flavor{vmmc.ESP, vmmc.Orig, vmmc.OrigNoFastPaths}

// mcWorkers is the -mc-workers flag: the worker-pool size the §5.3
// verification runs hand to the model checker.
var mcWorkers int

// mcMetrics, when -telemetry is set, routes the §5.3 verification
// searches' counters into the telemetry registry.
var mcMetrics *obs.Metrics

func main() {
	var (
		fig   = flag.String("fig", "", "figure to regenerate: 5a, 5b, 5c")
		table = flag.String("table", "", "table to regenerate: loc, verify, overhead")
		all   = flag.Bool("all", false, "regenerate everything")
		count = flag.Int("count", 40, "messages per bandwidth measurement")
		round = flag.Int("rounds", 20, "round trips per latency measurement")
		mcW   = flag.Int("mc-workers", 0, "verification tables: parallel model-checker workers (0 = all cores)")
		trace = flag.String("trace", "", "run one traced ESP ping-pong and write its Chrome trace-event JSON here (open in Perfetto)")
		prof  = flag.Bool("profile", false, "run one traced ESP ping-pong and print the firmware's hot-line cycle profile")
		tsize = flag.Int("trace-size", 1024, "message size for -trace/-profile")
		telem = flag.String("telemetry", "", "serve live telemetry on this address (e.g. 127.0.0.1:9464): every cluster the run builds feeds one /metrics registry")
	)
	flag.Parse()
	for _, f := range []struct {
		name string
		v    int
	}{{"rounds", *round}, {"count", *count}, {"trace-size", *tsize}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "vmmcbench: -%s must be at least 1, got %d\n", f.name, f.v)
			os.Exit(2)
		}
	}
	if *mcW < 0 {
		fmt.Fprintf(os.Stderr, "vmmcbench: -mc-workers must not be negative, got %d\n", *mcW)
		os.Exit(2)
	}
	mcWorkers = *mcW

	if *telem != "" {
		// One registry aggregates every cluster built during the run (the
		// vmmc.Metrics package hook) and the §5.3 verification searches.
		reg := obs.NewMetrics()
		vmmc.Metrics = reg
		mcMetrics = reg
		srv, err := obs.NewServer(*telem, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vmmcbench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		srv.SetStatus(func(w io.Writer) {
			fmt.Fprintln(w, "campaign: vmmcbench")
		})
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s\n", srv.Addr())
	}

	if *trace != "" || *prof {
		traceRun(*trace, *prof, *tsize, *round)
		if *fig == "" && *table == "" && !*all {
			return
		}
	}

	if *all {
		fig5a(*round)
		fig5b(*count)
		fig5c(*count)
		tableLoc()
		tableVerify()
		tableOverhead()
		return
	}
	ran := false
	switch *fig {
	case "5a":
		fig5a(*round)
		ran = true
	case "5b":
		fig5b(*count)
		ran = true
	case "5c":
		fig5c(*count)
		ran = true
	case "":
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	switch *table {
	case "loc":
		tableLoc()
		ran = true
	case "verify":
		tableVerify()
		ran = true
	case "overhead":
		tableOverhead()
		ran = true
	case "":
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
	if !ran {
		flag.PrintDefaults()
		os.Exit(2)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmmcbench: %v\n", err)
		os.Exit(1)
	}
}

// traceRun runs one fully observed ESP ping-pong (the Figure 5a workload)
// and writes the timeline and/or prints the firmware cycle profile.
func traceRun(tracePath string, profile bool, size, rounds int) {
	lat, tr, p, _, err := vmmc.TracePingPong(vmmc.ESP, nic.DefaultConfig(), size, rounds)
	die(err)
	fmt.Printf("traced ESP ping-pong: %d B, %d rounds, %.1f us one-way\n", size, rounds, lat/1000)
	if tracePath != "" {
		f, err := os.Create(tracePath)
		die(err)
		err = tr.Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		die(err)
		fmt.Printf("wrote %d trace events to %s\n", tr.Len(), tracePath)
	}
	if profile {
		fmt.Print(p.Report(vmmc.ESPSource(nic.DefaultConfig()), 10))
		fmt.Print(p.KindTable())
	}
	fmt.Println()
}

var latencySizes = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
var bwSizes = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}

func fig5a(rounds int) {
	fmt.Println("Figure 5(a): one-way latency (us) vs message size")
	fmt.Printf("%8s %12s %12s %22s\n", "size", "vmmcESP", "vmmcOrig", "vmmcOrigNoFastPaths")
	cfg := nic.DefaultConfig()
	for _, size := range latencySizes {
		row := [3]float64{}
		for i, fl := range flavors {
			v, err := vmmc.PingPong(fl, cfg, size, rounds)
			die(err)
			row[i] = v / 1000
		}
		fmt.Printf("%8d %12.1f %12.1f %22.1f\n", size, row[0], row[1], row[2])
	}
	fmt.Println()
}

func fig5b(count int) {
	fmt.Println("Figure 5(b): one-way bandwidth (MB/s) vs message size")
	fmt.Printf("%8s %12s %12s %22s\n", "size", "vmmcESP", "vmmcOrig", "vmmcOrigNoFastPaths")
	cfg := nic.DefaultConfig()
	for _, size := range bwSizes {
		row := [3]float64{}
		for i, fl := range flavors {
			v, err := vmmc.OneWay(fl, cfg, size, count)
			die(err)
			row[i] = v
		}
		fmt.Printf("%8d %12.1f %12.1f %22.1f\n", size, row[0], row[1], row[2])
	}
	fmt.Println()
}

func fig5c(count int) {
	fmt.Println("Figure 5(c): bidirectional bandwidth (MB/s, total) vs message size")
	fmt.Printf("%8s %12s %12s %22s\n", "size", "vmmcESP", "vmmcOrig", "vmmcOrigNoFastPaths")
	cfg := nic.DefaultConfig()
	for _, size := range bwSizes {
		row := [3]float64{}
		for i, fl := range flavors {
			v, err := vmmc.Bidirectional(fl, cfg, size, max(count/2, 1))
			die(err)
			row[i] = v
		}
		fmt.Printf("%8d %12.1f %12.1f %22.1f\n", size, row[0], row[1], row[2])
	}
	fmt.Println()
}

func tableLoc() {
	fmt.Println("Table: lines of code (§4.6)")
	cfg := nic.DefaultConfig()
	prog, err := esplang.Compile(vmmc.ESPSource(cfg), esplang.CompileOptions{})
	die(err)
	s := prog.Stats()
	fmt.Printf("  %-34s %8s %10s\n", "", "paper", "this repo")
	fmt.Printf("  %-34s %8d %10d\n", "ESP firmware lines", 500, s.SourceLines)
	fmt.Printf("  %-34s %8d %10d\n", "  of which declarations", 200, s.DeclLines)
	fmt.Printf("  %-34s %8d %10d\n", "  of which process code", 300, s.ProcessLines)
	fmt.Printf("  %-34s %8d %10d\n", "processes", 7, s.Processes)
	fmt.Printf("  %-34s %8d %10d\n", "channels", 17, s.Channels)
	fmt.Printf("  %-34s %8s %10s\n", "helper code (C / Go bridge)", "~3000 C", "see espfw.go")
	fmt.Printf("  %-34s %8s %10s\n", "original firmware", "15600 C", "orig.go")
	fmt.Println()
}

func tableVerify() {
	fmt.Println("Table: verification statistics (§5.3)")
	cfg := nic.DefaultConfig()
	vo := esplang.VerifyOptions{Workers: mcWorkers, Metrics: mcMetrics}

	res, err := vmmc.VerifyFirmware(cfg, 2, vo)
	die(err)
	fmt.Printf("  firmware model, 2 msgs (exhaustive):  %s\n", res)
	fmt.Println("    paper: biggest process 2251 states, 0.5 s, 2.2 MB")

	res, err = vmmc.VerifyRetrans(2, 3, false, vo)
	die(err)
	fmt.Printf("  retransmission protocol:              %s\n", res)

	res, err = vmmc.VerifyRetrans(2, 3, true, vo)
	die(err)
	fmt.Printf("  retransmission protocol, seeded bug:  %s\n", res)

	for _, bug := range []vmmc.MemBug{vmmc.BugNone, vmmc.BugLeak, vmmc.BugUseAfterFree, vmmc.BugDoubleFree} {
		res, err = vmmc.VerifyMemSafety(bug, vo)
		die(err)
		fmt.Printf("  memory safety (%-14s):        %s\n", bug, res)
	}
	fmt.Println("    paper: seeded memory bugs were found in every case")
	fmt.Println()
}

// overheadProbe is a small ESP program exercising the runtime primitives.
const overheadProbe = `
type dataT = array of int
type msgT = record of { tag: int, data: dataT }
channel c: msgT
channel done: int external reader
process producer {
    $n = 0;
    while (n < 200) {
        $d: dataT = { 8 -> n};
        out( c, { n, d});
        unlink( d);
        n = n + 1;
    }
}
process consumer {
    $n = 0;
    while (n < 200) {
        in( c, { $tag, $data});
        unlink( data);
        n = n + 1;
    }
    out( done, 1);
}
`

// optProbe exercises the optimizer: constant expressions, copies through
// temporaries, constant branches, and a dead-source mutability cast.
const optProbe = `
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

func runProbe(cfg esplang.MachineConfig) *esplang.Machine {
	prog, err := esplang.Compile(overheadProbe, esplang.CompileOptions{})
	die(err)
	m := prog.Machine(cfg)
	die(m.BindReader("done", &esplang.CollectReader{}))
	m.Run()
	if m.Fault() != nil {
		die(fmt.Errorf("probe fault: %v", m.Fault()))
	}
	return m
}

func tableOverhead() {
	fmt.Println("Table: runtime primitive costs and ablations (§6.1, §6.2)")

	base := runProbe(esplang.MachineConfig{})
	fmt.Printf("  default (bit-masks, refcount transfer):   %8d cycles, %d instrs, %d ctx switches\n",
		base.Cycles, base.Stats.Instrs, base.Stats.CtxSwitches)
	fmt.Printf("    events: %s\n", base.Stats)

	q := runProbe(esplang.MachineConfig{UseWaitQueues: true})
	fmt.Printf("  ablation: per-pattern wait queues (§6.1): %8d cycles (%+.1f%%), %d queue ops\n",
		q.Cycles, pct(q.Cycles, base.Cycles), q.Stats.QueueOps)

	d := runProbe(esplang.MachineConfig{ForceDeepCopy: true})
	fmt.Printf("  ablation: physical deep copies (§6.2):    %8d cycles (%+.1f%%), %d words copied\n",
		d.Cycles, pct(d.Cycles, base.Cycles), d.Stats.DeepCopied)

	// Optimizer ablation: instruction counts with and without the §6.1
	// passes, on a probe with foldable expressions, copies, and a
	// dead-source mutability cast.
	progOpt, err := esplang.Compile(optProbe, esplang.CompileOptions{})
	die(err)
	progRaw, err := esplang.Compile(optProbe, esplang.CompileOptions{NoOptimize: true})
	die(err)
	fmt.Printf("  ablation: IR optimizations off:           %8d -> %d IR instructions\n",
		progRaw.Stats().Instructions, progOpt.Stats().Instructions)

	fmt.Printf("  context switch: program counter only (%d cycles); rendezvous %d cycles\n",
		5, 8)
	fmt.Println()
}

func pct(a, b int64) float64 {
	return (float64(a)/float64(b) - 1) * 100
}
