// Command benchrec records the PR's headline benchmarks — the Figure 5
// firmware workloads and the §5.3 verification runs — under both
// execution engines and writes the numbers (ns/op, allocs/op,
// verifier states and states/sec, and the cross-engine speedups) to a
// JSON file, so performance claims are checked in, reproducible, and
// easy to diff across commits:
//
// It also measures the flight recorder's hot-path overhead (the
// VMThroughput workload with and without a recorder attached).
//
// The verification workloads also run under ample-set partial-order
// reduction ("<workload>/por"); the "<workload>/por_state_reduction"
// speedup entry records the full-search/reduced-search state ratio.
//
//	go run ./cmd/benchrec -out BENCH_PR10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/nic"
	"esplang/internal/obs"
	"esplang/internal/vmmc"
)

// Bench is one recorded benchmark run.
type Bench struct {
	Name        string             `json:"name"`
	Engine      string             `json:"engine"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file layout of BENCH_PR10.json. SeedBenches (present
// when scripts/bench.sh was given a -seed ref) holds the repo's own `go
// test -bench` numbers at an earlier commit, run on the same machine.
type Report struct {
	GOOS    string  `json:"goos"`
	GOARCH  string  `json:"goarch"`
	NumCPU  int     `json:"num_cpu"`
	Benches []Bench `json:"benchmarks"`
	// Speedups is the one ratio map: "<workload>/fused_over_baseline",
	// "<workload>/<tier>_over_seed" against SeedBenches, and
	// "<workload>/por_state_reduction".
	Speedups map[string]float64 `json:"speedups"`
	// RecorderOverhead is the flight recorder's hot-path cost per engine:
	// VMThroughput/recorder over plain VMThroughput, as a percentage —
	// the median of interleaved per-round ratios (see recordPair), so it
	// is drift-corrected and may differ slightly from the ratio of the
	// two best-of-N ns_per_op entries above.
	RecorderOverhead map[string]float64 `json:"recorder_overhead_pct,omitempty"`
	SeedBenches      []Bench            `json:"seed_benchmarks,omitempty"`
}

// seedNames maps the pre-PR repo benchmark names (as printed by `go test
// -bench` at the seed commit) to this tool's workload names.
var seedNames = map[string]string{
	"BenchmarkFig5aLatency/vmmcESP/64B":     "Fig5aLatency/64B",
	"BenchmarkFig5aLatency/vmmcESP/4096B":   "Fig5aLatency/4096B",
	"BenchmarkFig5bBandwidth/vmmcESP/1024B": "Fig5bBandwidth/1024B",
	"BenchmarkVerifyMemSafety":              "VerifyMemSafety",
	"BenchmarkVerifyFirmwareModel":          "VerifyFirmwareModel",
}

// parseSeedBench reads `go test -bench` output from the seed commit and
// returns the runs it recognizes, renamed to this tool's workload names.
func parseSeedBench(path string) ([]Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Bench
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		name, ok := seedNames[strings.TrimRight(f[0], "-0123456789")]
		if !ok {
			continue
		}
		b := Bench{Name: name, Engine: "seed", Metrics: map[string]float64{}}
		fmt.Sscanf(f[1], "%d", &b.Iterations)
		fmt.Sscanf(f[2], "%f", &b.NsPerOp)
		for i := 4; i+1 < len(f); i += 2 {
			var v float64
			if _, err := fmt.Sscanf(f[i], "%f", &v); err == nil {
				b.Metrics[f[i+1]] = v
			}
		}
		if states, ok := b.Metrics["states"]; ok && b.NsPerOp > 0 {
			b.Metrics["states/sec"] = states / (b.NsPerOp / 1e9)
		}
		out = append(out, b)
	}
	return out, nil
}

// workload is one benchmark body, parameterized by engine (vmmc.Engine
// is set by the caller before the run; vo carries it to the verifier).
type workload struct {
	name string
	run  func(b *testing.B, engine esplang.Engine, vo esplang.VerifyOptions)
}

// vmSrc is the exec-bound workload: a rendezvous loop with arithmetic
// between communications, so the instruction-dispatch cost the fused
// engine removes dominates instead of the NIC simulation.
const vmSrc = `
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

var vmProg *esplang.Program

func vmProgram(b *testing.B) *esplang.Program {
	if vmProg == nil {
		p, err := esplang.Compile(vmSrc, esplang.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		vmProg = p
	}
	return vmProg
}

var workloads = []workload{
	{"VMThroughput", func(b *testing.B, engine esplang.Engine, _ esplang.VerifyOptions) {
		prog := vmProgram(b)
		for i := 0; i < b.N; i++ {
			m := prog.Machine(esplang.MachineConfig{Engine: engine})
			if err := m.BindReader("done", &esplang.CollectReader{}); err != nil {
				b.Fatal(err)
			}
			m.Run()
			if f := m.Fault(); f != nil {
				b.Fatal(f)
			}
		}
	}},
	{"VMThroughput/recorder", func(b *testing.B, engine esplang.Engine, _ esplang.VerifyOptions) {
		// The same workload with a flight recorder attached; the gap to
		// plain VMThroughput is the recorder's hot-path overhead. The
		// recorder is reused across runs (the production pattern — one
		// long-lived ring per deployment) so the measurement is the
		// recording cost, not ring construction.
		prog := vmProgram(b)
		rec := obs.NewFlightRecorder(0)
		for i := 0; i < b.N; i++ {
			m := prog.Machine(esplang.MachineConfig{Engine: engine})
			m.SetRecorder(rec)
			if err := m.BindReader("done", &esplang.CollectReader{}); err != nil {
				b.Fatal(err)
			}
			m.Run()
			if f := m.Fault(); f != nil {
				b.Fatal(f)
			}
		}
	}},
	{"Fig5aLatency/64B", func(b *testing.B, _ esplang.Engine, _ esplang.VerifyOptions) {
		cfg := nic.DefaultConfig()
		var last float64
		for i := 0; i < b.N; i++ {
			v, err := vmmc.PingPong(vmmc.ESP, cfg, 64, 40)
			if err != nil {
				b.Fatal(err)
			}
			last = v
		}
		b.ReportMetric(last/1000, "us-latency")
	}},
	{"Fig5aLatency/4096B", func(b *testing.B, _ esplang.Engine, _ esplang.VerifyOptions) {
		cfg := nic.DefaultConfig()
		var last float64
		for i := 0; i < b.N; i++ {
			v, err := vmmc.PingPong(vmmc.ESP, cfg, 4096, 40)
			if err != nil {
				b.Fatal(err)
			}
			last = v
		}
		b.ReportMetric(last/1000, "us-latency")
	}},
	{"Fig5bBandwidth/1024B", func(b *testing.B, _ esplang.Engine, _ esplang.VerifyOptions) {
		cfg := nic.DefaultConfig()
		var last float64
		for i := 0; i < b.N; i++ {
			v, err := vmmc.OneWay(vmmc.ESP, cfg, 1024, 30)
			if err != nil {
				b.Fatal(err)
			}
			last = v
		}
		b.ReportMetric(last, "MB/s")
	}},
	{"Fig5cBidirectional/1024B", func(b *testing.B, _ esplang.Engine, _ esplang.VerifyOptions) {
		cfg := nic.DefaultConfig()
		var last float64
		for i := 0; i < b.N; i++ {
			v, err := vmmc.Bidirectional(vmmc.ESP, cfg, 1024, 15)
			if err != nil {
				b.Fatal(err)
			}
			last = v
		}
		b.ReportMetric(last, "MB/s-total")
	}},
	{"VerifyMemSafety", func(b *testing.B, _ esplang.Engine, vo esplang.VerifyOptions) {
		var states int
		for i := 0; i < b.N; i++ {
			res, err := vmmc.VerifyMemSafety(vmmc.BugNone, vo)
			if err != nil {
				b.Fatal(err)
			}
			if res.Violation != nil {
				b.Fatalf("violation: %v", res.Violation)
			}
			states = res.States
		}
		b.ReportMetric(float64(states), "states")
	}},
	{"VerifyFirmwareModel", func(b *testing.B, _ esplang.Engine, vo esplang.VerifyOptions) {
		cfg := nic.DefaultConfig()
		var states int
		for i := 0; i < b.N; i++ {
			res, err := vmmc.VerifyFirmware(cfg, 2, vo)
			if err != nil {
				b.Fatal(err)
			}
			if res.Violation != nil {
				b.Fatalf("violation: %v", res.Violation)
			}
			states = res.States
		}
		b.ReportMetric(float64(states), "states")
	}},
	{"VerifyMemSafety/por", func(b *testing.B, _ esplang.Engine, vo esplang.VerifyOptions) {
		vo.Reduction = esplang.AmpleSets
		var states int
		for i := 0; i < b.N; i++ {
			res, err := vmmc.VerifyMemSafety(vmmc.BugNone, vo)
			if err != nil {
				b.Fatal(err)
			}
			if res.Violation != nil {
				b.Fatalf("violation: %v", res.Violation)
			}
			states = res.States
		}
		b.ReportMetric(float64(states), "states")
	}},
	{"VerifyFirmwareModel/por", func(b *testing.B, _ esplang.Engine, vo esplang.VerifyOptions) {
		// The PR10 headline: the same firmware verification under
		// ample-set partial-order reduction. The states metric is the one
		// that matters — the "/por_state_reduction" speedup entry records
		// how many fewer states the reduced search visits for the same
		// verdict.
		vo.Reduction = esplang.AmpleSets
		cfg := nic.DefaultConfig()
		var states int
		for i := 0; i < b.N; i++ {
			res, err := vmmc.VerifyFirmware(cfg, 2, vo)
			if err != nil {
				b.Fatal(err)
			}
			if res.Violation != nil {
				b.Fatalf("violation: %v", res.Violation)
			}
			states = res.States
		}
		b.ReportMetric(float64(states), "states")
	}},
}

func findWorkload(name string) workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return workload{}
}

func runOnce(wl workload, engine esplang.Engine, vo esplang.VerifyOptions) testing.BenchmarkResult {
	runtime.GC()
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		wl.run(b, engine, vo)
	})
}

// record runs one workload under one engine `repeat` times and keeps the
// fastest run: best-of-N is the standard defense against scheduler and
// frequency noise on shared machines, and both engines get the same
// treatment so the ratio stays fair.
func record(name string, engine esplang.Engine, repeat int) Bench {
	vmmc.Engine = engine
	vo := esplang.VerifyOptions{Engine: engine}
	wl := findWorkload(name)
	var r testing.BenchmarkResult
	for i := 0; i < repeat; i++ {
		got := runOnce(wl, engine, vo)
		if i == 0 || got.NsPerOp() < r.NsPerOp() {
			r = got
		}
	}
	return toBench(name, engine, r)
}

// recordPair measures two workloads with their repeats interleaved
// (off, on, off, on, ...) instead of all-off-then-all-on. For the
// recorder-overhead pair the on/off *ratio* is the reported number, and
// machine-speed drift — routine on shared runners — would bias a
// sequential measurement. The returned ratio is the median of the
// per-round on/off ratios: each round's two runs are seconds apart, so
// drift cancels within a round, and the median discards rounds hit by
// a scheduler hiccup. (Dividing two independent best-of-N values does
// neither — the bests can come from different drift windows.) The
// returned Benches are still best-of-N like every other workload.
func recordPair(offName, onName string, engine esplang.Engine, repeat int) (Bench, Bench, float64) {
	vmmc.Engine = engine
	vo := esplang.VerifyOptions{Engine: engine}
	offW, onW := findWorkload(offName), findWorkload(onName)
	var offR, onR testing.BenchmarkResult
	ratios := make([]float64, 0, repeat)
	for i := 0; i < repeat; i++ {
		offGot := runOnce(offW, engine, vo)
		onGot := runOnce(onW, engine, vo)
		ratios = append(ratios, float64(onGot.NsPerOp())/float64(offGot.NsPerOp()))
		if i == 0 || offGot.NsPerOp() < offR.NsPerOp() {
			offR = offGot
		}
		if i == 0 || onGot.NsPerOp() < onR.NsPerOp() {
			onR = onGot
		}
	}
	sort.Float64s(ratios)
	return toBench(offName, engine, offR), toBench(onName, engine, onR), ratios[len(ratios)/2]
}

func toBench(name string, engine esplang.Engine, r testing.BenchmarkResult) Bench {
	rec := Bench{
		Name:        name,
		Engine:      engine.String(),
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Metrics:     map[string]float64{},
	}
	for k, v := range r.Extra {
		if k == "allocs/op" || k == "B/op" {
			continue
		}
		rec.Metrics[k] = v
	}
	if states, ok := rec.Metrics["states"]; ok && rec.NsPerOp > 0 {
		rec.Metrics["states/sec"] = states / (rec.NsPerOp / 1e9)
	}
	return rec
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output JSON path")
	repeat := flag.Int("repeat", 5, "runs per benchmark; the fastest is recorded")
	seedBench := flag.String("seed-bench", "", "optional `go test -bench` output from the pre-PR commit to compare against")
	engineList := flag.String("engines", "baseline,fused",
		"comma-separated engine tiers to record")
	only := flag.String("workloads", "",
		"comma-separated workload name prefixes to record (default all)")
	flag.Parse()

	wanted := func(name string) bool {
		if *only == "" {
			return true
		}
		for _, p := range strings.Split(*only, ",") {
			if p = strings.TrimSpace(p); p != "" && strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}

	var engines []esplang.Engine
	for _, name := range strings.Split(*engineList, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		engine, err := esplang.ParseEngine(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrec: %v\n", err)
			os.Exit(1)
		}
		engines = append(engines, engine)
	}

	rep := Report{
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		NumCPU:   runtime.NumCPU(),
		Speedups: map[string]float64{},
	}
	byKey := map[string]Bench{}
	recRatio := map[string]float64{}
	report := func(rec Bench) {
		rep.Benches = append(rep.Benches, rec)
		byKey[rec.Name+"/"+rec.Engine] = rec
		fmt.Printf("%-28s %-9s %12.0f ns/op %8d allocs/op", rec.Name, rec.Engine, rec.NsPerOp, rec.AllocsPerOp)
		for k, v := range rec.Metrics {
			fmt.Printf("  %s=%.1f", k, v)
		}
		fmt.Println()
	}
	for _, wl := range workloads {
		if !wanted(wl.name) {
			continue
		}
		switch wl.name {
		case "VMThroughput":
			// The recorder-overhead pair is measured interleaved (see
			// recordPair) because its on/off ratio is the headline number.
			for _, engine := range engines {
				off, on, ratio := recordPair("VMThroughput", "VMThroughput/recorder", engine, *repeat)
				report(off)
				report(on)
				recRatio[engine.String()] = ratio
			}
		case "VMThroughput/recorder":
			// Recorded pairwise with VMThroughput above.
		default:
			for _, engine := range engines {
				report(record(wl.name, engine, *repeat))
			}
		}
	}
	for _, wl := range workloads {
		base, fused := byKey[wl.name+"/baseline"], byKey[wl.name+"/fused"]
		if base.NsPerOp > 0 && fused.NsPerOp > 0 {
			rep.Speedups[wl.name+"/fused_over_baseline"] = base.NsPerOp / fused.NsPerOp
		}
	}
	// POR state reduction: full-search states over ample-set states for
	// each verification workload. The state counts are engine-independent
	// (the reduction is a property of the search, not the execution
	// tier), so the first tier with both runs recorded is reported.
	for _, wl := range workloads {
		porName := wl.name + "/por"
		if findWorkload(porName).run == nil {
			continue
		}
		for _, engine := range engines {
			e := engine.String()
			full, por := byKey[wl.name+"/"+e], byKey[porName+"/"+e]
			if fs, ps := full.Metrics["states"], por.Metrics["states"]; fs > 0 && ps > 0 {
				rep.Speedups[wl.name+"/por_state_reduction"] = fs / ps
				break
			}
		}
	}
	rep.RecorderOverhead = map[string]float64{}
	for _, engine := range engines {
		e := engine.String()
		if ratio, ok := recRatio[e]; ok {
			rep.RecorderOverhead[e] = (ratio - 1) * 100
			fmt.Printf("recorder-overhead %-10s %+.1f%%\n", e, rep.RecorderOverhead[e])
		}
	}
	if *seedBench != "" {
		seeds, err := parseSeedBench(*seedBench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrec: seed bench: %v\n", err)
			os.Exit(1)
		}
		rep.SeedBenches = seeds
		for _, s := range seeds {
			if b := byKey[s.Name+"/fused"]; s.NsPerOp > 0 && b.NsPerOp > 0 {
				rep.Speedups[s.Name+"/fused_over_seed"] = s.NsPerOp / b.NsPerOp
			}
		}
	}
	var keys []string
	for k := range rep.Speedups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("speedup %-44s %.2fx\n", k, rep.Speedups[k])
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrec: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrec: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
