package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	esplang "esplang"
	"esplang/internal/fuzz"
	"esplang/internal/obs"
	"esplang/internal/vmmc"
)

var update = flag.Bool("update", false, "rewrite testdata/fig5.golden from the public drivers")

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestFig5Golden checks the golden table against vmmc's public drivers;
// -update rewrites it.
func TestFig5Golden(t *testing.T) {
	cases := fig5Sweep(vmmc.ESP, vmmc.Orig, vmmc.OrigNoFastPaths)
	var b strings.Builder
	b.WriteString("# Simulated Fig. 5 results: <flavor> <driver> <bytes> <value>. Ping-pong\n")
	b.WriteString("# values are one-way latency in ns, oneway and bidir values bandwidth in\n")
	b.WriteString("# MB/s, each the exact float64 the public vmmc driver returns.\n")
	got := map[string]float64{}
	for _, c := range cases {
		v, err := c.runPublic()
		if err != nil {
			t.Fatal(err)
		}
		got[c.key()] = v
		fmt.Fprintf(&b, "%s %s\n", c.key(), strconv.FormatFloat(v, 'g', -1, 64))
	}
	if *update {
		if err := os.WriteFile("testdata/fig5.golden", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := parseGolden(fig5GoldenText)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden has %d entries, the sweep %d", len(want), len(cases))
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: driver %v, golden %v", k, v, want[k])
		}
	}
	if v := want["vmmcESP pingpong 64"]; v != 35394.375 {
		t.Errorf("64 B vmmcESP ping-pong = %v ns, want 35394.375", v)
	}
}

// runs caches one run of every workload: untraced, and traced twice, all
// at seed 1 with one timed operation of each kind.
var runs struct {
	once   sync.Once
	err    error
	plain  map[string]*runRecord
	traced [2]map[string]*runRecord
	tracer map[string]*tracer
}

func workloadRuns(t *testing.T) {
	t.Helper()
	root := testRoot(t)
	runs.once.Do(func() {
		runs.plain = map[string]*runRecord{}
		runs.tracer = map[string]*tracer{}
		runs.traced = [2]map[string]*runRecord{{}, {}}
		for _, w := range workloads {
			cfg := runConfig{seed: 1, ops: 1, root: root}
			rec, _, err := runWorkload(w.name, cfg)
			if err != nil {
				runs.err = err
				return
			}
			runs.plain[w.name] = rec
			cfg.trace = true
			for i := range runs.traced {
				rec, tr, err := runWorkload(w.name, cfg)
				if err != nil {
					runs.err = err
					return
				}
				runs.traced[i][w.name] = rec
				runs.tracer[w.name] = tr
			}
		}
	})
	if runs.err != nil {
		t.Fatal(runs.err)
	}
}

func TestEveryWorkloadRunsClean(t *testing.T) {
	workloadRuns(t)
	for _, w := range workloads {
		for _, rec := range []*runRecord{runs.plain[w.name], runs.traced[0][w.name], runs.traced[1][w.name]} {
			if rec.Failed != 0 {
				t.Errorf("%s (trace %v): %d failed: %v", w.name, rec.Trace, rec.Failed, rec.Errors)
			}
		}
		if s := runs.plain[w.name].Metrics["op_ms_best"]; !(s.Value > 0) || s.Value > s.Q3 {
			t.Errorf("%s: op_ms_best = %v, operation quartiles %v %v", w.name, s.Value, s.Q1, s.Q3)
		}
		if s := runs.plain[w.name].Metrics["setup_s"]; s.N != setupReps {
			t.Errorf("%s: %d set-ups, want %d", w.name, s.N, setupReps)
		}
	}
}

// isCount reports whether a per-layer metric is an exact count, which
// must repeat bit for bit; timings and Go runtime figures need not.
func isCount(m specMetric) bool {
	layer, _, _ := strings.Cut(m.Name, ".")
	if layer == "runtime" || layer == "trace" {
		return false
	}
	for _, p := range []string{"ns", "us", "ms"} {
		if m.Unit == p || strings.HasPrefix(m.Unit, p+"/") {
			return false
		}
	}
	return true
}

func TestCountsRepeat(t *testing.T) {
	workloadRuns(t)
	spec, err := loadSpec(testRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, w := range workloads {
		a, b := runs.traced[0][w.name].Metrics, runs.traced[1][w.name].Metrics
		for _, m := range spec.PerLayer {
			if !isCount(m) {
				continue
			}
			if _, ok := a[m.Name]; !ok {
				continue
			}
			checked++
			if a[m.Name] != b[m.Name] {
				t.Errorf("%s %s: %v then %v", w.name, m.Name, a[m.Name].Value, b[m.Name].Value)
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d counts compared", checked)
	}
}

func TestSeedChangesFuzzPrograms(t *testing.T) {
	root := testRoot(t)
	programs := func(seed int64) map[string]bool {
		b, err := setupCompileFuzz(env{seed: seed, root: root})
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for i := 0; i < fuzzPerOp; i++ {
			set[fuzz.Generate(b.(*compileFuzzBench).fuzzSeed(1, i)).Source] = true
		}
		return set
	}
	a, a2, b := programs(1), programs(1), programs(2)
	if !reflect.DeepEqual(a, a2) {
		t.Error("seed 1 chose two different program sets")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 chose the same program set")
	}
}

// TestFuzzPoolClean runs every program of the fuzz pool through the
// oracle: a compile-fuzz operation must never fail on a known toolchain
// bug.
func TestFuzzPoolClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole pool")
	}
	for s := int64(1); s <= fuzzPool; s++ {
		g := fuzz.Generate(s)
		if rep := fuzz.RunDifferential(g.Name(), g.Source, fuzzOpts); rep.Failed() {
			t.Errorf("seed %d: %s", s, rep.Key())
		}
	}
}

func TestTraceIsValidChrome(t *testing.T) {
	workloadRuns(t)
	var all []chromeEvent
	for i, w := range workloads {
		all = append(all, runs.tracer[w.name].chromeEvents(i+1, w.name)...)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, all); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n < 1000 {
		t.Errorf("trace has only %d events", n)
	}
}

// TestSelfTime checks the self-time arithmetic on a hand-built span tree.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.begin("a.outer")
	tr.begin("b.inner")
	tr.begin("c.leaf")
	tr.end()
	tr.end()
	tr.begin("b.inner")
	tr.end()
	outer := tr.end()
	a, b, c := tr.agg("a.outer"), tr.agg("b.inner"), tr.agg("c.leaf")
	if a.totalNs != outer || a.count != 1 || b.count != 2 || c.count != 1 {
		t.Fatalf("aggregates: %+v %+v %+v", a, b, c)
	}
	if a.selfNs+b.selfNs+c.selfNs != a.totalNs {
		t.Errorf("self times %d+%d+%d do not add up to the root's %d", a.selfNs, b.selfNs, c.selfNs, a.totalNs)
	}
	if b.selfNs != b.totalNs-c.totalNs {
		t.Errorf("b self %d, want %d", b.selfNs, b.totalNs-c.totalNs)
	}
}

// TestBestOp checks op_ms_best's arithmetic: each part's fastest time,
// weighted by its runs per operation.
func TestBestOp(t *testing.T) {
	p := partTimes{
		"a": {fastestNs: 2e6, runs: 4}, // in every one of 4 operations
		"b": {fastestNs: 1e6, runs: 4},
		"x": {fastestNs: 8e6, runs: 2}, // in half of them
		"y": {fastestNs: 4e6, runs: 2},
	}
	if got := p.bestOpMs(4); got != 9 {
		t.Errorf("bestOpMs = %v, want 2+1+(8+4)/2 = 9", got)
	}
	var none partTimes
	none.done("a", time.Now()) // a nil partTimes records nothing
}

func TestReplicaMatchesCheck(t *testing.T) {
	b, err := setupVerifyFull(env{seed: 1, root: testRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	vb := b.(*verifyBench)
	for i, c := range vb.checks {
		if !c.main {
			continue
		}
		res := vb.progs[i].Verify(esplang.VerifyOptions{Workers: 1, EndRecvOK: true, MaxLiveObjects: c.maxLive})
		n, _, err := replicaBFS(vb.progs[i], c.maxLive, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != res.States || n != c.states {
			t.Errorf("%s: replica %d states, mc.Check %d, reference %d", c.name, n, res.States, c.states)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code in
// step: the file names exactly the workloads the code implements and
// exactly the metrics the runs emit.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	workloadRuns(t)
	spec, err := loadSpec(testRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	var specW, codeW []string
	for _, w := range spec.Workloads {
		specW = append(specW, w.Name)
	}
	for _, w := range workloads {
		codeW = append(codeW, w.name)
	}
	if !slices.Equal(specW, codeW) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", specW, codeW)
	}
	for _, trace := range []bool{false, true} {
		emitted := map[string]bool{}
		for _, w := range workloads {
			rec := runs.plain[w.name]
			if trace {
				rec = runs.traced[0][w.name]
			}
			for name := range rec.Metrics {
				emitted[name] = true
			}
			if !trace {
				for _, m := range spec.EndToEnd {
					if _, ok := rec.Metrics[m.Name]; !ok {
						t.Errorf("%s does not emit %s", w.name, m.Name)
					}
				}
			}
		}
		var declared, got []string
		for _, m := range spec.metricsFor(trace) {
			declared = append(declared, m.Name)
		}
		for name := range emitted {
			got = append(got, name)
		}
		sort.Strings(declared)
		sort.Strings(got)
		if !slices.Equal(declared, got) {
			t.Errorf("trace=%v: BENCHMARK.json declares %v\nthe runs emit %v", trace, declared, got)
		}
	}
	if spec.Paths[0] != "cmd/espbench" || len(spec.Paths) != 1 {
		t.Errorf("paths = %v", spec.Paths)
	}
	if _, err := os.Stat(filepath.Join(testRoot(t), spec.Command[1])); err != nil {
		t.Errorf("command script: %v", err)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4) (exclusive method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	lower := specMetric{Name: "op_ms_best", Better: "lower", Bound: &bound}
	higher := specMetric{Name: "mc.por_hit_rate", Better: "higher", Bound: &bound}
	for _, tc := range []struct {
		m        specMetric
		old, new []float64
		want     string
	}{
		{lower, []float64{100, 101, 99}, []float64{102, 100, 101}, "unchanged"},
		{lower, []float64{100, 101, 99}, []float64{120, 121, 119}, "worse"},
		{lower, []float64{100, 101, 99}, []float64{80, 81, 79}, "improved"},
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "worse"},
		{lower, []float64{50, 100, 150}, []float64{60, 100, 140}, "unresolved"},
		{lower, []float64{100, 150, 200}, []float64{40, 60, 90}, "improved"},
	} {
		if _, _, got := verdict(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.m.Name, tc.old, tc.new, got, tc.want)
		}
	}
}
