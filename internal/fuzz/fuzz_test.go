package fuzz

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/obs"
)

// TestGenerateDeterministic: the same seed must produce the same
// program byte-for-byte — CI failures have to replay locally.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.Source != b.Source || a.Template != b.Template {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
	}
}

// TestGeneratedProgramsCompile: the generator aims for well-typed
// programs by construction, so every seed must compile. (This is what
// keeps fuzz throughput on the engines instead of on the checker's
// error paths — the mutation side covers those.)
func TestGeneratedProgramsCompile(t *testing.T) {
	n := int64(400)
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= n; seed++ {
		g := Generate(seed)
		if _, err := esplang.Compile(g.Source, esplang.CompileOptions{File: g.Name() + ".esp"}); err != nil {
			t.Errorf("seed %d (%s) does not compile: %v\n%s", seed, g.Template, err, g.Source)
		}
	}
}

// TestGeneratorTemplateCoverage: over a modest seed range every
// template must appear, or the dispatch weights have rotted.
func TestGeneratorTemplateCoverage(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 200; seed++ {
		seen[Generate(seed).Template] = true
	}
	for _, want := range []string{"pipeline", "open-pipeline", "merge", "fanout", "dispatch", "ownership", "ring"} {
		if !seen[want] {
			t.Errorf("template %q never generated in 200 seeds", want)
		}
	}
}

// TestDifferentialSweep is the in-tree slice of the espfuzz run: every
// generated program must pass the full oracle with zero bugs.
func TestDifferentialSweep(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 30
	}
	opts := Options{MCMaxStates: 2000, MCMaxDepth: 2000}
	for seed := int64(1); seed <= n; seed++ {
		g := Generate(seed)
		rep := RunDifferential(g.Name(), g.Source, opts)
		if rep.Failed() {
			t.Errorf("seed %d:\n%s", seed, rep)
		}
		if rep.Outcome == "parse-error" || rep.Outcome == "compile-error" {
			t.Errorf("seed %d: generated program classified %s", seed, rep.Outcome)
		}
	}
}

// TestMutateDeterministic: same seed, same mutant.
func TestMutateDeterministic(t *testing.T) {
	src := Generate(3).Source
	a, errA := Mutate(src, 99, 3)
	b, errB := Mutate(src, 99, 3)
	if errA != nil || errB != nil {
		t.Fatalf("mutate failed: %v / %v", errA, errB)
	}
	if a != b {
		t.Fatalf("mutation is not deterministic")
	}
}

// TestMutantsNeverBreakOracle: mutants may fail to compile or fault —
// those are outcomes, not bugs — but they must never make the oracle
// itself report a toolchain divergence or panic.
func TestMutantsNeverBreakOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant sweep is slow")
	}
	opts := Options{MCMaxStates: 1000, MCMaxDepth: 1000}
	for _, base := range []int64{5, 23} {
		src := Generate(base).Source
		for m := int64(0); m < 20; m++ {
			mut, err := Mutate(src, base*1000+m, 1+int(m%3))
			if err != nil {
				t.Fatalf("mutate: %v", err)
			}
			rep := RunDifferential("mut", mut, opts)
			if rep.Failed() {
				t.Errorf("mutant (base %d, seed %d):\n%s\n--- mutant ---\n%s", base, m, rep, mut)
			}
		}
	}
}

// TestMinimize: delta debugging must shrink a known-faulty program while
// preserving its failure signature, and the result must still trip the
// keep predicate.
func TestMinimize(t *testing.T) {
	src := `channel c: int

process a {
    $v = 1;
    $w = v + 2;
    assert( w == 3);
    out( c, w);
    assert( false);
}

process b {
    $n = 0;
    while (n < 1) {
        in( c, $x);
        n = n + 1;
    }
}
`
	keep := func(cand string) bool {
		rep := RunDifferential("min", cand, Options{SkipMC: true})
		return rep.Outcome == "fault:assertion failure"
	}
	if !keep(src) {
		t.Fatal("seed program does not trip the keep predicate")
	}
	min := Minimize(src, keep, 500)
	if !keep(min) {
		t.Fatalf("minimized program lost the failure:\n%s", min)
	}
	if len(min) >= len(src) {
		t.Errorf("minimization did not shrink the program (%d -> %d bytes)", len(src), len(min))
	}
	// The spurious arithmetic should be gone entirely.
	if strings.Contains(min, "w == 3") {
		t.Errorf("tautological assert survived minimization:\n%s", min)
	}
}

// TestReportKey: the failure signature is stable, sorted, and
// deduplicated — the minimizer relies on it.
func TestReportKey(t *testing.T) {
	r := &Report{}
	r.addBug("b-kind", "stage2", "x")
	r.addBug("a-kind", "stage1", "y")
	r.addBug("b-kind", "stage2", "z")
	if got, want := r.Key(), "a-kind/stage1,b-kind/stage2"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	if (&Report{}).Failed() {
		t.Error("empty report reports failure")
	}
}

// TestOutcomeClassification: the benign labels the fuzzer tallies.
func TestOutcomeClassification(t *testing.T) {
	cases := []struct{ render, want string }{
		{"result: halted\nfault: none\n", "halt"},
		{"result: idle\nfault: none\n", "idle"},
		{"result: fault\nfault: assertion failure in process p at f.esp:1:1: x\n", "fault:assertion failure"},
		{"result: fault\nfault: step budget exhausted in process p at f.esp:1:1: x\n", "fault:step budget exhausted"},
	}
	for _, c := range cases {
		if got := outcomeOf(c.render); got != c.want {
			t.Errorf("outcomeOf(%q) = %q, want %q", c.render, got, c.want)
		}
	}
}

// TestFaultMsgOnly: location attribution is stripped, kind and message
// survive — the opt-vs-noopt comparison depends on exactly this.
func TestFaultMsgOnly(t *testing.T) {
	in := "fault: use after free in process p17 at x.esp:43:9: link of freed object obj1"
	want := "fault: use after free: link of freed object obj1"
	if got := faultMsgOnly(in); got != want {
		t.Errorf("faultMsgOnly = %q, want %q", got, want)
	}
	if got := faultMsgOnly("fault: none"); got != "fault: none" {
		t.Errorf("faultMsgOnly mangled a clean line: %q", got)
	}
}

// TestEventSumMatchesFprintln holds the trace digest to the bytes
// fmt.Fprintln writes for each event, so digests stay comparable across
// versions: recorded streams of generated programs plus hand-made events
// at the edges (negative ids, an unknown kind, a message with tabs).
func TestEventSumMatchesFprintln(t *testing.T) {
	reference := func(evs []obs.Event) string {
		h := fnv.New64a()
		for _, e := range evs {
			fmt.Fprintln(h, e)
		}
		return fmt.Sprintf("%d events, fnv %x", len(evs), h.Sum64())
	}
	streams := [][]obs.Event{nil, {
		{Seq: 1<<64 - 1, Ts: -5, Kind: obs.EvFault, Proc: -1, Arg: -1 << 40, Name: "assert failed:\tx == 1"},
		{Seq: 0, Ts: 1 << 62, Kind: obs.NumEventKinds, Proc: 7, Arg: 0, Name: ""},
	}}
	for seed := int64(1); seed <= 20; seed++ {
		g := Generate(seed)
		prog, err := esplang.Compile(g.Source, esplang.CompileOptions{Name: g.Name(), File: g.Name() + ".esp"})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, runVM(prog, esplang.EngineBaseline, Options{}.withDefaults()).events)
	}
	total := 0
	for i, evs := range streams {
		total += len(evs)
		if got, want := eventSum(evs), reference(evs); got != want {
			t.Errorf("stream %d: eventSum = %q, fmt.Fprintln digest = %q", i, got, want)
		}
	}
	if total < 100 {
		t.Errorf("only %d events recorded; the generated programs no longer exercise the digest", total)
	}
}
