package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	esplang "esplang"
	"esplang/internal/analysis"
	"esplang/internal/cbackend"
	"esplang/internal/check"
	"esplang/internal/compile"
	"esplang/internal/fuzz"
	"esplang/internal/ir"
	"esplang/internal/lexer"
	"esplang/internal/opt"
	"esplang/internal/parser"
	"esplang/internal/promela"
	"esplang/internal/vmmc"
)

// fuzzPerOp is the number of generated programs one compile-fuzz
// operation sends through the differential oracle. At 10 the oracle
// takes about three quarters of an operation, so the compile half of the
// workload still moves its end-to-end time.
const fuzzPerOp = 10

// fuzzPool is the set of generator seeds, 1..fuzzPool, the programs
// are drawn from. Every one passes the oracle at this commit
// (TestFuzzPoolClean), so no operation fails on a toolchain bug the
// fuzzer already knows (generator seeds 3282 and 4000649 find an
// optimized-vs-unoptimized divergence). The pool is small enough that a
// run sends each program through the oracle many times: the programs'
// oracle times differ by up to 6x, so op_ms_best must see the whole pool
// at its fastest, whatever order the seed walks it in.
const fuzzPool = 200

// fuzzOpts bounds each oracle run; the AOT-compiled stage stays off (it
// shells out to the Go toolchain).
var fuzzOpts = fuzz.Options{MCMaxStates: 20000}

// source is one program of the compile set, with the outputs
// esplang.Compile produced for it during set-up: every later compile
// must reproduce them exactly.
type source struct {
	name, src string
	fw        bool // the vmmc firmware, whose phases are the compile.* metrics
	disasm    string
	c, pml    string
}

type compileFuzzBench struct {
	seed    int64
	sources []source
	pool    []int // the run's seeded permutation of the fuzz pool

	// Firmware compile phases over the traced operations, in ns, and the
	// per-compile counts (identical on every compile).
	fwCompiles int
	phaseNs    [len(phases)]int64
	tokens     int
	irInstrs   int
	optAfter   int
	optRounds  int
}

// phases are the compile pipeline's public entry points in
// esplang.Compile's order, then the two backends. Each names its span.
var phases = [...]string{
	"lexer.scan", "parser.parse", "check.check", "compile.lower", "ir.verify",
	"analysis.vet", "opt.run", "cbackend.emit", "promela.emit",
}

// setupCompileFuzz gathers the compile set — the vmmc firmware, both
// verification models, and every testdata/*.esp — and records the
// reference outputs of each.
func setupCompileFuzz(e env) (bench, error) {
	srcs := []source{
		{name: "vmmcESP", src: vmmc.ESPSource(fig5Cfg), fw: true},
		{name: "vmmc-verify", src: vmmc.FirmwareModel(fig5Cfg, 3)},
		{name: "vmmc-2node", src: vmmc.TwoNodeModel(fig5Cfg, 3)},
	}
	files, err := filepath.Glob(filepath.Join(e.root, "testdata", "*.esp"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no testdata/*.esp under %s", e.root)
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, source{name: "testdata/" + filepath.Base(f), src: string(data)})
	}
	for i := range srcs {
		s := &srcs[i]
		p, err := esplang.Compile(s.src, esplang.CompileOptions{Name: s.name, File: s.name})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		s.disasm = p.Disasm()
		s.c = p.C(esplang.COptions{})
		s.pml = p.Promela(esplang.PromelaOptions{})
	}
	return &compileFuzzBench{seed: e.seed, sources: srcs, pool: rand.New(rand.NewSource(e.seed)).Perm(fuzzPool)}, nil
}

// fuzzSeed is the generator seed of program i of operation k: the run's
// seed orders the pool, and operations walk that order.
func (b *compileFuzzBench) fuzzSeed(k, i int) int64 {
	return int64(b.pool[(k*fuzzPerOp+i)%len(b.pool)]) + 1
}

func (b *compileFuzzBench) op(k int, tr *tracer, parts partTimes) error {
	for _, i := range opOrder(b.seed, k, len(b.sources)) {
		s := &b.sources[i]
		var err error
		t0 := time.Now()
		if tr == nil {
			err = s.compile()
		} else {
			err = b.compilePhased(s, tr)
		}
		parts.done(s.name, t0)
		if err != nil {
			return err
		}
	}
	for i := 0; i < fuzzPerOp; i++ {
		t0 := time.Now()
		tr.begin("fuzz.generate")
		g := fuzz.Generate(b.fuzzSeed(k, i))
		tr.end()
		tr.begin("fuzz.oracle")
		rep := fuzz.RunDifferential(g.Name(), g.Source, fuzzOpts)
		tr.end()
		parts.done(g.Name(), t0)
		if rep.Failed() {
			return fmt.Errorf("fuzz oracle: %s", rep)
		}
	}
	return nil
}

// compile is what a user of the toolchain runs: esplang.Compile plus
// both backends.
func (s *source) compile() error {
	p, err := esplang.Compile(s.src, esplang.CompileOptions{Name: s.name, File: s.name})
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return s.same(p.Disasm(), p.C(esplang.COptions{}), p.Promela(esplang.PromelaOptions{}))
}

func (s *source) same(disasm, c, pml string) error {
	switch {
	case disasm != s.disasm:
		return fmt.Errorf("%s: IR differs from the reference compile", s.name)
	case c != s.c:
		return fmt.Errorf("%s: C output differs from the reference compile", s.name)
	case pml != s.pml:
		return fmt.Errorf("%s: Promela output differs from the reference compile", s.name)
	}
	return nil
}

// compilePhased runs esplang.Compile's pipeline one public entry point
// at a time, each in its own span, then both backends. lexer.ScanAll is
// timed on its own first (the parser lexes again internally). The result
// must match the reference compile exactly.
func (b *compileFuzzBench) compilePhased(s *source, tr *tracer) error {
	var ns [len(phases)]int64
	fail := func(phase string, err error) error { return fmt.Errorf("%s: %s: %w", s.name, phase, err) }

	tr.begin(phases[0])
	toks, lexErrs := lexer.ScanAll([]byte(s.src))
	ns[0] = tr.end()
	if len(lexErrs) > 0 {
		return fail("lex", lexErrs[0])
	}
	tr.begin(phases[1])
	tree, err := parser.Parse([]byte(s.src))
	ns[1] = tr.end()
	if err != nil {
		return fail("parse", err)
	}
	tr.begin(phases[2])
	info, err := check.Check(tree)
	ns[2] = tr.end()
	if err != nil {
		return fail("check", err)
	}
	tr.begin(phases[3])
	irp := compile.Program(tree, info)
	ns[3] = tr.end()
	irp.Name, irp.Source, irp.File = s.name, s.src, s.name
	instrs := 0
	for _, p := range irp.Procs {
		instrs += len(p.Code)
	}
	tr.begin(phases[4])
	err = ir.Verify(irp)
	ns[4] = tr.end()
	if err != nil {
		return fail("verify", err)
	}
	prog := &esplang.Program{Name: s.name, File: s.name, Source: s.src, AST: tree, Info: info, IR: irp}
	tr.begin(phases[5])
	prog.Findings = analysis.Analyze(irp, analysis.Options{})
	ns[5] = tr.end()
	tr.begin(phases[6])
	st, err := opt.Run(irp, opt.All())
	ns[6] = tr.end()
	if err != nil {
		return fail("opt", err)
	}
	tr.begin(phases[7])
	c := cbackend.Generate(irp, cbackend.Options{})
	ns[7] = tr.end()
	tr.begin(phases[8])
	pml := promela.Generate(tree, info, promela.Options{File: s.name})
	ns[8] = tr.end()

	if err := s.same(prog.Disasm(), c, pml); err != nil {
		return err
	}
	if s.fw {
		b.fwCompiles++
		for i := range ns {
			b.phaseNs[i] += ns[i]
		}
		b.tokens, b.irInstrs, b.optAfter, b.optRounds = len(toks), instrs, st.InstrsAfter, st.Rounds
	}
	return nil
}

func (b *compileFuzzBench) layers(tr *tracer, _ int) (map[string]float64, error) {
	if b.fwCompiles == 0 {
		return nil, fmt.Errorf("no traced firmware compiles")
	}
	m := map[string]float64{
		"lexer.tokens":      float64(b.tokens),
		"compile.ir_instrs": float64(b.irInstrs),
		"opt.instrs_after":  float64(b.optAfter),
		"opt.rounds":        float64(b.optRounds),
	}
	for i, p := range phases {
		m[p+"_us"] = float64(b.phaseNs[i]) / float64(b.fwCompiles) / 1e3
	}
	gen, oracle := tr.agg("fuzz.generate"), tr.agg("fuzz.oracle")
	m["fuzz.generate_us"] = float64(gen.totalNs) / float64(gen.count) / 1e3
	m["fuzz.oracle_ms"] = float64(oracle.totalNs) / float64(oracle.count) / 1e6
	return m, nil
}
