package fuzz

import (
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sort"
	"strings"

	esplang "esplang"
	"esplang/internal/ast"
	"esplang/internal/ir"
	"esplang/internal/obs"
	"esplang/internal/parser"
	"esplang/internal/types"
	"esplang/internal/vm"
)

// Options bounds one differential run.
type Options struct {
	// MaxLiveObjects is the VM and model-checker heap bound (0 = 32).
	MaxLiveObjects int
	// StepBudget bounds instructions between blocking points, so mutants
	// with runaway local loops fault quickly (0 = 200000).
	StepBudget int64
	// MaxCycles bounds each VM run's total cycle meter, so mutants that
	// rendezvous forever (which StepBudget cannot catch — every blocking
	// point resets it) still terminate (0 = 2000000).
	MaxCycles int64
	// MCMaxStates bounds the model-checker searches (0 = 20000).
	MCMaxStates int
	// MCMaxDepth bounds the search depth (0 = 20000).
	MCMaxDepth int
	// InputsPerChannel is how many messages the harness queues on every
	// external-writer channel (0 = 12).
	InputsPerChannel int
	// SkipMC disables the model-checker stages.
	SkipMC bool
}

func (o Options) withDefaults() Options {
	if o.MaxLiveObjects == 0 {
		o.MaxLiveObjects = 32
	}
	if o.StepBudget == 0 {
		o.StepBudget = 200_000
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 2_000_000
	}
	if o.MCMaxStates == 0 {
		o.MCMaxStates = 20_000
	}
	if o.MCMaxDepth == 0 {
		o.MCMaxDepth = 20_000
	}
	if o.InputsPerChannel == 0 {
		o.InputsPerChannel = 12
	}
	return o
}

// Bug is one oracle failure: a divergence between backends that must
// agree, a panic, or a broken structural invariant.
type Bug struct {
	Kind   string // "panic", "engine-divergence", "mc-parallel-divergence", ...
	Stage  string // which oracle stage observed it
	Detail string
	// Event is the divergence signature of an engine divergence: the
	// kind and channel of the first divergent trace event ("rendezvous/c",
	// "stop/-", ...). It feeds Report.Key, so the minimizer preserves not
	// just that the engines diverged but where — while staying stable
	// across shrinks (cycle counts and process ids move as the program
	// shrinks; event kind and channel name do not).
	Event string
}

// Report is the outcome of one differential run.
type Report struct {
	Name string
	// Outcome is the benign classification of the program itself:
	// "parse-error", "compile-error", "halt", "idle" (deadlock), or
	// "fault:<kind>". Programs that fail to compile or that fault are
	// normal fuzzing outcomes — only Bugs mean the toolchain misbehaved.
	Outcome string
	Bugs    []Bug
	// Notes records explained divergences (e.g. allocation-count
	// differences between optimized and unoptimized code).
	Notes []string
	// Postmortem is the baseline engine's flight-recorder dump of the
	// default-compile run when it faulted: the last events leading into
	// the fault. It rides along on repro reports so a divergence repro
	// shows not just what diverged but what the execution was doing.
	Postmortem string
}

// Failed reports whether the oracle found a toolchain bug.
func (r *Report) Failed() bool { return len(r.Bugs) > 0 }

// Key is a stable failure signature — the sorted set of Kind/Stage
// pairs, each extended with the divergence signature when one is known —
// used by the minimizer to preserve "the same bug" while shrinking.
func (r *Report) Key() string {
	seen := map[string]bool{}
	var ks []string
	for _, b := range r.Bugs {
		k := b.Kind + "/" + b.Stage
		if b.Event != "" {
			k += "@" + b.Event
		}
		if !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func (r *Report) addBug(kind, stage, detail string) {
	r.Bugs = append(r.Bugs, Bug{Kind: kind, Stage: stage, Detail: detail})
}

// String renders the report for triage.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", r.Name, r.Outcome)
	if len(r.Bugs) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, " — %d bug(s)\n", len(r.Bugs))
	for _, bug := range r.Bugs {
		fmt.Fprintf(&b, "  [%s @ %s]\n%s\n", bug.Kind, bug.Stage, indent(bug.Detail))
	}
	if r.Postmortem != "" {
		fmt.Fprintf(&b, "  postmortem (baseline engine, last %d events):\n%s\n", obs.PostmortemEvents, indent(r.Postmortem))
	}
	return b.String()
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}

// guard runs fn, converting a panic into a bug report. It returns false
// when fn panicked.
func (r *Report) guard(stage string, fn func()) (ok bool) {
	ok = true
	func() {
		defer func() {
			if p := recover(); p != nil {
				ok = false
				r.addBug("panic", stage, fmt.Sprintf("%v\n%s", p, debug.Stack()))
			}
		}()
		fn()
	}()
	return ok
}

// allEngines in baseline-first order: the baseline interpreter is the
// semantics oracle the fused engine must match.
var allEngines = []esplang.Engine{esplang.EngineBaseline, esplang.EngineFused}

func engineName(e esplang.Engine) string {
	return fmt.Sprint(e)
}

// RunDifferential runs one ESP source through every backend and
// cross-checks everything observable:
//
//   - parse + formatter fixpoint (print, reparse, print again);
//   - compile determinism (disassembly, fused disassembly, vet findings);
//   - both interpreters on the optimized program: outputs, faults with
//     file:line, cycle meter, statistics, trace bytes — all must be
//     byte-identical to the baseline run, which walks every process
//     where the fused engine walks the schedule's scan lists;
//   - unoptimized vs optimized: same fault message and outputs (the
//     TestOptimizedEquivalence contract; cycle counts legitimately
//     differ, and out-of-objects faults are exempted because the
//     optimizer may elide allocations);
//   - the model checker (closed programs only): verdict, state and
//     transition counts identical across engines at Workers:1, verdict
//     stable at Workers:4, verdict class stable without the optimizer;
//   - espvet findings identical with and without the optimizer;
//   - C and Promela generation: deterministic, panic-free, and carrying
//     their structural markers.
//
// Every stage is panic-guarded: a crash anywhere becomes a Bug, not a
// fuzzer crash.
func RunDifferential(name, src string, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{Name: name, Outcome: "ok"}

	// --- Stage: parse + formatter fixpoint -------------------------------
	var tree *ast.Program
	var parseErr error
	if !rep.guard("parse", func() { tree, parseErr = parser.Parse([]byte(src)) }) {
		return rep
	}
	if parseErr != nil {
		rep.Outcome = "parse-error"
		return rep
	}
	var once string
	if rep.guard("format", func() { once = ast.Print(tree) }) {
		var retree *ast.Program
		var rerr error
		if rep.guard("format-reparse", func() { retree, rerr = parser.Parse([]byte(once)) }) {
			if rerr != nil {
				rep.addBug("format-reparse", "format", fmt.Sprintf("printed form no longer parses: %v\n--- printed ---\n%s", rerr, once))
			} else if rep.guard("format-fixpoint", func() {
				if twice := ast.Print(retree); twice != once {
					rep.addBug("format-unstable", "format", fmt.Sprintf("--- first ---\n%s--- second ---\n%s", once, twice))
				}
			}) {
			}
		}
	}

	// --- Stage: compile matrix ------------------------------------------
	file := name + ".esp"
	compileOne := func(stage string, copts esplang.CompileOptions) (*esplang.Program, error, bool) {
		var p *esplang.Program
		var err error
		ok := rep.guard(stage, func() { p, err = esplang.Compile(src, copts) })
		return p, err, ok
	}
	full, fullErr, ok := compileOne("compile", esplang.CompileOptions{Name: name, File: file, VerifyIR: true})
	if !ok {
		return rep
	}
	full2, full2Err, _ := compileOne("compile-repeat", esplang.CompileOptions{Name: name, File: file, VerifyIR: true})
	noopt, nooptErr, _ := compileOne("compile-noopt", esplang.CompileOptions{Name: name, File: file, VerifyIR: true, NoOptimize: true})

	// All configurations must agree on whether the program compiles.
	for _, alt := range []struct {
		stage string
		err   error
	}{{"compile-repeat", full2Err}, {"compile-noopt", nooptErr}} {
		if (fullErr == nil) != (alt.err == nil) {
			rep.addBug("compile-gate-divergence", alt.stage,
				fmt.Sprintf("default compile error: %v\n%s error: %v", fullErr, alt.stage, alt.err))
		}
	}
	// The canonical printed form must be exactly as compilable as the
	// original source.
	if once != "" {
		var ferr error
		if rep.guard("compile-formatted", func() { _, ferr = esplang.Compile(once, esplang.CompileOptions{Name: name}) }) {
			if (fullErr == nil) != (ferr == nil) {
				rep.addBug("format-changes-validity", "compile-formatted",
					fmt.Sprintf("original error: %v\nformatted error: %v\n--- formatted ---\n%s", fullErr, ferr, once))
			}
		}
	}
	if fullErr != nil {
		rep.Outcome = "compile-error"
		return rep
	}

	// Compilation must be deterministic in everything downstream reads.
	if full2 != nil && full2Err == nil {
		rep.guard("compile-determinism", func() {
			if a, b := full.Disasm(), full2.Disasm(); a != b {
				rep.addBug("nondeterministic-compile", "disasm", diffDetail(a, b))
			}
			if a, b := full.DisasmFused(), full2.DisasmFused(); a != b {
				rep.addBug("nondeterministic-compile", "disasm-fused", diffDetail(a, b))
			}
			if a, b := full.RenderFindings(), full2.RenderFindings(); a != b {
				rep.addBug("nondeterministic-compile", "vet", diffDetail(a, b))
			}
		})
	}
	// espvet runs before the optimizer, so its findings must not depend
	// on whether the optimizer runs.
	rep.guard("vet-independence", func() {
		want := full.RenderFindings()
		if noopt != nil && nooptErr == nil {
			if got := noopt.RenderFindings(); got != want {
				rep.addBug("vet-opt-dependent", "vet-noopt", diffDetail(want, got))
			}
		}
	})

	// --- Stage: VM engine matrix ----------------------------------------
	// Engines are compared strictly only against runs of the SAME
	// compiled code; strictMatrix (below) pinpoints the first divergent
	// event.
	runMatrix := func(cfgName string, prog *esplang.Program) []vmRun {
		var rs []vmRun
		for _, eng := range allEngines {
			stage := fmt.Sprintf("vm/%s/%s", cfgName, engineName(eng))
			var run vmRun
			if rep.guard(stage, func() { run = runVM(prog, eng, opts) }) {
				run.cfg = stage
				rs = append(rs, run)
			}
		}
		rep.strictMatrix(rs)
		return rs
	}
	runs := runMatrix("opt", full)
	if len(runs) > 0 {
		rep.Outcome = outcomeOf(runs[0].render)
		rep.Postmortem = runs[0].pm
	}

	// Optimized vs unoptimized: fault message and outputs must match
	// (cycles and statistics legitimately differ). The optimizer may
	// elide allocations, so out-of-objects faults are exempt.
	if noopt != nil && nooptErr == nil {
		nooptRuns := runMatrix("noopt", noopt)
		if len(runs) > 0 && len(nooptRuns) > 0 {
			a, b := equivalenceView(runs[0].render), equivalenceView(nooptRuns[0].render)
			if a != b {
				both := runs[0].render + nooptRuns[0].render
				switch {
				case strings.Contains(both, vm.FaultOutOfObjects.String()):
					rep.Notes = append(rep.Notes, "opt-vs-noopt differ only around an out-of-objects fault (allocation elision)")
				case strings.Contains(both, vm.FaultStep.String()):
					// The optimizer changes how many instructions the same
					// work takes, so a runaway program is cut off at
					// different points.
					rep.Notes = append(rep.Notes, "opt-vs-noopt differ only under step-budget truncation")
				default:
					rep.addBug("opt-noopt-divergence", "vm/opt-vs-noopt",
						fmt.Sprintf("--- optimized ---\n%s--- unoptimized ---\n%s", a, b))
				}
			}
		}
	}

	// --- Stage: model checker (closed programs only) ---------------------
	if !opts.SkipMC && isClosed(full) {
		mcOpts := func(eng esplang.Engine, workers int) esplang.VerifyOptions {
			return esplang.VerifyOptions{
				Workers:        workers,
				MaxStates:      opts.MCMaxStates,
				MaxDepth:       opts.MCMaxDepth,
				MaxLiveObjects: opts.MaxLiveObjects,
				StepBudget:     opts.StepBudget,
				Engine:         eng,
			}
		}
		type mcRun struct {
			stage string
			res   *esplang.VerifyResult
		}
		var mcs []mcRun
		for _, eng := range allEngines {
			stage := fmt.Sprintf("mc/%s", engineName(eng))
			var res *esplang.VerifyResult
			if rep.guard(stage, func() { res = full.Verify(mcOpts(eng, 1)) }) {
				mcs = append(mcs, mcRun{stage, res})
			}
		}
		if len(mcs) > 0 {
			base := renderMC(mcs[0].res)
			for _, m := range mcs[1:] {
				if got := renderMC(m.res); got != base {
					rep.addBug("mc-engine-divergence", m.stage,
						fmt.Sprintf("--- %s ---\n%s\n--- %s ---\n%s", mcs[0].stage, base, m.stage, got))
				}
			}
			// A violation's counterexample must map back through
			// ConfirmFinding without crashing.
			if v := mcs[0].res.Violation; v != nil {
				rep.guard("mc/confirm-finding", func() { _ = full.ConfirmFinding(v) })
			}
			// Parallel search: same verdict; same state count when no
			// violation cuts the search short.
			var par *esplang.VerifyResult
			if rep.guard("mc/parallel", func() { par = full.Verify(mcOpts(esplang.EngineFused, 4)) }) {
				seq := mcs[0].res
				if (seq.Violation == nil) != (par.Violation == nil) {
					if seq.Truncated || par.Truncated {
						// Workers explore the bounded state space in a
						// different order, so truncated searches may cut
						// off before or after a violation.
						rep.Notes = append(rep.Notes, "mc parallel verdict differs under state-bound truncation")
					} else {
						rep.addBug("mc-parallel-divergence", "mc/parallel",
							fmt.Sprintf("workers=1 violation: %v\nworkers=4 violation: %v", seq.Violation, par.Violation))
					}
				} else if seq.Violation == nil && !seq.Truncated && !par.Truncated && seq.States != par.States {
					rep.addBug("mc-parallel-divergence", "mc/parallel",
						fmt.Sprintf("workers=1 states=%d\nworkers=4 states=%d", seq.States, par.States))
				}
			}
			// Ample-set reduction prunes the successor sets but must keep
			// the verdict: same class and, for faults, the same kind at
			// the same source line. State counts legitimately shrink, and
			// out-of-objects verdicts are exempt — the global live-object
			// peak depends on which interleaving the search walks.
			var pres *esplang.VerifyResult
			if rep.guard("mc/por", func() {
				o := mcOpts(esplang.EngineFused, 1)
				o.Reduction = esplang.AmpleSets
				pres = full.Verify(o)
			}) {
				a, b := verdictPlace(mcs[0].res), verdictPlace(pres)
				if a != b {
					switch {
					case strings.Contains(a+b, vm.FaultOutOfObjects.String()):
						rep.Notes = append(rep.Notes, "mc por-vs-full differ only around an out-of-objects verdict (interleaving-dependent peak)")
					case a == "none(partial)" || b == "none(partial)":
						rep.Notes = append(rep.Notes, "mc por-vs-full differ under state-bound truncation")
					default:
						rep.addBug("mc-por-divergence", "mc/por",
							fmt.Sprintf("full verdict: %s\nreduced verdict: %s", a, b))
					}
				}
				if !mcs[0].res.Truncated && !pres.Truncated && pres.States > mcs[0].res.States {
					rep.addBug("mc-por-divergence", "mc/por",
						fmt.Sprintf("reduction grew the state space: full states=%d reduced states=%d",
							mcs[0].res.States, pres.States))
				}
				// A sequential reduced search is a pure function of the
				// program: repeating it must reproduce every counter.
				var pres2 *esplang.VerifyResult
				if rep.guard("mc/por-repeat", func() {
					o := mcOpts(esplang.EngineFused, 1)
					o.Reduction = esplang.AmpleSets
					pres2 = full.Verify(o)
				}) {
					if a, b := renderMC(pres), renderMC(pres2); a != b {
						rep.addBug("mc-por-nondet", "mc/por-repeat", diffDetail(a, b))
					}
				}
			}
			// Unoptimized code must model-check to the same verdict class
			// (state counts differ; allocation elision exempted again).
			if noopt != nil && nooptErr == nil {
				var nres *esplang.VerifyResult
				if rep.guard("mc/noopt", func() { nres = noopt.Verify(mcOpts(esplang.EngineFused, 1)) }) {
					a, b := verdictClass(mcs[0].res), verdictClass(nres)
					if a != b {
						switch {
						case strings.Contains(a+b, vm.FaultOutOfObjects.String()):
							rep.Notes = append(rep.Notes, "mc opt-vs-noopt differ only around an out-of-objects verdict (allocation elision)")
						case strings.Contains(a+b, vm.FaultStep.String()):
							rep.Notes = append(rep.Notes, "mc opt-vs-noopt differ only around a step-budget verdict")
						case a == "none(partial)" || b == "none(partial)":
							// A truncated search proves nothing: the other
							// configuration may legitimately reach a
							// violation the truncated one never explored.
							rep.Notes = append(rep.Notes, "mc opt-vs-noopt differ under state-bound truncation")
						default:
							rep.addBug("mc-opt-divergence", "mc/noopt",
								fmt.Sprintf("optimized verdict: %s\nunoptimized verdict: %s", a, b))
						}
					}
				}
			}
		}
	}

	// --- Stage: backends -------------------------------------------------
	rep.guard("backend/c", func() {
		a := full.C(esplang.COptions{})
		if b := full.C(esplang.COptions{}); a != b {
			rep.addBug("backend-nondet", "backend/c", diffDetail(a, b))
		}
		if !strings.Contains(a, "esp_run") {
			rep.addBug("backend-marker", "backend/c", "generated C lacks esp_run entry point")
		}
		if !strings.Contains(a, "#line") {
			rep.addBug("backend-marker", "backend/c", "generated C lacks #line directives despite a source file")
		}
	})
	rep.guard("backend/promela", func() {
		a := full.Promela(esplang.PromelaOptions{})
		if b := full.Promela(esplang.PromelaOptions{}); a != b {
			rep.addBug("backend-nondet", "backend/promela", diffDetail(a, b))
		}
		if !strings.Contains(a, "init {") {
			rep.addBug("backend-marker", "backend/promela", "generated Promela lacks init block")
		}
	})
	if noopt != nil && nooptErr == nil {
		rep.guard("backend/noopt", func() {
			_ = noopt.C(esplang.COptions{})
			_ = noopt.Promela(esplang.PromelaOptions{})
		})
	}
	return rep
}

// isClosed reports whether the program has no external channels, i.e.
// whether its state space is self-contained enough to model-check.
func isClosed(p *esplang.Program) bool {
	for _, ch := range p.IR.Channels {
		if ch.Ext != ir.ExtNone {
			return false
		}
	}
	return true
}

// vmRun is one engine execution: the rendered observables, the recorded
// event stream (for first-divergent-event reporting), and the fault
// postmortem (empty for clean runs).
type vmRun struct {
	cfg    string
	render string
	events []obs.Event
	pm     string
}

// strictMatrix compares engine runs of the SAME compiled program, where
// every observable must agree byte-for-byte. On a render divergence the
// recorded event streams pinpoint the first divergent event (cycle,
// kind, process, channel) — far more actionable than "the trace hashes
// differ" — and its kind/channel signature becomes part of the bug key,
// so minimization preserves the specific divergence. When the renders
// agree, the rendered fault postmortems are cross-checked for
// bit-identity.
func (rep *Report) strictMatrix(rs []vmRun) {
	if len(rs) == 0 {
		return
	}
	for _, r := range rs[1:] {
		if r.render != rs[0].render {
			detail := fmt.Sprintf("--- %s ---\n%s--- %s ---\n%s", rs[0].cfg, rs[0].render, r.cfg, r.render)
			sig := ""
			if div := obs.FormatDivergence(rs[0].cfg, rs[0].events, r.cfg, r.events); div != "" {
				detail = div + "\n" + detail
				i := obs.DiffTraces(rs[0].events, r.events)
				lead := rs[0].events
				if i >= len(lead) {
					lead = r.events
				}
				sig = divergenceSig(lead[i])
			}
			rep.Bugs = append(rep.Bugs, Bug{Kind: "engine-divergence", Stage: r.cfg, Detail: detail, Event: sig})
		} else if r.pm != rs[0].pm {
			// Renders (including the trace hash) agree but the rendered
			// postmortems do not — the postmortem path itself broke.
			rep.addBug("postmortem-divergence", r.cfg,
				fmt.Sprintf("--- %s ---\n%s--- %s ---\n%s", rs[0].cfg, rs[0].pm, r.cfg, r.pm))
		}
	}
}

// divergenceSig reduces a divergent event to the coordinates that stay
// stable while the minimizer shrinks the program: kind and channel.
func divergenceSig(e obs.Event) string {
	ch := "-"
	switch e.Kind {
	case obs.EvRendezvous, obs.EvPoll:
		ch = e.Name
	}
	return e.Kind.String() + "/" + ch
}

// runVM executes the program under one engine with deterministic
// external bindings and renders everything observable: run result, fault
// (with file:line), cycle meter, statistics, per-channel outputs, and a
// hash of the recorded event stream. One growing recorder
// (obs.NewEventLog) supplies both the stream and the postmortem: the raw
// events ride along so a divergence names its first divergent event, and
// a faulting run carries its postmortem — the strict matrix requires it
// to be bit-identical across engines, and espfuzz attaches it to the
// repro report.
func runVM(prog *esplang.Program, engine esplang.Engine, opts Options) vmRun {
	m := prog.Machine(esplang.MachineConfig{
		MaxLiveObjects: opts.MaxLiveObjects,
		StepBudget:     opts.StepBudget,
		MaxCycles:      opts.MaxCycles,
		Engine:         engine,
	})
	rec := obs.NewEventLog()
	m.SetRecorder(rec)
	readers := bindExternals(prog, m, opts.InputsPerChannel)
	res := m.Run()

	var b strings.Builder
	fmt.Fprintf(&b, "result: %v\n", res)
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
	rec.Sync()
	events := rec.Snapshot(0)
	fmt.Fprintf(&b, "trace: %s\n", eventSum(events))
	out := vmRun{render: b.String(), events: events}
	if m.Fault() != nil {
		out.pm = m.Postmortem(obs.PostmortemEvents)
	}
	return out
}

// eventSum hashes an event stream for the strict engine comparison: the
// full timeline is covered without keeping every byte in the report.
// Each event is hashed as its String rendering and a newline.
func eventSum(evs []obs.Event) string {
	h := fnv.New64a()
	var line []byte
	for _, e := range evs {
		line = append(e.Append(line[:0]), '\n')
		h.Write(line)
	}
	return fmt.Sprintf("%d events, fnv %x", len(evs), h.Sum64())
}

// bindExternals attaches a CollectReader to every external-reader
// channel and a deterministic QueueWriter to every external-writer
// channel that declares an interface, synthesizing well-shaped messages
// from the interface case patterns (cases are cycled in order).
func bindExternals(prog *esplang.Program, m *esplang.Machine, perChannel int) map[string]*esplang.CollectReader {
	readers := map[string]*esplang.CollectReader{}
	for _, ch := range prog.IR.Channels {
		switch ch.Ext {
		case ir.ExtReader:
			r := &esplang.CollectReader{}
			if err := m.BindReader(ch.Name, r); err == nil {
				readers[ch.Name] = r
			}
		case ir.ExtWriter:
			if len(ch.Cases) == 0 {
				continue // nothing external could legally feed this channel
			}
			w := &esplang.QueueWriter{}
			ctr := int64(0)
			for i := 0; i < perChannel; i++ {
				caseIdx := i % len(ch.Cases)
				c := ch.Cases[caseIdx]
				elem, pat := ch.Elem, c.Pat
				w.Push(caseIdx, func(mm *esplang.Machine) esplang.Value {
					return buildFromPat(mm, elem, pat, &ctr)
				})
			}
			_ = m.BindWriter(ch.Name, w)
		}
	}
	return readers
}

// feedValues is the deterministic scalar sequence the harness feeds.
var feedValues = []int64{1, 7, -3, 42, 0, 5, 2, 9, -1, 64, 3, 8}

func nextFeed(ctr *int64) int64 {
	v := feedValues[int(*ctr)%len(feedValues)]
	*ctr++
	return v
}

// buildFromPat synthesizes a machine value of type t that matches the
// interface-case pattern p: pattern constants become those constants,
// bindings and wildcards become values from the deterministic feed
// sequence, and composite patterns recurse structurally.
func buildFromPat(m *esplang.Machine, t *types.Type, p *ir.Pat, ctr *int64) esplang.Value {
	switch t.Kind {
	case types.Int:
		if p != nil && p.Kind == ir.PatConst {
			return esplang.IntVal(p.Val)
		}
		return esplang.IntVal(nextFeed(ctr))
	case types.Bool:
		if p != nil && p.Kind == ir.PatConst {
			return esplang.BoolVal(p.Val != 0)
		}
		return esplang.BoolVal(nextFeed(ctr)%2 == 0)
	case types.Record:
		elems := make([]esplang.Value, len(t.Fields))
		for i, f := range t.Fields {
			var sub *ir.Pat
			if p != nil && p.Kind == ir.PatRecord && i < len(p.Elems) {
				sub = p.Elems[i]
			}
			elems[i] = buildFromPat(m, f.Type, sub, ctr)
		}
		return m.NewRecordV(t, elems...)
	case types.Union:
		tag := 0
		var sub *ir.Pat
		if p != nil && p.Kind == ir.PatUnion {
			tag = p.Tag
			if len(p.Elems) > 0 {
				sub = p.Elems[0]
			}
		}
		return m.NewUnionV(t, tag, buildFromPat(m, t.Fields[tag].Type, sub, ctr))
	case types.Array:
		n := int(t.Bound)
		if n <= 0 {
			n = 4
		}
		return m.NewArrayV(t, n, esplang.IntVal(nextFeed(ctr)))
	}
	return esplang.IntVal(0)
}

func renderSnap(s esplang.Snapshot) string {
	if s.Obj == nil {
		return fmt.Sprintf("%d", s.Scalar)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "obj(tag=%d){", s.Obj.Tag)
	for i, e := range s.Obj.Elems {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(renderSnap(e))
	}
	b.WriteString("}")
	return b.String()
}

// outcomeOf classifies a runVM render into the benign outcome label.
func outcomeOf(render string) string {
	lines := strings.SplitN(render, "\n", 3)
	res := strings.TrimPrefix(lines[0], "result: ")
	if len(lines) > 1 && lines[1] != "fault: none" {
		for k := vm.FaultAssert; k <= vm.FaultInternal; k++ {
			if strings.Contains(lines[1], k.String()) {
				return "fault:" + k.String()
			}
		}
		return "fault:other"
	}
	switch res {
	case "halted":
		return "halt"
	case "idle":
		return "idle"
	}
	return res
}

// equivalenceView reduces a runVM render to the optimized-vs-unoptimized
// contract: fault message (not location or cycle counts — the optimizer
// legitimately moves both) plus per-channel outputs.
func equivalenceView(render string) string {
	var b strings.Builder
	for _, line := range strings.Split(render, "\n") {
		switch {
		case strings.HasPrefix(line, "fault: "):
			b.WriteString(faultMsgOnly(line) + "\n")
		case strings.HasPrefix(line, "result: "),
			strings.HasPrefix(line, "cycles: "),
			strings.HasPrefix(line, "stats: "),
			strings.HasPrefix(line, "trace: "),
			line == "":
		default:
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// faultMsgOnly strips the process and source-location attribution from
// a rendered fault line, leaving the kind and message. Rendered faults
// look like "fault: <kind> in process <p> at <file:l:c>: <msg>".
func faultMsgOnly(line string) string {
	i := strings.Index(line, " in process ")
	if i < 0 {
		return line
	}
	j := strings.Index(line[i:], ": ")
	if j < 0 {
		return line
	}
	return line[:i] + line[i+j:]
}

func renderMC(res *esplang.VerifyResult) string {
	v := "none"
	if res.Violation != nil {
		v = res.Violation.String()
	}
	return fmt.Sprintf("violation=%s states=%d transitions=%d maxdepth=%d truncated=%v",
		v, res.States, res.Transitions, res.MaxDepth, res.Truncated)
}

// verdictClass reduces a model-checking result to what must survive
// optimization: no violation, deadlock, or a fault kind + message.
func verdictClass(res *esplang.VerifyResult) string {
	switch {
	case res.Violation == nil:
		if res.Truncated {
			return "none(partial)"
		}
		return "none"
	case res.Violation.Deadlock:
		return "deadlock"
	default:
		f := res.Violation.Fault
		return fmt.Sprintf("fault:%v:%s", f.Kind, f.Msg)
	}
}

// verdictPlace reduces a model-checking result to what a state-space
// reduction must preserve: no violation, deadlock, or a fault kind at
// its source location. Unlike verdictClass it pins the file:line (a
// reduced search must fault at the same site) but drops the message,
// whose counters can reflect the walked interleaving.
func verdictPlace(res *esplang.VerifyResult) string {
	switch {
	case res.Violation == nil:
		if res.Truncated {
			return "none(partial)"
		}
		return "none"
	case res.Violation.Deadlock:
		return "deadlock"
	default:
		f := res.Violation.Fault
		return fmt.Sprintf("fault:%v:%s", f.Kind, f.Location())
	}
}

// diffDetail renders two unequal strings, truncated for reports.
func diffDetail(a, b string) string {
	const max = 2000
	if len(a) > max {
		a = a[:max] + "…"
	}
	if len(b) > max {
		b = b[:max] + "…"
	}
	return fmt.Sprintf("--- first ---\n%s\n--- second ---\n%s", a, b)
}
