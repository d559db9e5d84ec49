// Package esplang is a complete implementation of ESP — the language for
// programmable devices from "ESP: A Language for Programmable Devices"
// (Kumar, Mandelbaum, Yu, Li; PLDI 2001).
//
// ESP programs are compiled once and then used three ways, mirroring
// Figure 4 of the paper:
//
//   - Program.C emits the C translation (pgm.C) that, combined with the
//     programmer's helper C code, becomes device firmware;
//   - Program.Promela emits the SPIN specification (pgm.SPIN) to combine
//     with hand-written test drivers;
//   - Program.Machine runs the program directly on the bundled virtual
//     machine (the execution substrate this repository's firmware
//     simulations use), and Program.Verify explores its state space with
//     the bundled explicit-state model checker.
//
// Quick start:
//
//	prog, err := esplang.Compile(src, esplang.CompileOptions{})
//	m := prog.Machine(esplang.MachineConfig{})
//	m.BindWriter("inC", inputQueue)
//	m.BindReader("outC", collector)
//	m.Run()
package esplang

import (
	"fmt"
	"os"
	"strings"

	"esplang/internal/analysis"
	"esplang/internal/ast"
	"esplang/internal/cbackend"
	"esplang/internal/check"
	"esplang/internal/compile"
	"esplang/internal/ir"
	"esplang/internal/mc"
	"esplang/internal/opt"
	"esplang/internal/parser"
	"esplang/internal/promela"
	"esplang/internal/vm"
)

// Re-exported runtime types: the public names downstream code uses.
type (
	// Machine executes a compiled program (see internal/vm).
	Machine = vm.Machine
	// MachineConfig configures a Machine.
	MachineConfig = vm.Config
	// Value is a runtime value.
	Value = vm.Value
	// Fault is a runtime fault (assertion, memory safety, ...).
	Fault = vm.Fault
	// ExternalWriter is the environment side of an external-writer channel.
	ExternalWriter = vm.ExternalWriter
	// ExternalReader is the environment side of an external-reader channel.
	ExternalReader = vm.ExternalReader
	// QueueWriter is a FIFO-backed ExternalWriter.
	QueueWriter = vm.QueueWriter
	// CollectReader is an ExternalReader that snapshots received values.
	CollectReader = vm.CollectReader
	// Snapshot is a Go-native copy of a machine value.
	Snapshot = vm.Snapshot
	// Engine selects the VM's interpreter loop (MachineConfig.Engine,
	// VerifyOptions.Engine): the fused hot-path engine (default; it
	// narrows its partner scans to the optimizer's per-channel scan lists
	// whenever the program carries them) or the baseline
	// one-instruction-at-a-time loop, kept as a differential-testing
	// oracle that the fuzz oracle and the differential suite select. Both
	// charge the identical cycle cost model; no CLI takes an engine.
	Engine = vm.Engine
	// MachineStats is the machine's event-statistics counters
	// (Machine.Stats).
	MachineStats = vm.Stats
	// RunResult classifies how Machine.Run ended.
	RunResult = vm.RunResult

	// VerifyOptions configures model checking (see internal/mc).
	VerifyOptions = mc.Options
	// VerifyResult reports a model-checking run.
	VerifyResult = mc.Result
	// PORStats reports partial-order-reduction counters
	// (VerifyResult.POR, non-nil when Reduction is AmpleSets).
	PORStats = mc.PORStats
	// Violation is a property failure with its counterexample trace.
	Violation = mc.Violation
	// ProgressInfo is one periodic model-checking progress sample
	// (VerifyOptions.Progress receives them).
	ProgressInfo = mc.ProgressInfo

	// COptions configures C generation.
	COptions = cbackend.Options
	// PromelaOptions configures Promela generation.
	PromelaOptions = promela.Options
	// OptimizerStats reports per-pass optimizer statistics.
	OptimizerStats = opt.Stats
)

// VerifyIR checks the structural invariants of a compiled program's IR:
// balanced stack depths, in-range jump targets, and valid channel, port,
// pattern, and local references.
var VerifyIR = ir.Verify

// Verification modes (re-exported).
const (
	Exhaustive = mc.Exhaustive
	BitState   = mc.BitState
	Simulation = mc.Simulation
)

// State-space reductions (re-exported; VerifyOptions.Reduction).
const (
	NoReduction = mc.NoReduction
	AmpleSets   = mc.AmpleSets
)

// Execution engines (re-exported).
const (
	EngineFused    = vm.EngineFused
	EngineBaseline = vm.EngineBaseline
)

// Run results (re-exported).
const (
	RunHalted = vm.RunHalted
	RunIdle   = vm.RunIdle
	RunFault  = vm.RunFault
)

// Value constructors (re-exported).
var (
	IntVal  = vm.IntVal
	BoolVal = vm.BoolVal
)

// CompileOptions controls compilation.
type CompileOptions struct {
	// Name labels the program in diagnostics and generated files.
	Name string
	// File is the source path; it threads through to VM faults,
	// model-checker traces, C #line directives, and Promela comments so
	// every downstream consumer can report ESP file:line locations.
	// CompileFile sets it automatically.
	File string
	// NoOptimize disables the §6.1 IR optimization passes.
	NoOptimize bool
	// VerifyIR checks structural IR invariants (ir.Verify) after
	// compilation and again after every optimizer pass.
	VerifyIR bool
	// VetDisable suppresses espvet checks by ID ("ESPV002") or name
	// ("leak") when computing Program.Findings.
	VetDisable map[string]bool
}

// Program is a compiled ESP program.
type Program struct {
	Name   string
	File   string
	Source string

	AST  *ast.Program
	Info *check.Info
	IR   *ir.Program
	// OptStats reports the optimizer driver's per-pass statistics (nil
	// when optimization was disabled).
	OptStats *opt.Stats
	// Findings are the espvet static-analysis reports, computed over the
	// pre-optimization IR during Compile (the optimizer's dead-code and
	// dead-store elimination would hide exactly the defects the analyses
	// look for). Findings never fail compilation; espc -vet-err and
	// cmd/espvet turn them into build failures.
	Findings []*Finding
}

// Compile parses, type-checks, lowers, and optimizes an ESP program.
func Compile(src string, opts CompileOptions) (*Program, error) {
	tree, err := parser.Parse([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := check.Check(tree)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	irProg := compile.Program(tree, info)
	irProg.Name = opts.Name
	irProg.Source = src
	irProg.File = opts.File
	if opts.VerifyIR {
		if err := ir.Verify(irProg); err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
	}
	prog := &Program{Name: opts.Name, File: opts.File, Source: src, AST: tree, Info: info, IR: irProg}
	// espvet runs on every compile, before the optimizer touches the IR.
	// The analyses assume ir.Verify's structural invariants, so when
	// verification was not already requested it runs quietly here first.
	if opts.VerifyIR || ir.Verify(irProg) == nil {
		prog.Findings = analysis.Analyze(irProg, analysis.Options{Disable: opts.VetDisable})
	}
	if !opts.NoOptimize {
		stats, err := opt.Run(irProg, opt.Options{Verify: opts.VerifyIR})
		if err != nil {
			return nil, err
		}
		prog.OptStats = stats
	}
	return prog, nil
}

// CompileFile reads and compiles an ESP source file.
func CompileFile(path string, opts CompileOptions) (*Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if opts.Name == "" {
		opts.Name = path
	}
	if opts.File == "" {
		opts.File = path
	}
	return Compile(string(src), opts)
}

// MustCompile compiles or panics; for embedded programs known to be valid.
func MustCompile(src string, opts CompileOptions) *Program {
	p, err := Compile(src, opts)
	if err != nil {
		panic(fmt.Sprintf("esplang: MustCompile: %v", err))
	}
	return p
}

// Machine creates a virtual machine running the program.
func (p *Program) Machine(cfg MachineConfig) *Machine {
	return vm.New(p.IR, cfg)
}

// Verify model-checks the program (the programmer's test driver processes
// must be part of the program, like the paper's test.SPIN files).
func (p *Program) Verify(opts VerifyOptions) *VerifyResult {
	return mc.Check(p.IR, opts)
}

// VerifyProgress checks for starvation: a reachable cycle containing no
// communication on any of the named progress channels (SPIN's
// non-progress cycle detection, the role LTL liveness plays in §5.1).
// The search is always exhaustive and unreduced, whatever opts.Mode and
// opts.Reduction say, and it reports no deadlocks; the other options
// apply as in Verify. A violation's trace is the path from the initial
// state to the cycle, then the cycle.
func (p *Program) VerifyProgress(progressChannels []string, opts VerifyOptions) *VerifyResult {
	return mc.CheckProgress(p.IR, progressChannels, opts)
}

// C renders the C translation of the program (pgm.C in Figure 4).
func (p *Program) C(opts COptions) string {
	return cbackend.Generate(p.IR, opts)
}

// Promela renders the SPIN specification (pgm.SPIN in Figure 4). When
// the program was compiled from a file, emitted statements carry
// source-location comments unless opts.File overrides the path.
func (p *Program) Promela(opts PromelaOptions) string {
	if opts.File == "" {
		opts.File = p.File
	}
	return promela.Generate(p.AST, p.Info, opts)
}

// Disasm renders the compiled IR of every process.
func (p *Program) Disasm() string {
	var b strings.Builder
	for _, proc := range p.IR.Procs {
		b.WriteString(ir.Disasm(proc))
		b.WriteByte('\n')
	}
	return b.String()
}

// DisasmFused renders the fused-engine translation of every process —
// the superinstruction code the default engine actually executes. When
// the optimizer has not cached a translation (e.g. -O0), processes are
// fused on the fly, exactly as vm.New would.
func (p *Program) DisasmFused() string {
	fused := p.IR.Fused
	if fused == nil {
		fused = ir.FuseProgram(p.IR)
	}
	var b strings.Builder
	for i, proc := range p.IR.Procs {
		b.WriteString(ir.DisasmFused(proc, fused[i]))
		b.WriteByte('\n')
	}
	return b.String()
}

// DumpIndependence renders the transition-independence table the
// partial-order reduction and the ESPV013 check consume: which
// processes touch each channel, per-process heap-cleanliness verdicts,
// ref-flow regions, and the resulting independent process pairs. The
// table is computed from the program's code, optimized unless compiled
// with NoOptimize, exactly as a reduced search computes it.
func (p *Program) DumpIndependence() string {
	return ir.FormatIndependence(p.IR, analysis.ComputeIndependence(p.IR))
}

// Stats summarizes the program.
type Stats struct {
	Processes    int
	Channels     int
	Types        int
	Instructions int
	SourceLines  int
	DeclLines    int // lines of type/channel/const/interface declarations
	ProcessLines int // lines inside process bodies
}

// Stats computes program statistics (used by the paper's line-count
// comparison, §4.6).
func (p *Program) Stats() Stats {
	s := Stats{
		Processes: len(p.IR.Procs),
		Channels:  len(p.IR.Channels),
		Types:     len(p.Info.Universe.All()),
	}
	for _, proc := range p.IR.Procs {
		s.Instructions += len(proc.Code)
	}
	s.SourceLines, s.DeclLines, s.ProcessLines = countLines(p.Source)
	return s
}

// countLines counts non-blank, non-comment source lines, split into
// declaration lines and process-body lines (the paper reports "200 lines
// of declarations + 300 lines of process code", §4.6).
func countLines(src string) (total, decl, proc int) {
	inProc := false
	depth := 0
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		total++
		if !inProc && strings.HasPrefix(t, "process ") {
			inProc = true
			depth = 0
		}
		if inProc {
			proc++
			depth += strings.Count(t, "{") - strings.Count(t, "}")
			if depth <= 0 && strings.Contains(t, "}") {
				inProc = false
			}
		} else {
			decl++
		}
	}
	return total, decl, proc
}
