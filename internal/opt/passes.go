package opt

import (
	"fmt"
	"strings"

	"esplang/internal/analysis"
	"esplang/internal/ir"
)

// Pass is a per-process rewrite. Run returns true when it changed the
// process. Passes must leave the process structurally valid (ir.Verify);
// the driver checks this after every pass when Options.Verify is set.
type Pass interface {
	Name() string
	Run(p *ir.Proc) bool
}

// ProgramPass is a whole-program rewrite, run once per driver round
// before the per-process passes so the facts it plants (e.g. channel
// constants) feed the local rewrites in the same round.
type ProgramPass interface {
	Name() string
	RunProgram(prog *ir.Program) bool
}

// funcPass adapts the package's rewrite functions to Pass.
type funcPass struct {
	name string
	fn   func(*ir.Proc) bool
}

func (f funcPass) Name() string        { return f.name }
func (f funcPass) Run(p *ir.Proc) bool { return f.fn(p) }

// crossProcPass adapts CrossProcConstants to ProgramPass.
type crossProcPass struct{}

func (crossProcPass) Name() string { return "crossproc-const" }
func (crossProcPass) RunProgram(prog *ir.Program) bool {
	return CrossProcConstants(prog) > 0
}

// fuseProcsPass computes the static rendezvous schedule and stores it on
// the program, where ir.FuseProgram picks it up for the direct-transfer
// rewrite. It reports a change when at least one channel fused. Unlike
// the rewrites it never touches the base IR, so the driver runs it once
// after the fixpoint — the schedule must be read off the settled code.
type fuseProcsPass struct{}

func (fuseProcsPass) Name() string { return "fuseprocs" }
func (fuseProcsPass) RunProgram(prog *ir.Program) bool {
	prog.Schedule = analysis.ComputeSchedule(prog)
	return len(prog.Schedule.Pairs) > 0
}

// PassStats accumulates per-pass counters across a driver run.
type PassStats struct {
	Name          string
	Runs          int // invocations (per process per round, or per round for program passes)
	Changed       int // invocations that reported a change
	InstrsRemoved int // net instructions removed across all invocations
}

// Stats describes one driver run.
type Stats struct {
	Rounds       int // rounds executed before fixpoint (or the bound)
	Fixpoint     bool
	InstrsBefore int
	InstrsAfter  int
	Passes       []*PassStats // in pipeline order
}

func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimizer: %d instructions -> %d", s.InstrsBefore, s.InstrsAfter)
	if s.Fixpoint {
		fmt.Fprintf(&b, " (fixpoint after %d rounds)\n", s.Rounds)
	} else {
		fmt.Fprintf(&b, " (stopped at round bound %d)\n", s.Rounds)
	}
	fmt.Fprintf(&b, "%-18s %6s %8s %8s\n", "pass", "runs", "changed", "removed")
	for _, ps := range s.Passes {
		fmt.Fprintf(&b, "%-18s %6d %8d %8d\n", ps.Name, ps.Runs, ps.Changed, ps.InstrsRemoved)
	}
	return b.String()
}

func countInstrs(prog *ir.Program) int {
	n := 0
	for _, p := range prog.Procs {
		n += len(p.Code)
	}
	return n
}

// pipeline materializes the pass list opts selects, in the order the
// original hand-rolled loop applied them.
func pipeline(opts Options) (progPasses []ProgramPass, local []Pass) {
	if opts.CrossProc {
		progPasses = append(progPasses, crossProcPass{})
	}
	if opts.ConstFold {
		local = append(local, funcPass{"constfold", constFold})
	}
	if opts.CastReuse {
		local = append(local, funcPass{"castreuse", castReuse})
	}
	if opts.CopyProp {
		local = append(local, funcPass{"copyprop", copyProp})
	}
	if opts.DCE {
		local = append(local, funcPass{"unreachable", removeUnreachable})
		local = append(local, funcPass{"compactnops", compactNops})
	}
	return progPasses, local
}

// Run drives the selected passes to a whole-program fixpoint: each round
// runs the program-level passes, then every per-process pass over every
// process, and repeats while anything changed (bounded by MaxRounds).
// Interleaving the rounds this way lets facts flow both directions —
// constants planted across channels enable local folding, and local
// folding exposes new constant sends to the next cross-process round —
// which the old "cross-process once, then local rounds" loop missed.
// Once the code settles, Run caches its fused translation
// (ir.FuseProgram) on prog.Fused, so every machine created from the
// program shares one translation.
//
// With opts.Verify set, every pass invocation is verified and Run aborts
// with a descriptive error naming the offending pass the moment a
// rewrite corrupts the program. A program pass is followed by ir.Verify
// of the whole program; a per-process pass touches no other process and
// no program table, so it is followed by ir.VerifyProc of the process it
// rewrote, which reports what ir.Verify would.
func Run(prog *ir.Program, opts Options) (*Stats, error) {
	// Any rewrite invalidates a cached fused translation and schedule.
	prog.Fused = nil
	prog.Schedule = nil
	rounds := opts.MaxRounds
	if rounds == 0 {
		rounds = 8
	}
	progPasses, local := pipeline(opts)

	stats := &Stats{InstrsBefore: countInstrs(prog)}
	byName := map[string]*PassStats{}
	statFor := func(name string) *PassStats {
		ps, ok := byName[name]
		if !ok {
			ps = &PassStats{Name: name}
			byName[name] = ps
			stats.Passes = append(stats.Passes, ps)
		}
		return ps
	}
	// verify checks the whole program after a program pass (p == nil)
	// and p alone after a per-process pass on p.
	verify := func(pass string, round int, p *ir.Proc) error {
		if !opts.Verify {
			return nil
		}
		var err error
		if p == nil {
			err = ir.Verify(prog)
		} else {
			err = ir.VerifyProc(prog, p)
		}
		if err != nil {
			return fmt.Errorf("opt: pass %s corrupted the program (round %d): %w", pass, round+1, err)
		}
		return nil
	}

	for round := 0; round < rounds; round++ {
		stats.Rounds = round + 1
		changed := false
		for _, pp := range progPasses {
			ps := statFor(pp.Name())
			before := countInstrs(prog)
			ch := pp.RunProgram(prog)
			ps.Runs++
			if ch {
				ps.Changed++
				changed = true
			}
			ps.InstrsRemoved += before - countInstrs(prog)
			if err := verify(pp.Name(), round, nil); err != nil {
				return stats, err
			}
		}
		for _, p := range prog.Procs {
			for _, pass := range local {
				ps := statFor(pass.Name())
				before := len(p.Code)
				ch := pass.Run(p)
				ps.Runs++
				if ch {
					ps.Changed++
					changed = true
				}
				ps.InstrsRemoved += before - len(p.Code)
				if err := verify(pass.Name(), round, p); err != nil {
					return stats, err
				}
			}
		}
		if !changed {
			stats.Fixpoint = true
			break
		}
	}
	stats.InstrsAfter = countInstrs(prog)
	if opts.FuseProcs {
		pp := fuseProcsPass{}
		ps := statFor(pp.Name())
		ps.Runs++
		if pp.RunProgram(prog) {
			ps.Changed++
		}
	}
	prog.Fused = ir.FuseProgram(prog)
	return stats, nil
}

// runExtra lets tests and tools inject additional per-process passes
// (e.g. a deliberately corrupting pass) into the verified driver.
func runExtra(prog *ir.Program, opts Options, extra ...Pass) (*Stats, error) {
	// Run the normal pipeline first, then the extras once, verifying each.
	stats, err := Run(prog, opts)
	if err != nil {
		return stats, err
	}
	for _, pass := range extra {
		for _, p := range prog.Procs {
			pass.Run(p)
			if opts.Verify {
				if err := ir.VerifyProc(prog, p); err != nil {
					return stats, fmt.Errorf("opt: pass %s corrupted the program: %w", pass.Name(), err)
				}
			}
		}
	}
	stats.InstrsAfter = countInstrs(prog)
	// The extras may have rewritten code after Run's schedule and
	// translation.
	if opts.FuseProcs {
		fuseProcsPass{}.RunProgram(prog)
	}
	prog.Fused = ir.FuseProgram(prog)
	return stats, nil
}
