package opt

import (
	"fmt"
	"strings"
	"testing"

	"esplang/internal/analysis"
	"esplang/internal/ir"
)

// breakJumps is a deliberately corrupting pass: it re-points every jump
// past the end of the code, the kind of off-by-one a buggy rebuild remap
// would produce.
func breakJumps(p *ir.Proc) bool {
	changed := false
	for pc := range p.Code {
		switch p.Code[pc].Op {
		case ir.Jump, ir.JumpIfFalse, ir.JumpIfTrue:
			p.Code[pc].A = len(p.Code) + 3
			changed = true
		}
	}
	return changed
}

// runExtra runs the pipeline, then the named per-process rewrite fn once
// over every process, verifying each process after it when opts.Verify
// is set, and rebuilds the schedule and fused translation the rewrite
// may have invalidated.
func runExtra(prog *ir.Program, opts Options, name string, fn func(*ir.Proc) bool) (*Stats, error) {
	stats, err := Run(prog, opts)
	if err != nil {
		return stats, err
	}
	for _, p := range prog.Procs {
		fn(p)
		if opts.Verify {
			if err := ir.VerifyProc(prog, p); err != nil {
				return stats, fmt.Errorf("opt: pass %s corrupted the program: %w", name, err)
			}
		}
	}
	stats.InstrsAfter = countInstrs(prog)
	prog.Schedule = analysis.ComputeSchedule(prog)
	prog.Fused = ir.FuseProgram(prog)
	return stats, nil
}

func loopProg() *ir.Program {
	return &ir.Program{
		Name:     "loop",
		Channels: []*ir.Channel{{ID: 0, Name: "c"}},
		Procs: []*ir.Proc{{
			ID:   0,
			Name: "p",
			Code: []ir.Instr{
				{Op: ir.Const, Val: 1},
				{Op: ir.Send, A: 0},
				{Op: ir.Jump, A: 0},
				{Op: ir.Halt},
			},
			MaxStack: 1,
		}},
	}
}

// TestVerifyCatchesCorruptingPass is the acceptance check for the
// verified driver: a pass that corrupts jump targets is caught at the
// pass boundary and named in the error.
func TestVerifyCatchesCorruptingPass(t *testing.T) {
	prog := loopProg()
	_, err := runExtra(prog, Options{Verify: true}, "break-jumps", breakJumps)
	if err == nil {
		t.Fatal("corrupting pass not caught")
	}
	if !strings.Contains(err.Error(), "break-jumps") {
		t.Errorf("error does not name the pass: %v", err)
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error does not describe the corruption: %v", err)
	}
}

// TestRunVerifiedPipeline runs the full pipeline with verification on a
// valid program: every pass boundary must verify and stats must balance.
func TestRunVerifiedPipeline(t *testing.T) {
	prog := loopProg()
	stats, err := Run(prog, Options{Verify: true})
	if err != nil {
		t.Fatalf("verified run failed: %v", err)
	}
	if !stats.Fixpoint {
		t.Errorf("pipeline did not reach fixpoint in %d rounds", stats.Rounds)
	}
	if stats.InstrsAfter != countInstrs(prog) {
		t.Errorf("stats.InstrsAfter = %d, program has %d", stats.InstrsAfter, countInstrs(prog))
	}
	if err := ir.Verify(prog); err != nil {
		t.Errorf("optimized program invalid: %v", err)
	}
}

func TestStatsString(t *testing.T) {
	prog := loopProg()
	stats, err := Run(prog, All())
	if err != nil {
		t.Fatal(err)
	}
	out := stats.String()
	for _, want := range []string{"optimizer:", "constfold", "crossproc-const", "compactnops"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}
