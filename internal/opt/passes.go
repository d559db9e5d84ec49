package opt

import (
	"fmt"
	"strings"

	"esplang/internal/analysis"
	"esplang/internal/ir"
)

// maxRounds bounds the whole-program fixpoint iteration.
const maxRounds = 8

// localPasses are the per-process rewrites, in the order every round
// applies them to each process. Each reports whether it changed the
// process and must leave it structurally valid (ir.VerifyProc).
var localPasses = []struct {
	name string
	run  func(*ir.Proc) bool
}{
	{"constfold", constFold},
	{"castreuse", castReuse},
	{"copyprop", copyProp},
	{"unreachable", removeUnreachable},
	{"compactnops", compactNops},
}

// PassStats accumulates per-pass counters across a driver run.
type PassStats struct {
	Name          string
	Runs          int // invocations (per process per round; per round for crossproc-const)
	Changed       int // invocations that reported a change
	InstrsRemoved int // net instructions removed across all invocations
}

// record counts one invocation.
func (ps *PassStats) record(changed bool, removed int) {
	ps.Runs++
	if changed {
		ps.Changed++
	}
	ps.InstrsRemoved += removed
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

// Run drives the pipeline to a whole-program fixpoint: each round runs
// CrossProcConstants, then every per-process rewrite over every process,
// and repeats while anything changed, for at most maxRounds rounds.
// Interleaving the rounds this way lets facts flow both directions —
// constants planted across channels enable local folding, and local
// folding exposes new constant sends to the next cross-process round.
// Once the code settles, Run stores the static rendezvous schedule
// (analysis.ComputeSchedule: the per-channel scan lists) on
// prog.Schedule and caches the fused translation (ir.FuseProgram) on
// prog.Fused, so every machine created from the program shares one
// translation.
//
// With opts.Verify set, Run aborts with an error naming the offending
// pass the moment a rewrite corrupts the program. A per-process pass
// touches no other process and no program table, so ir.VerifyProc of the
// process it rewrote reports what ir.Verify would.
func Run(prog *ir.Program, opts Options) (*Stats, error) {
	// Any rewrite invalidates a cached fused translation and schedule.
	prog.Fused = nil
	prog.Schedule = nil

	stats := &Stats{InstrsBefore: countInstrs(prog)}
	row := func(name string) *PassStats {
		ps := &PassStats{Name: name}
		stats.Passes = append(stats.Passes, ps)
		return ps
	}
	cross := row("crossproc-const")
	local := make([]*PassStats, len(localPasses))
	for i, lp := range localPasses {
		local[i] = row(lp.name)
	}
	corrupted := func(pass string, round int, err error) error {
		return fmt.Errorf("opt: pass %s corrupted the program (round %d): %w", pass, round+1, err)
	}

	for round := 0; round < maxRounds; round++ {
		stats.Rounds = round + 1
		before := countInstrs(prog)
		changed := CrossProcConstants(prog) > 0
		cross.record(changed, before-countInstrs(prog))
		if opts.Verify {
			if err := ir.Verify(prog); err != nil {
				return stats, corrupted(cross.Name, round, err)
			}
		}
		for _, p := range prog.Procs {
			for i, lp := range localPasses {
				before := len(p.Code)
				ch := lp.run(p)
				changed = changed || ch
				local[i].record(ch, before-len(p.Code))
				if opts.Verify {
					if err := ir.VerifyProc(prog, p); err != nil {
						return stats, corrupted(lp.name, round, err)
					}
				}
			}
		}
		if !changed {
			stats.Fixpoint = true
			break
		}
	}
	stats.InstrsAfter = countInstrs(prog)
	prog.Schedule = analysis.ComputeSchedule(prog)
	prog.Fused = ir.FuseProgram(prog)
	return stats, nil
}
