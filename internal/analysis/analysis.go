// Package analysis is espvet: a suite of dataflow analyses over the
// compiled (pre-optimization) IR that reports memory-safety and
// channel-protocol bugs at compile time — the class of defects the
// paper (§5) finds only by exhaustive model checking.
//
// The framework is a classic worklist fixpoint over each process's
// basic-block CFG (alt arms are ordinary successor edges carrying the
// arm's binding effects). On top of it run four analyses:
//
//   - definite assignment (forward, must): reads of never-assigned
//     locals, in practice self-referential receive patterns like
//     in(c, {$v, v}) whose dynamic-equality test reads v before any
//     value was bound (ESPV001);
//   - ownership (forward): tracks the §4.4 refcount obligation of each
//     reference-typed local — leak on overwrite/rebind/exit (ESPV002),
//     use after release (ESPV003), double release (ESPV004);
//   - channel protocol (whole program): channels used on only one side,
//     single-process channels, and alt arms with no cross-process
//     counterparty (ESPV010, ESPV011, ESPV012);
//   - dead code (reachability + backward liveness): unreachable
//     statements (ESPV020) and stores never read (ESPV021).
//
// Every analysis is designed to be "may-miss, never-false-alarm": joins
// that would require path-sensitivity or alias tracking collapse to an
// untracked state instead of guessing, so a reported finding is a real
// property of the IR. The testdata/vet corpus cross-validates this
// against the model checker: true positives must be reachable by mc,
// clean programs must produce zero findings.
package analysis

import (
	"fmt"
	"sort"

	"esplang/internal/diag"
	"esplang/internal/ir"
	"esplang/internal/token"
)

// Check identifies one espvet check.
type Check struct {
	ID   string // stable check ID, e.g. "ESPV002"
	Name string // short name, e.g. "leak"
	Doc  string // one-line description
}

// The espvet checks.
var (
	CheckUninit         = Check{"ESPV001", "uninit-read", "read of a local variable that is never assigned on some path"}
	CheckLeak           = Check{"ESPV002", "leak", "an owned object's last tracked reference is overwritten, rebound, or reaches process exit"}
	CheckUseAfterFree   = Check{"ESPV003", "use-after-free", "use of a variable after its reference was released"}
	CheckDoubleFree     = Check{"ESPV004", "double-free", "a variable's reference is released twice"}
	CheckOrphanChan     = Check{"ESPV010", "orphan-channel", "a channel is only ever sent or only ever received"}
	CheckSelfRendezvous = Check{"ESPV011", "self-rendezvous", "only one process communicates on a channel; it cannot rendezvous with itself"}
	CheckDeadAltArm     = Check{"ESPV012", "dead-alt-arm", "an alt arm has no cross-process counterparty in the opposite direction"}
	CheckIndepAltArms   = Check{"ESPV013", "indep-alt-arms", "an alt's arms can never compete: their counterparties are pairwise independent, so the choice is unobservable"}
	CheckUnreachable    = Check{"ESPV020", "unreachable-code", "statements that control flow can never reach"}
	CheckDeadStore      = Check{"ESPV021", "dead-store", "a stored value is never read"}
)

// Checks lists every check in ID order (for documentation and CLIs).
func Checks() []Check {
	return []Check{
		CheckUninit, CheckLeak, CheckUseAfterFree, CheckDoubleFree,
		CheckOrphanChan, CheckSelfRendezvous, CheckDeadAltArm,
		CheckIndepAltArms, CheckUnreachable, CheckDeadStore,
	}
}

// Finding is one espvet report.
type Finding struct {
	Check Check
	Proc  string // process the finding is in ("" for channel-level findings)
	Pos   token.Pos
	Msg   string
	Notes []diag.Note // secondary spans: "allocated here", "released here", ...
}

// String renders the finding without source excerpts:
// "3:9: leak: ... [ESPV002]".
func (f *Finding) String() string {
	return fmt.Sprintf("%s: %s: %s [%s]", f.Pos, f.Check.Name, f.Msg, f.Check.ID)
}

// Diagnostic converts the finding to a renderable warning diagnostic.
func (f *Finding) Diagnostic() *diag.Diagnostic {
	return &diag.Diagnostic{
		Pos:      f.Pos,
		Msg:      fmt.Sprintf("%s [%s]", f.Msg, f.Check.ID),
		Severity: diag.Warning,
		Notes:    f.Notes,
	}
}

// Options configures an analysis run.
type Options struct {
	// Disable suppresses checks by ID ("ESPV002") or name ("leak").
	Disable map[string]bool
}

func (o Options) enabled(c Check) bool {
	return !o.Disable[c.ID] && !o.Disable[c.Name]
}

// Analyze runs every enabled analysis over the program and returns the
// findings in deterministic source order. The program must satisfy
// ir.Verify's invariants (the CFG construction relies on balanced stack
// depths), and should be the pre-optimization IR: the optimizer's dead
// code and dead store elimination would hide exactly the defects the
// analyses report.
func Analyze(prog *ir.Program, opts Options) []*Finding {
	r := &reporter{opts: opts}
	cfgs := make([]*cfg, len(prog.Procs))
	for i, p := range prog.Procs {
		g := buildCFG(p)
		cfgs[i] = g
		analyzeDefinite(prog, p, g, r)
		analyzeOwnership(prog, p, g, r)
		analyzeDeadCode(prog, p, g, r)
	}
	analyzeChannels(prog, cfgs, r)
	analyzeIndependence(prog, cfgs, r)
	sort.SliceStable(r.findings, func(i, j int) bool {
		a, b := r.findings[i], r.findings[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check.ID != b.Check.ID {
			return a.Check.ID < b.Check.ID
		}
		return a.Proc < b.Proc
	})
	return r.findings
}

// reporter accumulates findings, dropping disabled checks and exact
// duplicates (the same check at the same position in the same process).
type reporter struct {
	opts     Options
	findings []*Finding
	seen     map[string]bool
}

func (r *reporter) report(f *Finding) {
	if !r.opts.enabled(f.Check) {
		return
	}
	key := fmt.Sprintf("%s|%s|%d|%d", f.Check.ID, f.Proc, f.Pos.Line, f.Pos.Column)
	if r.seen == nil {
		r.seen = make(map[string]bool)
	}
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.findings = append(r.findings, f)
}

// localName names slot s of p for messages.
func localName(p *ir.Proc, s int) string {
	if s >= 0 && s < len(p.LocalName) && p.LocalName[s] != "" {
		return p.LocalName[s]
	}
	return fmt.Sprintf("t%d", s)
}
