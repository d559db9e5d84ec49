// Static transition-independence facts: the result of the whole-program
// independence analysis (analysis.ComputeIndependence). The table
// records, per channel, every process that can ever stand on either side
// of a rendezvous on it, and, per process, whether the process follows
// the exclusive-ownership discipline (§4.4) that keeps its heap region
// disjoint from every other process's at quiescent states. From those
// facts it derives a conservative per-process-pair commutation relation:
// two enabled transitions of independent processes can be fired in
// either order without changing the reachable states, the enabledness of
// other transitions, or which faults fire.
//
// The model checker's ample-set partial-order reduction consumes the
// table (mc.Options.Reduction), and the espvet diagnostic ESPV013
// (always-independent alt arms) is read straight off the pair relation.
package ir

import (
	"fmt"
	"strings"
)

// Independence is the whole-program transition-independence side table
// (the analogue of Schedule for the search, rather than the scheduler).
type Independence struct {
	// Touch[ch] lists the processes with a reachable communication site
	// on channel ch, either direction, alt arms included — sorted
	// ascending. A process not in Touch[ch] can never block on ch, so it
	// can never be the counterparty of a transition on ch.
	Touch [][]int
	// ChanExt[ch] marks channels with an external binding: the
	// environment may supply a counterparty the program text cannot see,
	// so transitions on them are never classified independent.
	ChanExt []bool
	// Clean[p] reports that process p follows the exclusive-ownership
	// discipline: every object it sends (or embeds in a sent value) stops
	// being referenced by p before p's next blocking point, and it never
	// creates intra-process aliases the per-slot model cannot follow. In
	// a program whose processes are all clean, every heap object is
	// referenced by exactly one non-halted process at every quiescent
	// state, so transitions of disjoint process pairs touch disjoint
	// heap regions.
	Clean []bool
	// CleanReason[p] explains why p is not clean ("" when clean).
	CleanReason []string
	// Region[p] is the ref-flow region of p: processes connected by
	// channels whose element type carries references share a region
	// (objects can only travel along such channels). -1 when p touches no
	// reference-carrying channel.
	Region []int
	// DirtyRegion[r] marks regions containing an unclean process (or a
	// reference-carrying external channel): processes of a dirty region
	// may share heap objects at quiescent states, so they are mutually
	// dependent and must stay on one side of any ample split.
	DirtyRegion []bool
	// Pairs[p][q] is the derived relation: true when every transition of
	// p commutes with every transition of q (p != q, no shared channel,
	// heap-compatible).
	Pairs [][]bool
}

// HeapCompatible reports that transitions of p and q always touch
// disjoint heap regions: they are in different ref-flow regions, or
// their common region is clean.
func (ind *Independence) HeapCompatible(p, q int) bool {
	rp := ind.Region[p]
	if rp < 0 || rp != ind.Region[q] {
		return true
	}
	return !ind.DirtyRegion[rp]
}

// Independent reports the derived pair relation (false on the diagonal).
func (ind *Independence) Independent(p, q int) bool {
	return p != q && ind.Pairs[p][q]
}

// FormatIndependence renders the table for espc -dump-indep:
// deterministic, one line per channel and per process, with the pair
// matrix summarized as each process's independent-partner set.
func FormatIndependence(prog *Program, ind *Independence) string {
	procName := func(i int) string {
		if i >= 0 && i < len(prog.Procs) {
			return prog.Procs[i].Name
		}
		return fmt.Sprintf("proc%d", i)
	}
	nameList := func(idx []int) string {
		if len(idx) == 0 {
			return "{}"
		}
		names := make([]string, len(idx))
		for i, p := range idx {
			names[i] = procName(p)
		}
		return "{" + strings.Join(names, " ") + "}"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "transition independence for %s\n", prog.Name)

	b.WriteString("\nchannels (procs with reachable sites):\n")
	for ch := range prog.Channels {
		ext := ""
		if ind.ChanExt[ch] {
			ext = "  [external]"
		}
		fmt.Fprintf(&b, "  %-12s %s%s\n", prog.Channels[ch].Name+":", nameList(ind.Touch[ch]), ext)
	}

	b.WriteString("\nprocesses (heap discipline):\n")
	for p := range prog.Procs {
		state := "clean"
		if !ind.Clean[p] {
			state = "unclean: " + ind.CleanReason[p]
		}
		region := "-"
		if ind.Region[p] >= 0 {
			region = fmt.Sprintf("%d", ind.Region[p])
			if ind.DirtyRegion[ind.Region[p]] {
				region += " (dirty)"
			}
		}
		fmt.Fprintf(&b, "  %-12s region=%-10s %s\n", procName(p)+":", region, state)
	}

	b.WriteString("\nindependent pairs:\n")
	any := false
	for p := range prog.Procs {
		var partners []int
		for q := range prog.Procs {
			if ind.Independent(p, q) {
				partners = append(partners, q)
			}
		}
		if len(partners) > 0 {
			any = true
			fmt.Fprintf(&b, "  %-12s %s\n", procName(p)+":", nameList(partners))
		}
	}
	if !any {
		b.WriteString("  (none)\n")
	}
	return b.String()
}
