package mc

import (
	"math/bits"

	"esplang/internal/analysis"
	"esplang/internal/ir"
	"esplang/internal/vm"
)

// Ample-set partial-order reduction (Options.Reduction: AmpleSets).
//
// At each expanded state the search looks for a closed group S of
// processes whose enabled communications can stand in for the full
// successor set. S is grown from a base process by a fixed closure rule:
// for every member, every channel it currently offers a communication on
// pulls in every process with a static site on that channel
// (ir.Independence.Touch); a member of a dirty ref-flow region pulls in
// the whole region. The closure gives the two facts the reduction rests
// on:
//
//   - any enabled communication involving a member of S has both
//     endpoints in S (the counterparty has a site on the offered
//     channel), so the "ample" transitions are exactly the enabled
//     communications inside S — and no member of S can move except by
//     firing one of them;
//   - a process outside S can never communicate with a member of S
//     before some ample transition fires: doing so would need a site on
//     a channel a member offers, which would have placed it in S. So
//     every transition outside S involves two processes disjoint from S,
//     and — by heap-cleanliness or region disjointness — commutes with
//     every ample transition.
//
// A channel with an external binding poisons the candidate (the
// environment is a counterparty the closure cannot enumerate). The
// chosen ample set is the valid candidate with the fewest enabled
// communications, ties broken by smallest base process — a pure function
// of the quiescent state and the static table, so Workers: 1 searches
// are bit-for-bit reproducible.
//
// The cycle proviso is handled at expansion time (see expand): if firing
// the ample prefix reaches only states whose own expansion has already
// started (closed states — in bit-state mode, where closedness is not
// tracked, any visited state), the expansion falls back to the full
// successor set, so transitions deferred around a cycle are never
// ignored forever. Faults and deadlocks are reported exactly
// as in the full search; the accepted divergence is FaultOutOfObjects,
// whose global live-object peak can depend on the interleaving the
// search takes (the differential tests exempt it, as they already do for
// optimization-level comparisons).

// porProcLimit bounds the bitmask closure; programs with more processes
// fall back to full expansion. (64 processes is far beyond any model in
// the repo; lifting it means swapping the uint64 masks for bitsets.)
const porProcLimit = 64

// independence returns the program's independence table, computing it on
// demand for unoptimized programs.
func independence(prog *ir.Program) *ir.Independence {
	if prog.Indep != nil {
		return prog.Indep
	}
	return analysis.ComputeIndependence(prog)
}

// ampleScratch is a worker's reusable scratch for ampleOrder: the
// channels one process offers, and the partitioned communications.
type ampleScratch struct {
	chans []int
	part  []vm.CommChoice
}

// ampleOrder partitions comms in place so that a valid ample set forms a
// prefix, and returns the prefix length — len(comms) when no proper
// ample set exists (full expansion). The relative order within both
// partitions is preserved, so the sequential search stays deterministic.
func (s *search) ampleOrder(w *worker, m *vm.Machine, comms []vm.CommChoice) int {
	full := len(comms)
	if !s.reduce || full < 2 || len(s.prog.Procs) > porProcLimit {
		return full
	}

	// Candidate bases: every process participating in an enabled
	// communication, ascending.
	var partic uint64
	for _, c := range comms {
		partic |= 1<<uint(c.Sender) | 1<<uint(c.Receiver)
	}

	bestCount, bestSet := full, uint64(0)
	for base := 0; base < len(s.prog.Procs); base++ {
		if partic&(1<<uint(base)) == 0 {
			continue
		}
		set, ok := s.ampleClosure(&w.ample, m, base)
		if !ok || set == bestSet {
			continue
		}
		count := 0
		for _, c := range comms {
			if set&(1<<uint(c.Sender)) != 0 {
				count++
			}
		}
		if count > 0 && count < bestCount {
			bestCount, bestSet = count, set
		}
	}
	if bestCount >= full {
		return full
	}

	// Stable partition: ample communications first.
	part := w.ample.part[:0]
	for _, c := range comms {
		if bestSet&(1<<uint(c.Sender)) != 0 {
			part = append(part, c)
		}
	}
	for _, c := range comms {
		if bestSet&(1<<uint(c.Sender)) == 0 {
			part = append(part, c)
		}
	}
	copy(comms, part)
	w.ample.part = part
	return bestCount
}

// ampleClosure grows the closed process set from base on the current
// quiescent state. It reports false when the closure crosses an
// externally bound channel. The worklist is a bitmask of members whose
// offers are not yet followed; the closure is the same set whatever
// order they are followed in.
func (s *search) ampleClosure(sc *ampleScratch, m *vm.Machine, base int) (uint64, bool) {
	ind := s.ind
	var set, work uint64
	add := func(p int) {
		if set&(1<<uint(p)) != 0 {
			return
		}
		set |= 1 << uint(p)
		work |= 1 << uint(p)
		// A dirty ref-flow region may share heap objects among its
		// members: keep it whole on one side of the split.
		if r := ind.Region[p]; r >= 0 && ind.DirtyRegion[r] {
			for q := range ind.Region {
				if ind.Region[q] == r && set&(1<<uint(q)) == 0 {
					set |= 1 << uint(q)
					work |= 1 << uint(q)
				}
			}
		}
	}
	add(base)
	for work != 0 {
		p := bits.TrailingZeros64(work)
		work &^= 1 << uint(p)
		sc.chans = m.OfferedChannels(p, sc.chans[:0])
		for _, ch := range sc.chans {
			if ind.ChanExt[ch] {
				return 0, false
			}
			for _, q := range ind.Touch[ch] {
				add(q)
			}
		}
	}
	return set, true
}
