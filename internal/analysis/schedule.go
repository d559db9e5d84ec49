package analysis

import (
	"sort"

	"esplang/internal/ir"
)

// ComputeSchedule builds the static rendezvous schedule the optimizer
// stores on the program. It reuses the channel-protocol facts the espvet
// checks are built on (reachable communication sites per channel, per
// direction): any process without a reachable site on a channel can
// never block on it, so the VM's rendezvous and poll scans may skip it
// without changing which partner is found first (the lists stay in
// ascending process order, matching the baseline scan order).
func ComputeSchedule(prog *ir.Program) *ir.Schedule {
	cfgs := make([]*cfg, len(prog.Procs))
	for i, p := range prog.Procs {
		cfgs[i] = buildCFG(p)
	}
	sends, recvs := collectCommSites(prog, cfgs)

	s := &ir.Schedule{
		Writers: make([][]int, len(prog.Channels)),
		Readers: make([][]int, len(prog.Channels)),
	}
	for _, ch := range prog.Channels {
		id := ch.ID
		s.Writers[id] = procSet(sends[id])
		s.Readers[id] = procSet(recvs[id])
	}
	return s
}

// procSet returns the distinct process indices of the sites, ascending.
func procSet(sites []commSite) []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range sites {
		if !seen[s.pi] {
			seen[s.pi] = true
			out = append(out, s.pi)
		}
	}
	sort.Ints(out)
	return out
}
