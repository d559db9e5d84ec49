// Static rendezvous schedule: the result of the optimizer's
// FuseProcesses pass. The schedule records, per channel, which processes
// can ever stand on each side of a rendezvous (the candidate-narrowing
// lists the VM's scan loops use) and, for channels where exactly one
// sender process meets exactly one receiver process over plain Send/Recv
// sites, the statically-matched pair the direct-transfer instructions
// compile against. Channels that stay dynamic carry a reason string so
// `espc -dump-schedule` can explain the fallback.
package ir

import (
	"fmt"
	"sort"
	"strings"
)

// SchedPair is one statically-matched channel: every reachable send is
// in process Sender, every reachable receive in process Recv, and all
// sites are plain Send/Recv (no alt arms, no external binding).
type SchedPair struct {
	Chan    int
	Sender  int   // process index
	Recv    int   // process index
	SendPCs []int // reachable Send pcs in Sender, ascending
	RecvPCs []int // reachable Recv pcs in Recv, ascending
}

// Schedule is the whole-program static rendezvous schedule.
type Schedule struct {
	// Pairs lists the fused channels, ascending by channel id.
	Pairs []SchedPair
	// Writers[ch] / Readers[ch] are the sorted indices of processes with
	// a reachable send-side / receive-side site on channel ch (alt arms
	// included). The VM's rendezvous and poll scans iterate these instead
	// of every process; ascending order preserves the baseline's
	// first-match semantics.
	Writers [][]int
	Readers [][]int
	// Internal[ch] reports that ch has no external binding, so the
	// external-channel lookups on the rendezvous path can be skipped.
	Internal []bool
	// Reason[ch] explains why ch stays on dynamic rendezvous ("" = fused).
	Reason []string
}

// FusionGroups returns the connected components of the fused-pair graph,
// each in static interleave order: senders before their receivers where
// the component is acyclic (Kahn's algorithm, ties broken by process
// index), process-index order otherwise (a ping-pong cycle has no
// sender-first order). Components are ordered by their smallest member.
func (s *Schedule) FusionGroups() [][]int {
	if len(s.Pairs) == 0 {
		return nil
	}
	// Union the pair endpoints into components.
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, p := range s.Pairs {
		ra, rb := find(p.Sender), find(p.Recv)
		if ra != rb {
			parent[ra] = rb
		}
	}
	members := map[int][]int{}
	for x := range parent {
		r := find(x)
		members[r] = append(members[r], x)
	}
	var roots []int
	for r := range members {
		sort.Ints(members[r])
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return members[roots[i]][0] < members[roots[j]][0] })

	groups := make([][]int, 0, len(roots))
	for _, r := range roots {
		groups = append(groups, topoOrder(members[r], s.Pairs))
	}
	return groups
}

// topoOrder orders one component's members sender-first when possible.
func topoOrder(procs []int, pairs []SchedPair) []int {
	in := map[int]bool{}
	for _, p := range procs {
		in[p] = true
	}
	indeg := map[int]int{}
	succ := map[int][]int{}
	for _, pr := range pairs {
		if in[pr.Sender] && in[pr.Recv] {
			succ[pr.Sender] = append(succ[pr.Sender], pr.Recv)
			indeg[pr.Recv]++
		}
	}
	var order []int
	avail := []int{}
	for _, p := range procs {
		if indeg[p] == 0 {
			avail = append(avail, p)
		}
	}
	for len(avail) > 0 {
		sort.Ints(avail)
		p := avail[0]
		avail = avail[1:]
		order = append(order, p)
		for _, q := range succ[p] {
			indeg[q]--
			if indeg[q] == 0 {
				avail = append(avail, q)
			}
		}
	}
	if len(order) != len(procs) {
		return procs // cyclic (ping-pong): fall back to index order
	}
	return order
}

// FormatSchedule renders the schedule for espc -dump-schedule:
// deterministic (channels by id, groups by smallest member), one line per
// channel, with process names resolved against prog.
func FormatSchedule(prog *Program, s *Schedule) string {
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
	fmt.Fprintf(&b, "static rendezvous schedule for %s\n", prog.Name)

	b.WriteString("\nfused channels (direct transfer):\n")
	if len(s.Pairs) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, p := range s.Pairs {
		fmt.Fprintf(&b, "  %-12s %s -> %s  sends@%v recvs@%v\n",
			prog.Channels[p.Chan].Name+":", procName(p.Sender), procName(p.Recv),
			p.SendPCs, p.RecvPCs)
	}

	b.WriteString("\ndynamic channels (runtime rendezvous):\n")
	any := false
	for ch := range prog.Channels {
		if ch < len(s.Reason) && s.Reason[ch] != "" {
			any = true
			fmt.Fprintf(&b, "  %-12s %-20s writers=%s readers=%s\n",
				prog.Channels[ch].Name+":", s.Reason[ch],
				nameList(s.Writers[ch]), nameList(s.Readers[ch]))
		}
	}
	if !any {
		b.WriteString("  (none)\n")
	}

	if groups := s.FusionGroups(); len(groups) > 0 {
		b.WriteString("\nfusion groups (static interleave order):\n")
		for i, g := range groups {
			names := make([]string, len(g))
			for j, p := range g {
				names[j] = procName(p)
			}
			fmt.Fprintf(&b, "  group %d: %s\n", i, strings.Join(names, " -> "))
		}
	}
	return b.String()
}
