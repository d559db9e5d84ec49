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

// FormatSchedule renders the schedule for espc -dump-schedule:
// deterministic (channels by id), one line per channel, with process
// names resolved against prog.
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
	return b.String()
}
