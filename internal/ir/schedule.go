// Static rendezvous schedule: the per-channel scan lists the optimizer
// computes once the code settles. The lists record which processes can
// ever stand on each side of a rendezvous, so the VM's partner scans
// walk only those processes instead of the whole process table.
package ir

// Schedule is the whole-program static rendezvous schedule.
type Schedule struct {
	// Writers[ch] / Readers[ch] are the sorted indices of processes with
	// a reachable send-side / receive-side site on channel ch (alt arms
	// included). The VM's rendezvous and poll scans iterate these instead
	// of every process; ascending order preserves the baseline's
	// first-match semantics.
	Writers [][]int
	Readers [][]int
}
