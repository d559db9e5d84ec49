package mc

import (
	"fmt"

	"esplang/internal/ir"
	"esplang/internal/vm"
)

// Non-progress cycle detection — SPIN's liveness check, standing in for
// the paper's "more complex properties, like absence of starvation, can
// be specified using LTL" (§5.1).
//
// The user designates progress channels; a communication on one of them
// is a progress step (SPIN's progress labels). A reachable cycle composed
// entirely of non-progress transitions means the system can run forever
// without ever making progress — starvation.
//
// The search builds the full state graph (exhaustive mode), then finds a
// cycle in the subgraph of non-progress edges via an iterative DFS.

// CheckProgress explores the state space exhaustively and then looks for
// a non-progress cycle. progressChannels name the channels whose
// communications count as progress.
func CheckProgress(prog *ir.Program, progressChannels []string, opts Options) *Result {
	opts.fill()
	res := &Result{Mode: Exhaustive}

	progressChan := map[int]bool{}
	for _, name := range progressChannels {
		ch := prog.ChannelByName(name)
		if ch == nil {
			res.Violation = &Violation{Fault: &vm.Fault{
				Kind: vm.FaultInternal,
				Msg:  fmt.Sprintf("no channel %q for progress labeling", name),
			}}
			return res
		}
		progressChan[ch.ID] = true
	}

	// Phase 1: enumerate the reachable state graph.
	type edge struct {
		to       int
		progress bool
		desc     string
	}
	// States are kept as compact snapshots and replayed into one scratch
	// machine, so graph construction doesn't retain a full machine clone
	// per state. As in the frontier search, the collapse store tells
	// states apart without storing their keys; each shard numbers its
	// states densely, so dense maps a handle to the state's index.
	var (
		visited = newCollapseSet(1 + len(prog.Procs))
		ks      keyScratch
		dense   [numShards][]int
		snaps   []*vm.SavedState
		refs    []stateRef
		edges   [][]edge
		snap    *vm.SavedState
		kb      []byte
	)
	m := newMachine(prog, opts)
	// visit returns the index of m's state, admitting it if new: one
	// SaveKey pass yields both the key and the snapshot, which is kept
	// only for a new state. It reports false when a new state would
	// exceed MaxStates; the search then stops.
	visit := func() (int, bool) {
		snap, kb = m.SaveKey(snap, kb[:0])
		ref, added := visited.TryAdd(&ks, kb, snap.KeySegments())
		if !added {
			return dense[ref.shard()][ref.index()], true
		}
		if len(snaps) >= opts.MaxStates {
			return 0, false
		}
		j := len(snaps)
		dense[ref.shard()] = append(dense[ref.shard()], j)
		snaps = append(snaps, snap)
		refs = append(refs, ref)
		edges = append(edges, nil)
		snap = nil
		return j, true
	}

	m.Settle()
	if f := m.Fault(); f != nil {
		res.Violation = &Violation{Fault: f}
		return res
	}
	visit()

expansion:
	for i := 0; i < len(snaps); i++ {
		m.RestoreState(snaps[i])
		visited.Parent(&ks, refs[i])
		for _, c := range m.EnabledComms() {
			m.RestoreState(snaps[i]) // each firing starts from state i
			desc := newStep(m, prog, c).Desc
			m.FireComm(c)
			res.Transitions++
			if f := m.Fault(); f != nil {
				res.Violation = &Violation{Fault: f}
				res.States = len(snaps)
				res.MemBytes = visited.MemBytes()
				return res
			}
			j, ok := visit() // may grow edges: call it before indexing
			if !ok {
				// The state bound is reached: stop, as the frontier
				// search does, and look for a cycle in the graph so far.
				res.Truncated = true
				break expansion
			}
			edges[i] = append(edges[i], edge{to: j, progress: progressChan[c.Chan], desc: desc})
		}
	}
	res.States = len(snaps)
	res.MemBytes = visited.MemBytes()

	// Phase 2: a cycle using only non-progress edges. Iterative DFS with
	// colors: 0 unvisited, 1 on stack, 2 done.
	color := make([]uint8, len(snaps))
	parent := make([]int, len(snaps))
	parentEdge := make([]string, len(snaps))
	for i := range parent {
		parent[i] = -1
	}
	var cycleAt = -1
	var cycleTo = -1
	var cycleDesc string

	var stack []int
	push := func(s int) { color[s] = 1; stack = append(stack, s) }
	for root := 0; root < len(snaps) && cycleAt < 0; root++ {
		if color[root] != 0 {
			continue
		}
		push(root)
		// Explicit DFS: track per-node next-edge index.
		next := map[int]int{}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			advanced := false
			for next[s] < len(edges[s]) {
				e := edges[s][next[s]]
				next[s]++
				if e.progress {
					continue // progress edges break non-progress cycles
				}
				switch color[e.to] {
				case 0:
					parent[e.to] = s
					parentEdge[e.to] = e.desc
					push(e.to)
					advanced = true
				case 1:
					cycleAt = e.to
					cycleTo = s
					cycleDesc = e.desc
				}
				if advanced || cycleAt >= 0 {
					break
				}
			}
			if cycleAt >= 0 {
				break
			}
			if !advanced {
				color[s] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}

	if cycleAt >= 0 {
		// Reconstruct the cycle portion from the DFS parents.
		var steps []TraceStep
		for s := cycleTo; s != cycleAt && s >= 0; s = parent[s] {
			steps = append(steps, TraceStep{Desc: parentEdge[s]})
		}
		// Reverse into forward order and close the loop.
		for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
			steps[i], steps[j] = steps[j], steps[i]
		}
		steps = append(steps, TraceStep{Desc: cycleDesc + "  (closes the cycle)"})
		res.Violation = &Violation{
			Fault: &vm.Fault{Kind: vm.FaultAssert,
				Msg: "non-progress cycle: the system can run forever without progress (starvation)"},
			Trace: steps,
		}
	}
	return res
}
