package mc

import (
	"fmt"
	"slices"

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
// The search is the frontier search (frontier.go), with one addition:
// every worker logs each transition it fires as an edge between the two
// states' visited-set handles. After the search an iterative depth-first
// search over the non-progress edges looks for a cycle. The
// counterexample is the discovery-tree path from the initial state to the
// cycle's first state, then the cycle, replayed like any other.

// edge is one logged transition: the expanded state, its successor, the
// index of the fired communication in the expanded state's enabled list,
// whether it is on a progress channel, and whether it discovered the
// successor. The discovering edges form the search's discovery tree.
type edge struct {
	from, to stateRef
	comm     uint32
	progress bool
	tree     bool
}

// CheckProgress explores the state space and then looks for a
// non-progress cycle. progressChannels name the channels whose
// communications count as progress. The search is always exhaustive and
// unreduced — a cycle search needs state identities, and the reduction
// has no visibility condition for progress transitions — and it does not
// report deadlocks.
func CheckProgress(prog *ir.Program, progressChannels []string, opts Options) *Result {
	progress := make([]bool, len(prog.Channels))
	for _, name := range progressChannels {
		ch := prog.ChannelByName(name)
		if ch == nil {
			return &Result{Mode: Exhaustive, Violation: &Violation{Fault: &vm.Fault{
				Kind: vm.FaultInternal,
				Msg:  fmt.Sprintf("no channel %q for progress labeling", name),
			}}}
		}
		progress[ch.ID] = true
	}
	opts.Mode, opts.Reduction, opts.NoDeadlockCheck = Exhaustive, NoReduction, true
	return check(prog, opts, progress)
}

// nonProgressCycle looks for a cycle of non-progress edges among those
// the workers of a finished progress search logged, and returns its
// counterexample, or nil when there is none.
func (s *search) nonProgressCycle() *Violation {
	// Number the states densely, shard by shard.
	store := s.visited.(*collapseSet) // a progress search is exhaustive
	var base [numShards]int
	n := 0
	for i := range store.shards {
		base[i] = n
		n += store.shards[i].n
	}
	dense := func(r stateRef) int { return base[r.shard()] + r.index() }

	// tree[v] is the edge that discovered state v (nil for the initial
	// state), and adj[row[v]:row[v+1]] are the non-progress edges
	// leaving v.
	tree := make([]*edge, n)
	row := make([]int, n+1)
	for _, log := range s.edges {
		for i := range log {
			e := &log[i]
			if e.tree {
				tree[dense(e.to)] = e
			}
			if !e.progress {
				row[dense(e.from)+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		row[v+1] += row[v]
	}
	next := slices.Clone(row[:n])
	adj := make([]*edge, row[n])
	for _, log := range s.edges {
		for i := range log {
			if e := &log[i]; !e.progress {
				v := dense(e.from)
				adj[next[v]] = e
				next[v]++
			}
		}
	}
	copy(next, row)

	// Colour DFS: 0 unvisited, 1 on the stack, 2 done. next[v] is the
	// next edge of v to follow, so adj[next[v]-1] leads from a stacked
	// state to the one above it, and an edge back into the stack closes
	// a cycle.
	color := make([]uint8, n)
	var stack []int
	for r := 0; r < n; r++ {
		if color[r] != 0 {
			continue
		}
		color[r] = 1
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if next[v] == row[v+1] {
				color[v] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			e := adj[next[v]]
			next[v]++
			w := dense(e.to)
			switch color[w] {
			case 0:
				color[w] = 1
				stack = append(stack, w)
			case 1:
				var path []*edge
				for t := tree[w]; t != nil; t = tree[dense(t.from)] {
					path = append(path, t)
				}
				slices.Reverse(path)
				stem := len(path)
				for _, u := range stack[slices.Index(stack, w):] {
					path = append(path, adj[next[u]-1])
				}
				return s.cycleViolation(path, stem)
			}
		}
	}
	return nil
}

// cycleViolation turns a path of logged edges from the initial state — a
// stem of length stem, then a cycle — into a counterexample.
func (s *search) cycleViolation(path []*edge, stem int) *Violation {
	// An edge names its communication by index in its source state's
	// enabled list; one replay from the initial state turns the indices
	// into choices.
	m := newMachine(s.prog, s.opts)
	m.Settle()
	choices := make([]vm.CommChoice, len(path))
	for i, e := range path {
		choices[i] = m.EnabledComms()[e.comm]
		m.FireComm(choices[i])
	}
	trace, pm := replayTrace(s.prog, s.opts, choices)
	trace[stem].Desc += "  (cycle starts)"
	trace[len(trace)-1].Desc += "  (closes the cycle)"
	return &Violation{
		Fault: &vm.Fault{Kind: vm.FaultAssert,
			Msg: "non-progress cycle: the system can run forever without progress (starvation)"},
		Trace:      trace,
		Postmortem: pm,
	}
}
