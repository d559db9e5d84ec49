package vm

import (
	"fmt"
	"strings"
)

// CostModel assigns a cycle cost to each class of runtime event. The
// defaults approximate the 33 MHz LANai4.1 of the paper's Myrinet cards:
// the interpreter dispatch makes one IR instruction cost several machine
// instructions, a context switch saves and restores only a program counter
// (§6.1, "a few instructions"), and a rendezvous is a handful of loads and
// stores plus the pattern walk.
type CostModel struct {
	PerInstr     int64 // every executed IR instruction
	CtxSwitch    int64 // switching the running process
	Rendezvous   int64 // completing one message transfer
	Alloc        int64 // heap allocation
	RefOp        int64 // link/unlink
	PatternNode  int64 // per pattern node tested or bound
	MaskCheck    int64 // readiness check against one process's wait bit-mask
	QueueOp      int64 // enqueue/dequeue in wait-queue mode (ablation)
	ExternalPoll int64 // polling one external channel binding
	DeepCopyWord int64 // per word copied when ForceDeepCopy is on (ablation)
}

// DefaultCostModel returns the calibrated cost model used by the
// benchmarks.
func DefaultCostModel() CostModel {
	return CostModel{
		PerInstr:     2,
		CtxSwitch:    5,
		Rendezvous:   8,
		Alloc:        8,
		RefOp:        1,
		PatternNode:  1,
		MaskCheck:    1,
		QueueOp:      6,
		ExternalPoll: 2,
		DeepCopyWord: 2,
	}
}

// ZeroCostModel returns a model where nothing costs anything (used by the
// model checker, which cares about states, not cycles).
func ZeroCostModel() CostModel { return CostModel{} }

// Stats counts runtime events, independent of the cost model.
type Stats struct {
	Instrs       int64
	CtxSwitches  int64
	Rendezvous   int64
	Allocs       int64
	Frees        int64
	RefOps       int64
	PatternNodes int64
	MaskChecks   int64
	QueueOps     int64
	Polls        int64
	DeepCopied   int64 // words
}

// Sub returns the event counts accumulated since o was captured
// (field-wise s - o). Use it to meter one phase of a longer run:
//
//	before := m.Stats
//	...
//	delta := m.Stats.Sub(before)
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Instrs:       s.Instrs - o.Instrs,
		CtxSwitches:  s.CtxSwitches - o.CtxSwitches,
		Rendezvous:   s.Rendezvous - o.Rendezvous,
		Allocs:       s.Allocs - o.Allocs,
		Frees:        s.Frees - o.Frees,
		RefOps:       s.RefOps - o.RefOps,
		PatternNodes: s.PatternNodes - o.PatternNodes,
		MaskChecks:   s.MaskChecks - o.MaskChecks,
		QueueOps:     s.QueueOps - o.QueueOps,
		Polls:        s.Polls - o.Polls,
		DeepCopied:   s.DeepCopied - o.DeepCopied,
	}
}

// String renders the counters on one line, zero fields omitted — the
// shared pretty-printer behind esprun -stats, vmmcbench's overhead
// table, and the profiler's summaries.
func (s Stats) String() string {
	var b strings.Builder
	add := func(name string, v int64) {
		if v == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", name, v)
	}
	add("instrs", s.Instrs)
	add("ctxsw", s.CtxSwitches)
	add("rendezvous", s.Rendezvous)
	add("allocs", s.Allocs)
	add("frees", s.Frees)
	add("refops", s.RefOps)
	add("patnodes", s.PatternNodes)
	add("maskchecks", s.MaskChecks)
	add("queueops", s.QueueOps)
	add("polls", s.Polls)
	add("deepcopied", s.DeepCopied)
	if b.Len() == 0 {
		return "(no events)"
	}
	return b.String()
}
