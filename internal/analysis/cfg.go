package analysis

import "esplang/internal/ir"

// edge is one CFG edge. For the successors of an Alt instruction it
// carries the arm taken, whose pattern bindings are edge effects: the
// receive arm's bound slots are assigned on the edge into the arm body,
// not by any instruction.
type edge struct {
	to  int        // successor block index
	arm *ir.AltArm // non-nil on Alt -> arm-entry edges
}

// block is one basic block: the half-open instruction range
// [start, end) and its successor edges.
type block struct {
	start, end int
	succs      []edge
}

// cfg is the control-flow graph of one process. Its blocks, successors
// and per-pc operand-stack depths come from internal/ir (Leaders, Succs,
// StackDepths: every reachable pc has exactly one entry depth, the
// invariant ir.Verify proves, which the ownership analysis uses to model
// the abstract operand stack across a block). On top of those it adds
// espvet's own rules: an Alt's edges go to its arms and carry them, a
// branch on a constant keeps only the edge it takes, and a block is
// reachable only along those edges from the entry.
type cfg struct {
	blocks    []block
	blockOf   []int  // pc -> enclosing block index
	depth     []int  // pc -> operand stack depth on entry (-1 where no root reaches)
	reachable []bool // block index -> reachable from entry
}

// buildCFG splits the process's code into basic blocks and links them.
func buildCFG(p *ir.Proc) *cfg {
	n := len(p.Code)
	g := &cfg{}
	if n == 0 {
		return g
	}
	leader := ir.Leaders(p, false)
	g.blockOf = make([]int, n)
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			g.blocks = append(g.blocks, block{start: pc})
		}
		g.blockOf[pc] = len(g.blocks) - 1
	}
	for i := range g.blocks {
		if i+1 < len(g.blocks) {
			g.blocks[i].end = g.blocks[i+1].start
		} else {
			g.blocks[i].end = n
		}
	}

	// Successor edges, from each block's final instruction.
	var succs []int
	for i := range g.blocks {
		b := &g.blocks[i]
		last := b.end - 1
		if in := p.Code[last]; in.Op == ir.Alt {
			alt := &p.Alts[in.A]
			for j := range alt.Arms {
				arm := &alt.Arms[j]
				entry := arm.BodyPC
				if arm.IsSend {
					entry = arm.EvalPC
				}
				b.succs = append(b.succs, edge{to: g.blockOf[entry], arm: arm})
			}
			continue
		}
		succs = ir.Succs(p, last, succs[:0])
		// A branch whose condition is a constant pushed in the same block
		// is decided: while(true) compiles to Const 1; JumpIfFalse exit,
		// and treating the exit edge as real would hide every statement
		// after an infinite loop from the unreachable-code check (and blur
		// the other analyses' joins). Succs lists the target first.
		if taken, known := constBranch(p, b, last); known {
			if taken {
				succs = succs[:1]
			} else {
				succs = succs[1:]
			}
		}
		for _, s := range succs {
			if s < n {
				b.succs = append(b.succs, edge{to: g.blockOf[s]})
			}
		}
	}

	// The error is ir.Verify's, which compiled and optimized IR passes.
	g.depth, _ = ir.StackDepths(p)
	g.reachable = make([]bool, len(g.blocks))
	g.reachable[0] = true
	work := []int{0}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.blocks[bi].succs {
			if !g.reachable[e.to] {
				g.reachable[e.to] = true
				work = append(work, e.to)
			}
		}
	}
	return g
}

// constBranch reports whether the conditional branch at pc is decided by
// a constant condition pushed immediately before it in the same block,
// and if so whether the branch is taken.
func constBranch(p *ir.Proc, b *block, pc int) (taken, known bool) {
	op := p.Code[pc].Op
	if op != ir.JumpIfFalse && op != ir.JumpIfTrue || pc-1 < b.start || p.Code[pc-1].Op != ir.Const {
		return false, false
	}
	cond := p.Code[pc-1].Val != 0
	if op == ir.JumpIfFalse {
		return !cond, true
	}
	return cond, true
}

// preds returns the predecessor edges of every block: preds[bi] lists
// the (source block, edge) pairs flowing into bi.
func (g *cfg) preds() [][]predEdge {
	p := make([][]predEdge, len(g.blocks))
	for bi := range g.blocks {
		for _, e := range g.blocks[bi].succs {
			p[e.to] = append(p[e.to], predEdge{from: bi, e: e})
		}
	}
	return p
}

// predEdge is an incoming CFG edge.
type predEdge struct {
	from int
	e    edge
}
