package ir

import "fmt"

// Control flow of one process. Every consumer of the IR derives its
// blocks, successors, entry points, reachability and operand-stack
// depths from these functions: Verify's stack check, the fused
// translation's group boundaries, the optimizer's block-local rewrites
// and dead-code removal, and espvet's CFG.

// Succs appends to dst the pcs control can go to after executing the
// instruction at pc: a jump's target; a branch's target, then its
// fall-through; nothing after Halt or Alt (an alt continues in its arms,
// which are roots); pc+1 after anything else. A result equal to
// len(p.Code) means control falls off the end, which Verify rejects.
func Succs(p *Proc, pc int, dst []int) []int {
	in := p.Code[pc]
	switch in.Op {
	case Jump:
		return append(dst, in.A)
	case JumpIfFalse, JumpIfTrue:
		return append(dst, in.A, pc+1)
	case Halt, Alt:
		return dst
	}
	return append(dst, pc+1)
}

// Roots appends to dst the pcs control enters a process at without a
// predecessor instruction: pc 0, then, alt by alt and arm by arm, each
// send arm's value-evaluation code (EvalPC) and each arm's body
// (BodyPC). An alt arm resumes at a statement boundary, so every root is
// entered with an empty operand stack.
func Roots(p *Proc, dst []int) []int {
	dst = append(dst, 0)
	for _, alt := range p.Alts {
		for _, arm := range alt.Arms {
			if arm.IsSend {
				dst = append(dst, arm.EvalPC)
			}
			dst = append(dst, arm.BodyPC)
		}
	}
	return dst
}

// Leaders marks the pcs that start a basic block: the roots, every jump
// and branch target, and the pc after every jump, branch, Halt and Alt.
// With resume set it also marks the pc after every Send, SendCommit and
// Recv, where a process resumes after a rendezvous: the fused
// translation must not cover such a pc inside a group, and the
// optimizer's block-local rewrites must not carry facts across it. Pcs
// outside the code are not marked.
func Leaders(p *Proc, resume bool) []bool {
	n := len(p.Code)
	lead := make([]bool, n)
	mark := func(pc int) {
		if pc >= 0 && pc < n {
			lead[pc] = true
		}
	}
	var roots [8]int
	for _, pc := range Roots(p, roots[:0]) {
		mark(pc)
	}
	for pc, in := range p.Code {
		switch in.Op {
		case Jump, JumpIfFalse, JumpIfTrue:
			mark(in.A)
			mark(pc + 1)
		case Halt, Alt:
			mark(pc + 1)
		case Send, SendCommit, Recv:
			if resume {
				mark(pc + 1)
			}
		}
	}
	return lead
}

// Reachable reports, per pc, whether control can get there from a root.
func Reachable(p *Proc) []bool {
	n := len(p.Code)
	reach := make([]bool, n)
	// The work stack starts as the roots, deduplicated in order.
	work := Roots(p, make([]int, 0, n+1))
	k := 0
	for _, pc := range work {
		if pc >= 0 && pc < n && !reach[pc] {
			reach[pc] = true
			work[k] = pc
			k++
		}
	}
	work = work[:k]
	var succs [2]int
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range Succs(p, pc, succs[:0]) {
			if s >= 0 && s < n && !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	return reach
}

// StackDepths propagates operand-stack depths from the roots, which are
// entered at depth 0, and returns each pc's entry depth (-1 where no
// root reaches). It reports the first underflow, overflow past MaxStack,
// pc entered at two different depths, or control flowing past the end
// of the code; the depths are then complete only up to that point.
func StackDepths(p *Proc) ([]int, error) {
	n := len(p.Code)
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	if n == 0 {
		return depth, nil
	}
	bad := func(pc int, format string, args ...any) error {
		return &VerifyError{Proc: p.Name, PC: pc, Msg: fmt.Sprintf(format, args...)}
	}
	// The work stack starts as the roots, each entered at depth 0 and
	// kept at its first occurrence; every pc is pushed at most once.
	work := Roots(p, make([]int, 0, n+1))
	k := 0
	for _, pc := range work {
		if pc < 0 || pc >= n {
			return depth, bad(pc, "control flows past the end of code")
		}
		if depth[pc] == -1 {
			depth[pc] = 0
			work[k] = pc
			k++
		}
	}
	work = work[:k]
	var succs [2]int
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := p.Code[pc]
		d := depth[pc]
		if need := StackIn(in); d < need {
			return depth, bad(pc, "stack underflow: %s needs %d operands, depth is %d", in.Op, need, d)
		}
		after := d + StackEffect(in)
		if after > p.MaxStack {
			return depth, bad(pc, "stack overflow: depth %d exceeds MaxStack %d", after, p.MaxStack)
		}
		for _, s := range Succs(p, pc, succs[:0]) {
			switch {
			case s < 0 || s >= n:
				return depth, bad(s, "control flows past the end of code")
			case depth[s] == -1:
				depth[s] = after
				work = append(work, s)
			case depth[s] != after:
				return depth, bad(s, "inconsistent stack depth: entered at %d and %d", depth[s], after)
			}
		}
	}
	return depth, nil
}
