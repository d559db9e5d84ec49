// Package opt implements the per-process IR optimizations of §6.1.
//
// The ESP compiler performs "some of the traditional optimizations like
// copy propagation and dead code elimination on each process separately
// before combining them to generate the C code", exploiting semantic
// information the C compiler no longer sees. Run applies one fixed
// pipeline:
//
//   - cross-process constant propagation over channels (crossproc.go,
//     the paper's §6.2 future work);
//   - constant folding (including branch folding);
//   - mutability-cast reuse: a CastCopy whose source object is provably
//     dead afterwards becomes an in-place CastReuse, eliding the copy
//     (§4.2: "if the compiler can determine that the object being cast is
//     no longer used afterwards, it can reuse that object");
//   - copy propagation within basic blocks;
//   - unreachable-code elimination: instructions that no path from the
//     process's roots reaches (ir.Reachable) are dropped, and so are the
//     Nops the other rewrites leave;
//   - once the code settles, the static rendezvous schedule
//     (analysis.ComputeSchedule), whose per-channel scan lists narrow
//     the VM's partner searches, and the fused translation
//     (ir.FuseProgram).
//
// The only ablation is the whole pipeline: a compile without it
// (esplang.CompileOptions.NoOptimize, espc -O0) keeps the lowered IR.
// The §6.1 allocation postponement for alt send arms and the channel
// pattern/record fusion are structural properties of the compiler's alt
// lowering and the rendezvous transfer, respectively; their ablations are
// exercised through vm.Config instead.
package opt

import (
	"esplang/internal/ir"
)

// Options configures a Run; the pipeline itself is fixed.
type Options struct {
	// Verify checks the IR after every pass (ir.Verify after the
	// cross-process pass, ir.VerifyProc of the rewritten process after a
	// per-process pass); Run aborts with an error naming the offending
	// pass if a rewrite corrupts the program.
	Verify bool
}

// All returns the zero Options, the unverified pipeline; cmd/espbench
// names it.
func All() Options { return Options{} }

// ---------------------------------------------------------------------------
// Removing instructions

// rebuild removes instructions whose keep flag is false, remapping every
// pc reference (jumps, alt arm targets). An instruction may only be
// dropped if control never needs to land on it.
func rebuild(p *ir.Proc, keep []bool) {
	remap := make([]int, len(p.Code)+1)
	n := 0
	for pc := range p.Code {
		remap[pc] = n
		if keep[pc] {
			n++
		}
	}
	remap[len(p.Code)] = n

	newCode := make([]ir.Instr, 0, n)
	for pc, in := range p.Code {
		if !keep[pc] {
			continue
		}
		switch in.Op {
		case ir.Jump, ir.JumpIfFalse, ir.JumpIfTrue:
			in.A = remap[in.A]
		}
		newCode = append(newCode, in)
	}
	p.Code = newCode
	for ai := range p.Alts {
		for j := range p.Alts[ai].Arms {
			arm := &p.Alts[ai].Arms[j]
			if arm.EvalPC >= 0 {
				arm.EvalPC = remap[arm.EvalPC]
			}
			arm.BodyPC = remap[arm.BodyPC]
		}
	}
}

// ---------------------------------------------------------------------------
// Constant folding

func constFold(p *ir.Proc) bool {
	changed := false
	starts := ir.Leaders(p, true)
	for pc := 0; pc+1 < len(p.Code); pc++ {
		a := p.Code[pc]
		// Unary on a constant.
		if a.Op == ir.Const && !starts[pc+1] {
			b := p.Code[pc+1]
			switch b.Op {
			case ir.Neg:
				p.Code[pc] = ir.Instr{Op: ir.Const, Val: -a.Val, Pos: a.Pos}
				p.Code[pc+1] = ir.Instr{Op: ir.Nop, Pos: b.Pos}
				changed = true
				continue
			case ir.Not:
				v := int64(0)
				if a.Val == 0 {
					v = 1
				}
				p.Code[pc] = ir.Instr{Op: ir.Const, Val: v, Pos: a.Pos}
				p.Code[pc+1] = ir.Instr{Op: ir.Nop, Pos: b.Pos}
				changed = true
				continue
			case ir.JumpIfFalse:
				if a.Val == 0 {
					p.Code[pc] = ir.Instr{Op: ir.Jump, A: b.A, Pos: a.Pos}
				} else {
					p.Code[pc] = ir.Instr{Op: ir.Nop, Pos: a.Pos}
				}
				p.Code[pc+1] = ir.Instr{Op: ir.Nop, Pos: b.Pos}
				changed = true
				continue
			case ir.JumpIfTrue:
				if a.Val != 0 {
					p.Code[pc] = ir.Instr{Op: ir.Jump, A: b.A, Pos: a.Pos}
				} else {
					p.Code[pc] = ir.Instr{Op: ir.Nop, Pos: a.Pos}
				}
				p.Code[pc+1] = ir.Instr{Op: ir.Nop, Pos: b.Pos}
				changed = true
				continue
			}
		}
		// Binary on two constants.
		if pc+2 < len(p.Code) && a.Op == ir.Const && p.Code[pc+1].Op == ir.Const &&
			!starts[pc+1] && !starts[pc+2] {
			c := p.Code[pc+2]
			if v, ok := foldBin(c.Op, a.Val, p.Code[pc+1].Val); ok {
				p.Code[pc] = ir.Instr{Op: ir.Const, Val: v, Pos: a.Pos}
				p.Code[pc+1] = ir.Instr{Op: ir.Nop, Pos: a.Pos}
				p.Code[pc+2] = ir.Instr{Op: ir.Nop, Pos: c.Pos}
				changed = true
			}
		}
	}
	return changed
}

func foldBin(op ir.Op, x, y int64) (int64, bool) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case ir.Add:
		return x + y, true
	case ir.Sub:
		return x - y, true
	case ir.Mul:
		return x * y, true
	case ir.Div:
		if y == 0 {
			return 0, false // leave the runtime fault in place
		}
		return x / y, true
	case ir.Mod:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case ir.Eq:
		return b2i(x == y), true
	case ir.Ne:
		return b2i(x != y), true
	case ir.Lt:
		return b2i(x < y), true
	case ir.Le:
		return b2i(x <= y), true
	case ir.Gt:
		return b2i(x > y), true
	case ir.Ge:
		return b2i(x >= y), true
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Copy propagation (within basic blocks)

// copyProp rewrites "LoadLocal a; StoreLocal b; ...; LoadLocal b" to load
// a directly while neither a nor b has been reassigned within the block,
// and collapses "StoreLocal x; LoadLocal x" into "Dup; StoreLocal x".
func copyProp(p *ir.Proc) bool {
	changed := false
	starts := ir.Leaders(p, true)

	// Peephole: StoreLocal x; LoadLocal x  =>  Dup; StoreLocal x.
	for pc := 0; pc+1 < len(p.Code); pc++ {
		if starts[pc+1] {
			continue
		}
		a, b := p.Code[pc], p.Code[pc+1]
		if a.Op == ir.StoreLocal && b.Op == ir.LoadLocal && a.A == b.A {
			p.Code[pc] = ir.Instr{Op: ir.Dup, Pos: a.Pos}
			p.Code[pc+1] = ir.Instr{Op: ir.StoreLocal, A: a.A, Pos: b.Pos}
			p.MaxStack++ // the Dup deepens the stack at this point
			changed = true
		}
	}

	// Block-local copy table.
	copyOf := map[int]int{} // dst slot -> src slot
	kill := func(slot int) {
		delete(copyOf, slot)
		for d, s := range copyOf {
			if s == slot {
				delete(copyOf, d)
			}
		}
	}
	for pc := 0; pc < len(p.Code); pc++ {
		if starts[pc] {
			copyOf = map[int]int{}
		}
		in := &p.Code[pc]
		switch in.Op {
		case ir.LoadLocal:
			if src, ok := copyOf[in.A]; ok {
				in.A = src
				changed = true
			}
			// "LoadLocal a; StoreLocal b" establishes b := a.
			if pc+1 < len(p.Code) && !starts[pc+1] && p.Code[pc+1].Op == ir.StoreLocal {
				dst := p.Code[pc+1].A
				if dst != in.A {
					kill(dst)
					copyOf[dst] = in.A
					pc++ // the store itself kills nothing else
					continue
				}
			}
		case ir.StoreLocal:
			kill(in.A)
		case ir.Recv:
			// Pattern binding writes arbitrary slots.
			copyOf = map[int]int{}
		case ir.Alt, ir.Send, ir.SendCommit, ir.Halt:
			copyOf = map[int]int{}
		}
	}
	return changed
}

// ---------------------------------------------------------------------------
// Cast reuse

// castReuse turns "LoadLocal x; CastCopy" into "LoadLocal x; CastReuse"
// when slot x is provably dead afterwards: no other LoadLocal of x
// anywhere in the process, and x is not written by any receive pattern
// (which would imply the value escapes through other uses).
func castReuse(p *ir.Proc) bool {
	loadCount := map[int]int{}
	for _, in := range p.Code {
		if in.Op == ir.LoadLocal {
			loadCount[in.A]++
		}
	}
	patternSlots := map[int]bool{}
	var mark func(pat *ir.Pat)
	mark = func(pat *ir.Pat) {
		if pat == nil {
			return
		}
		if pat.Kind == ir.PatBind || pat.Kind == ir.PatDynEq {
			patternSlots[pat.Slot] = true
		}
		for _, e := range pat.Elems {
			mark(e)
		}
	}
	for _, port := range p.Ports {
		mark(port.Pat)
	}

	changed := false
	for pc := 0; pc+1 < len(p.Code); pc++ {
		a, b := p.Code[pc], p.Code[pc+1]
		// "LoadLocal x; CastCopy" with x dead after (its only load).
		if a.Op == ir.LoadLocal && b.Op == ir.CastCopy &&
			loadCount[a.A] == 1 && !patternSlots[a.A] {
			p.Code[pc+1].Op = ir.CastReuse
			changed = true
		}
		// "Dup; StoreLocal x; CastCopy" (copy-prop residue) with x never
		// loaded at all.
		if pc+2 < len(p.Code) && a.Op == ir.Dup && b.Op == ir.StoreLocal &&
			p.Code[pc+2].Op == ir.CastCopy &&
			loadCount[b.A] == 0 && !patternSlots[b.A] {
			p.Code[pc+2].Op = ir.CastReuse
			changed = true
		}
	}
	return changed
}

// ---------------------------------------------------------------------------
// Dead code elimination

// removeUnreachable drops the instructions no path from the process's
// roots reaches.
func removeUnreachable(p *ir.Proc) bool {
	reach := ir.Reachable(p)
	for _, r := range reach {
		if !r {
			rebuild(p, reach)
			return true
		}
	}
	return false
}

// compactNops removes Nop instructions (making sure any reference to a
// Nop's pc re-points at its successor, which rebuild's remap does
// naturally because the Nop is dropped).
func compactNops(p *ir.Proc) bool {
	keep := make([]bool, len(p.Code))
	changed := false
	for pc, in := range p.Code {
		keep[pc] = in.Op != ir.Nop
		if in.Op == ir.Nop {
			changed = true
		}
	}
	if changed {
		rebuild(p, keep)
	}
	return changed
}
