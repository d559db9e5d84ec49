package vm

import (
	"fmt"

	"esplang/internal/ir"
	"esplang/internal/obs"
)

// execFused runs process p until it blocks, halts, or faults, using the
// fused translation of its code (see internal/ir/fused.go). It is charged
// and observed exactly like execBase:
//
//   - a fused instruction covering N base instructions bulk-charges
//     N*PerInstr cycles and N Stats.Instrs at group entry — legal because
//     fusion only groups instructions whose interior components are pure
//     (no faults, no trace events), so no observer can see the meter
//     between them;
//   - the step budget is enforced at the same base-instruction boundary:
//     if a group would cross it, only the components the baseline would
//     have executed are charged and the fault pc is the component the
//     baseline would have faulted at (the values computed by the already-
//     charged components are not materialized — the machine is stopping);
//   - the only multi-instruction groups that can fault are FLCBin/FLLBin
//     ending in Div/Mod, and p.PC is moved to that component's base pc
//     before the fault; every other instruction that can fault or emit a
//     trace event runs as its own 1:1 group at p.PC = Base, so fault
//     attribution and trace timestamps are bit-identical;
//   - every communication takes the baseline's dynamic rendezvous path
//     (tryCompleteSend, tryCompleteRecv, altStep); only the partner scans
//     differ, walking the schedule's scan lists when New installed them.
//
// execFused only runs when no profiler is installed (exec falls back to
// execBase otherwise): per-line cycle attribution needs the baseline's
// per-instruction charge points.
func (m *Machine) execFused(p *ProcInst) {
	fp := m.fused[p.ID]
	code := fp.Code
	var steps int64

	// Resume points are always group heads (entry points are never fused
	// into a group interior), so the translation is defined here.
	pcF := int(fp.Map[p.PC])
	if pcF < 0 {
		m.setFault(&Fault{Kind: FaultInternal, Msg: "resume inside a fused group"}, p)
		return
	}

	for m.flt == nil {
		fi := &code[pcF]
		n := int64(fi.N)
		steps += n
		if steps > m.Config.StepBudget {
			// The baseline executes components one at a time: with b =
			// steps-n base instructions already run, it charges the first
			// j = budget-b components of this group and faults at the next.
			j := m.Config.StepBudget - (steps - n)
			m.Cycles += j * m.Cost.PerInstr
			m.Stats.Instrs += j
			p.PC = int(fi.Base) + int(j)
			m.setFault(&Fault{Kind: FaultStep,
				Msg: fmt.Sprintf("process executed more than %d instructions without blocking", m.Config.StepBudget)}, p)
			return
		}
		m.Cycles += n * m.Cost.PerInstr
		m.Stats.Instrs += n
		p.PC = int(fi.Base)

		switch fi.Op {
		case ir.FNop:
			pcF++
		case ir.FConst:
			p.push(Value{Int: fi.Val})
			pcF++
		case ir.FSelfID:
			p.push(IntVal(int64(p.ID)))
			pcF++
		case ir.FLoad:
			p.push(p.Locals[fi.A])
			pcF++
		case ir.FStore:
			p.Locals[fi.A] = p.pop()
			pcF++
		case ir.FDup:
			p.push(p.Stack[len(p.Stack)-1])
			pcF++
		case ir.FPop:
			p.pop()
			pcF++

		case ir.FNeg:
			v := p.pop()
			p.push(IntVal(-v.Int))
			pcF++
		case ir.FNot:
			v := p.pop()
			p.push(BoolVal(v.Int == 0))
			pcF++
		case ir.FBin:
			y := p.pop()
			x := p.pop()
			r, ok := fusedBin(fi.Sub, x.Int, y.Int)
			if !ok {
				m.setFault(&Fault{Kind: FaultDivByZero, Msg: divMsg(fi.Sub)}, p)
				return
			}
			p.push(r)
			pcF++

		case ir.FJump:
			pcF = int(fi.A)
		case ir.FJumpFalse:
			if p.pop().Int == 0 {
				pcF = int(fi.A)
			} else {
				pcF++
			}
		case ir.FJumpTrue:
			if p.pop().Int != 0 {
				pcF = int(fi.A)
			} else {
				pcF++
			}

		case ir.FNewRecord:
			o := m.heap.Alloc(fi.Type, int(fi.B))
			if o == nil {
				m.setFault(&Fault{Kind: FaultOutOfObjects, Msg: "allocation failed: live-object bound exceeded"}, p)
				return
			}
			m.chargeEv(obs.KindAlloc, m.Cost.Alloc)
			m.Stats.Allocs++
			m.traceAlloc(p.ID)
			for i := int(fi.B) - 1; i >= 0; i-- {
				v := p.pop()
				o.Elems[i] = v
				if v.IsRef && fi.Val&(1<<i) == 0 {
					if f := m.heap.Link(v.Ref); f != nil {
						m.setFault(f, p)
						return
					}
					m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
					m.Stats.RefOps++
				}
			}
			p.push(RefVal(o))
			pcF++
		case ir.FNewUnion:
			v := p.pop()
			o := m.heap.Alloc(fi.Type, 1)
			if o == nil {
				m.setFault(&Fault{Kind: FaultOutOfObjects, Msg: "allocation failed: live-object bound exceeded"}, p)
				return
			}
			m.chargeEv(obs.KindAlloc, m.Cost.Alloc)
			m.Stats.Allocs++
			m.traceAlloc(p.ID)
			o.Tag = int(fi.B)
			o.Elems[0] = v
			if v.IsRef && fi.Val&1 == 0 {
				if f := m.heap.Link(v.Ref); f != nil {
					m.setFault(f, p)
					return
				}
				m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
				m.Stats.RefOps++
			}
			p.push(RefVal(o))
			pcF++
		case ir.FNewArray:
			init := p.pop()
			count := p.pop()
			if count.Int < 0 {
				m.setFault(&Fault{Kind: FaultIndexOOB, Msg: fmt.Sprintf("array size %d is negative", count.Int)}, p)
				return
			}
			if count.Int > MaxAllocElems {
				m.setFault(&Fault{Kind: FaultOutOfObjects, Msg: fmt.Sprintf("array size %d exceeds the %d-element object limit", count.Int, MaxAllocElems)}, p)
				return
			}
			o := m.heap.Alloc(fi.Type, int(count.Int))
			if o == nil {
				m.setFault(&Fault{Kind: FaultOutOfObjects, Msg: "allocation failed: live-object bound exceeded"}, p)
				return
			}
			m.chargeEv(obs.KindAlloc, m.Cost.Alloc)
			m.Stats.Allocs++
			m.traceAlloc(p.ID)
			for i := range o.Elems {
				o.Elems[i] = init
			}
			p.push(RefVal(o))
			pcF++

		case ir.FGetField:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			p.push(o.Elems[fi.A])
			pcF++
		case ir.FSetField:
			v := p.pop()
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			old := o.Elems[fi.A]
			o.Elems[fi.A] = v
			if v.IsRef {
				if f := m.heap.Link(v.Ref); f != nil {
					m.setFault(f, p)
					return
				}
				m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
				m.Stats.RefOps++
			}
			if old.IsRef {
				if f := m.heap.Unlink(old.Ref); f != nil {
					m.setFault(f, p)
					return
				}
				m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
				m.Stats.RefOps++
			}
			pcF++
		case ir.FGetIndex:
			i := p.pop()
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			if i.Int < 0 || int(i.Int) >= len(o.Elems) {
				m.setFault(&Fault{Kind: FaultIndexOOB,
					Msg: fmt.Sprintf("index %d out of bounds for array of %d", i.Int, len(o.Elems))}, p)
				return
			}
			p.push(o.Elems[i.Int])
			pcF++
		case ir.FSetIndex:
			v := p.pop()
			i := p.pop()
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			if i.Int < 0 || int(i.Int) >= len(o.Elems) {
				m.setFault(&Fault{Kind: FaultIndexOOB,
					Msg: fmt.Sprintf("index %d out of bounds for array of %d", i.Int, len(o.Elems))}, p)
				return
			}
			o.Elems[i.Int] = v
			pcF++
		case ir.FUnionGet:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			if o.Tag != int(fi.A) {
				m.setFault(&Fault{Kind: FaultTagMismatch,
					Msg: fmt.Sprintf("union has tag %d, pattern requires %d", o.Tag, fi.A)}, p)
				return
			}
			p.push(o.Elems[0])
			pcF++

		case ir.FLink:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			if f := m.heap.Link(o); f != nil {
				m.setFault(f, p)
				return
			}
			m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
			m.Stats.RefOps++
			pcF++
		case ir.FUnlink:
			v := p.pop()
			if !v.IsRef || v.Ref == nil {
				m.setFault(&Fault{Kind: FaultInternal, Msg: "unlink of scalar"}, p)
				return
			}
			if f := m.heap.Unlink(v.Ref); f != nil {
				m.setFault(f, p)
				return
			}
			m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
			m.Stats.RefOps++
			pcF++
		case ir.FCastCopy:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			no := m.heap.Alloc(fi.Type, len(o.Elems))
			if no == nil {
				m.setFault(&Fault{Kind: FaultOutOfObjects, Msg: "allocation failed: live-object bound exceeded"}, p)
				return
			}
			m.chargeEv(obs.KindAlloc, m.Cost.Alloc)
			m.Stats.Allocs++
			m.traceAlloc(p.ID)
			no.Tag = o.Tag
			copy(no.Elems, o.Elems)
			for _, e := range no.Elems {
				if e.IsRef {
					if f := m.heap.Link(e.Ref); f != nil {
						m.setFault(f, p)
						return
					}
					m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
					m.Stats.RefOps++
				}
			}
			p.push(RefVal(no))
			pcF++
		case ir.FCastReuse:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			o.Type = fi.Type
			p.push(RefVal(o))
			pcF++

		case ir.FAssert:
			v := p.pop()
			if v.Int == 0 {
				info := m.Prog.Asserts[fi.A]
				m.setFault(&Fault{Kind: FaultAssert,
					Msg: fmt.Sprintf("assert(%s) failed", info.Expr), Pos: info.Pos}, p)
				return
			}
			pcF++

		case ir.FHalt:
			p.Status = PHalted
			return

		case ir.FSend, ir.FSendCommit:
			chanID := int(fi.A)
			isCommit := fi.Op == ir.FSendCommit
			p.Pending = p.pop()
			p.PendingFlags = int(fi.B)
			p.WaitChan = chanID
			p.ResumePC = int(fi.Base) + 1
			if (!m.Config.Manual || isCommit) && m.tryCompleteSend(p) {
				if m.flt != nil {
					return
				}
				pcF = int(fp.Map[p.ResumePC])
				continue
			}
			if m.flt != nil {
				return
			}
			if isCommit {
				m.setFault(&Fault{Kind: FaultNoMatchingPort,
					Msg: fmt.Sprintf("committed send on channel %s matches no waiting receiver",
						m.Prog.Channels[chanID].Name)}, p)
				return
			}
			p.Status = PBlockedSend
			m.regSend(p, chanID)
			return

		case ir.FRecv:
			p.WaitChan = int(fi.A)
			p.WaitPort = int(fi.B)
			p.ResumePC = int(fi.Base) + 1
			if !m.Config.Manual && m.tryCompleteRecv(p) {
				if m.flt != nil {
					return
				}
				pcF = int(fp.Map[p.ResumePC])
				continue
			}
			if m.flt != nil {
				return
			}
			p.Status = PBlockedRecv
			m.regRecv(p, int(fi.A))
			return

		case ir.FAlt:
			p.AltIdx = int(fi.A)
			if m.Config.Manual {
				p.Status = PBlockedAlt
				return
			}
			next, cont := m.altStep(p)
			if m.flt != nil {
				return
			}
			if cont {
				// altStep's continuation pcs (arm eval/body starts) are
				// entry points, so their translation is defined.
				pcF = int(fp.Map[next])
				continue
			}
			return // altStep parked p (blocked alt or collapsed blocked recv)

		// Superinstructions.
		case ir.FIncrLocal:
			p.Locals[fi.A] = Value{Int: p.Locals[fi.A].Int + fi.Val}
			pcF++
		case ir.FLCCmpBr:
			if fusedCmp(fi.Sub, p.Locals[fi.A].Int, fi.Val) == fi.Sense {
				pcF = int(fi.B)
			} else {
				pcF++
			}
		case ir.FLLCmpBr:
			if fusedCmp(fi.Sub, p.Locals[fi.A].Int, p.Locals[fi.C].Int) == fi.Sense {
				pcF = int(fi.B)
			} else {
				pcF++
			}
		case ir.FCmpBr:
			y := p.pop()
			x := p.pop()
			if fusedCmp(fi.Sub, x.Int, y.Int) == fi.Sense {
				pcF = int(fi.B)
			} else {
				pcF++
			}
		case ir.FLCBin:
			r, ok := fusedBin(fi.Sub, p.Locals[fi.A].Int, fi.Val)
			if !ok {
				p.PC = int(fi.Base) + 2 // the Div/Mod component's pc
				m.setFault(&Fault{Kind: FaultDivByZero, Msg: divMsg(fi.Sub)}, p)
				return
			}
			p.push(r)
			pcF++
		case ir.FLLBin:
			r, ok := fusedBin(fi.Sub, p.Locals[fi.A].Int, p.Locals[fi.C].Int)
			if !ok {
				p.PC = int(fi.Base) + 2
				m.setFault(&Fault{Kind: FaultDivByZero, Msg: divMsg(fi.Sub)}, p)
				return
			}
			p.push(r)
			pcF++
		case ir.FLCBinSt:
			r, _ := fusedBin(fi.Sub, p.Locals[fi.A].Int, fi.Val) // Sub is pure here
			p.Locals[fi.B] = r
			pcF++
		case ir.FLLBinSt:
			r, _ := fusedBin(fi.Sub, p.Locals[fi.A].Int, p.Locals[fi.C].Int)
			p.Locals[fi.B] = r
			pcF++
		case ir.FConstSt:
			p.Locals[fi.B] = Value{Int: fi.Val}
			pcF++
		case ir.FMove:
			p.Locals[fi.B] = p.Locals[fi.A]
			pcF++

		default:
			m.setFault(&Fault{Kind: FaultInternal, Msg: fmt.Sprintf("bad fused opcode %s", fi.Op)}, p)
			return
		}
	}
}

// fusedCmp evaluates a comparison operator on raw ints.
func fusedCmp(op ir.Op, x, y int64) bool {
	switch op {
	case ir.Eq:
		return x == y
	case ir.Ne:
		return x != y
	case ir.Lt:
		return x < y
	case ir.Le:
		return x <= y
	case ir.Gt:
		return x > y
	default: // ir.Ge
		return x >= y
	}
}

// fusedBin evaluates a binary operator; ok is false on division or modulo
// by zero (the caller faults without pushing).
func fusedBin(op ir.Op, x, y int64) (Value, bool) {
	switch op {
	case ir.Add:
		return IntVal(x + y), true
	case ir.Sub:
		return IntVal(x - y), true
	case ir.Mul:
		return IntVal(x * y), true
	case ir.Div:
		if y == 0 {
			return Value{}, false
		}
		return IntVal(x / y), true
	case ir.Mod:
		if y == 0 {
			return Value{}, false
		}
		return IntVal(x % y), true
	default:
		return BoolVal(fusedCmp(op, x, y)), true
	}
}

func divMsg(op ir.Op) string {
	if op == ir.Mod {
		return "modulo by zero"
	}
	return "division by zero"
}
