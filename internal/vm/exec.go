package vm

import (
	"fmt"

	"esplang/internal/ir"
	"esplang/internal/obs"
)

// push/pop are the interpreter's stack primitives. They are methods (not
// per-exec closures) so a scheduling quantum allocates nothing: the old
// closure trio (push/pop/checkObj) cost three heap allocations every time
// a process was resumed, which dominated short quanta.
func (p *ProcInst) push(v Value) { p.Stack = append(p.Stack, v) }

func (p *ProcInst) pop() Value {
	n := len(p.Stack) - 1
	v := p.Stack[n]
	p.Stack = p.Stack[:n]
	return v
}

// checkObj verifies the object is live before access: the memory safety
// property the verifier checks exhaustively (§5.2).
func (m *Machine) checkObj(v Value, p *ProcInst) *Object {
	if !v.IsRef || v.Ref == nil {
		m.setFault(&Fault{Kind: FaultInternal, Msg: "scalar where reference expected"}, p)
		return nil
	}
	if v.Ref.Freed {
		m.setFault(&Fault{Kind: FaultUseAfterFree,
			Msg: fmt.Sprintf("access to freed object %s", v.Ref)}, p)
		return nil
	}
	return v.Ref
}

// exec runs process p until it blocks, halts, or faults, dispatching to
// the engine the machine was configured with. The fused engine bows out
// while a profiler is installed: per-line cycle attribution needs the
// per-instruction charge points of the baseline loop, and profiled runs
// are not on the hot path.
func (m *Machine) exec(p *ProcInst) {
	if m.fused != nil && m.prof == nil {
		m.execFused(p)
		return
	}
	m.execBase(p)
}

// execBase is the baseline interpreter and the differential-testing
// oracle for the fused engine. It implements the non-preemptive execution
// discipline of §6.1: between blocking points a process runs
// uninterrupted.
func (m *Machine) execBase(p *ProcInst) {
	code := p.Def.Code
	pc := p.PC
	var steps int64

	for m.flt == nil {
		steps++
		if steps > m.Config.StepBudget {
			p.PC = pc
			m.setFault(&Fault{Kind: FaultStep,
				Msg: fmt.Sprintf("process executed more than %d instructions without blocking", m.Config.StepBudget)}, p)
			return
		}
		in := code[pc]
		if m.prof != nil {
			m.curLine = in.Pos.Line
		}
		m.chargeEv(obs.KindInstr, m.Cost.PerInstr)
		m.Stats.Instrs++
		p.PC = pc

		switch in.Op {
		case ir.Nop:
			pc++
		case ir.Const:
			p.push(Value{Int: in.Val})
			pc++
		case ir.SelfID:
			p.push(IntVal(int64(p.ID)))
			pc++
		case ir.LoadLocal:
			p.push(p.Locals[in.A])
			pc++
		case ir.StoreLocal:
			p.Locals[in.A] = p.pop()
			pc++
		case ir.Dup:
			p.push(p.Stack[len(p.Stack)-1])
			pc++
		case ir.Pop:
			p.pop()
			pc++

		case ir.Neg:
			v := p.pop()
			p.push(IntVal(-v.Int))
			pc++
		case ir.Not:
			v := p.pop()
			p.push(BoolVal(v.Int == 0))
			pc++
		case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod,
			ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
			y := p.pop()
			x := p.pop()
			var r Value
			switch in.Op {
			case ir.Add:
				r = IntVal(x.Int + y.Int)
			case ir.Sub:
				r = IntVal(x.Int - y.Int)
			case ir.Mul:
				r = IntVal(x.Int * y.Int)
			case ir.Div:
				if y.Int == 0 {
					m.setFault(&Fault{Kind: FaultDivByZero, Msg: "division by zero"}, p)
					return
				}
				r = IntVal(x.Int / y.Int)
			case ir.Mod:
				if y.Int == 0 {
					m.setFault(&Fault{Kind: FaultDivByZero, Msg: "modulo by zero"}, p)
					return
				}
				r = IntVal(x.Int % y.Int)
			case ir.Eq:
				r = BoolVal(x.Int == y.Int)
			case ir.Ne:
				r = BoolVal(x.Int != y.Int)
			case ir.Lt:
				r = BoolVal(x.Int < y.Int)
			case ir.Le:
				r = BoolVal(x.Int <= y.Int)
			case ir.Gt:
				r = BoolVal(x.Int > y.Int)
			case ir.Ge:
				r = BoolVal(x.Int >= y.Int)
			}
			p.push(r)
			pc++

		case ir.Jump:
			pc = in.A
		case ir.JumpIfFalse:
			if p.pop().Int == 0 {
				pc = in.A
			} else {
				pc++
			}
		case ir.JumpIfTrue:
			if p.pop().Int != 0 {
				pc = in.A
			} else {
				pc++
			}

		case ir.NewRecord:
			t := m.Prog.Universe.ByID(in.A)
			o := m.heap.Alloc(t, in.B)
			if o == nil {
				m.setFault(&Fault{Kind: FaultOutOfObjects, Msg: "allocation failed: live-object bound exceeded"}, p)
				return
			}
			m.chargeEv(obs.KindAlloc, m.Cost.Alloc)
			m.Stats.Allocs++
			m.traceAlloc(p.ID)
			for i := in.B - 1; i >= 0; i-- {
				v := p.pop()
				o.Elems[i] = v
				// Borrowed (non-fresh) reference children are linked; fresh
				// temporaries are absorbed (their allocation ref moves into
				// the record).
				if v.IsRef && in.Val&(1<<i) == 0 {
					if f := m.heap.Link(v.Ref); f != nil {
						m.setFault(f, p)
						return
					}
					m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
					m.Stats.RefOps++
				}
			}
			p.push(RefVal(o))
			pc++
		case ir.NewUnion:
			t := m.Prog.Universe.ByID(in.A)
			v := p.pop()
			o := m.heap.Alloc(t, 1)
			if o == nil {
				m.setFault(&Fault{Kind: FaultOutOfObjects, Msg: "allocation failed: live-object bound exceeded"}, p)
				return
			}
			m.chargeEv(obs.KindAlloc, m.Cost.Alloc)
			m.Stats.Allocs++
			m.traceAlloc(p.ID)
			o.Tag = in.B
			o.Elems[0] = v
			if v.IsRef && in.Val&1 == 0 {
				if f := m.heap.Link(v.Ref); f != nil {
					m.setFault(f, p)
					return
				}
				m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
				m.Stats.RefOps++
			}
			p.push(RefVal(o))
			pc++
		case ir.NewArray:
			t := m.Prog.Universe.ByID(in.A)
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
			o := m.heap.Alloc(t, int(count.Int))
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
			pc++

		case ir.GetField:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			p.push(o.Elems[in.A])
			pc++
		case ir.SetField:
			v := p.pop()
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			old := o.Elems[in.A]
			o.Elems[in.A] = v
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
			pc++
		case ir.GetIndex:
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
			pc++
		case ir.SetIndex:
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
			pc++
		case ir.UnionGet:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			if o.Tag != in.A {
				m.setFault(&Fault{Kind: FaultTagMismatch,
					Msg: fmt.Sprintf("union has tag %d, pattern requires %d", o.Tag, in.A)}, p)
				return
			}
			p.push(o.Elems[0])
			pc++

		case ir.Link:
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
			pc++
		case ir.Unlink:
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
			pc++
		case ir.CastCopy:
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			t := m.Prog.Universe.ByID(in.A)
			n := m.heap.Alloc(t, len(o.Elems))
			if n == nil {
				m.setFault(&Fault{Kind: FaultOutOfObjects, Msg: "allocation failed: live-object bound exceeded"}, p)
				return
			}
			m.chargeEv(obs.KindAlloc, m.Cost.Alloc)
			m.Stats.Allocs++
			m.traceAlloc(p.ID)
			n.Tag = o.Tag
			copy(n.Elems, o.Elems)
			for _, e := range n.Elems {
				if e.IsRef {
					if f := m.heap.Link(e.Ref); f != nil {
						m.setFault(f, p)
						return
					}
					m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
					m.Stats.RefOps++
				}
			}
			p.push(RefVal(n))
			pc++
		case ir.CastReuse:
			// Optimizer-inserted: the source object is dead afterwards, so
			// it is retyped in place (§4.2: "the compiler can avoid
			// creating a new object").
			o := m.checkObj(p.pop(), p)
			if o == nil {
				return
			}
			o.Type = m.Prog.Universe.ByID(in.A)
			p.push(RefVal(o))
			pc++

		case ir.Assert:
			v := p.pop()
			if v.Int == 0 {
				info := m.Prog.Asserts[in.A]
				m.setFault(&Fault{Kind: FaultAssert,
					Msg: fmt.Sprintf("assert(%s) failed", info.Expr), Pos: info.Pos}, p)
				return
			}
			pc++

		case ir.Halt:
			p.Status = PHalted
			p.PC = pc
			return

		case ir.Send, ir.SendCommit:
			v := p.pop()
			p.Pending = v
			p.PendingFlags = in.B
			p.WaitChan = in.A
			p.ResumePC = pc + 1
			if (!m.Config.Manual || in.Op == ir.SendCommit) && m.tryCompleteSend(p) {
				if m.flt != nil {
					return
				}
				pc = p.ResumePC
				continue
			}
			if m.flt != nil {
				return
			}
			if in.Op == ir.SendCommit {
				// A committed send found no matching receiver: the value
				// did not match the pattern of the process that made the
				// alt arm look ready.
				m.setFault(&Fault{Kind: FaultNoMatchingPort,
					Msg: fmt.Sprintf("committed send on channel %s matches no waiting receiver",
						m.Prog.Channels[in.A].Name)}, p)
				return
			}
			p.Status = PBlockedSend
			m.regSend(p, in.A)
			return

		case ir.Recv:
			p.WaitChan = in.A
			p.WaitPort = in.B
			p.ResumePC = pc + 1
			if !m.Config.Manual && m.tryCompleteRecv(p) {
				if m.flt != nil {
					return
				}
				pc = p.ResumePC
				continue
			}
			if m.flt != nil {
				return
			}
			p.Status = PBlockedRecv
			m.regRecv(p, in.A)
			return

		case ir.Alt:
			p.AltIdx = in.A
			if m.Config.Manual {
				p.Status = PBlockedAlt
				return
			}
			next, cont := m.altStep(p)
			if m.flt != nil {
				return
			}
			if cont {
				pc = next
				continue
			}
			return // altStep parked p (blocked alt or collapsed blocked recv)

		default:
			m.setFault(&Fault{Kind: FaultInternal, Msg: fmt.Sprintf("bad opcode %s", in.Op)}, p)
			return
		}
	}
}
