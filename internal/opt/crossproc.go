package opt

import (
	"esplang/internal/ir"
)

// Cross-process data-flow analysis — the paper's stated future work
// (§6.2: "data-flow analysis is currently performed on a per process
// basis. We plan to extend data-flow analysis across processes.").
//
// The analysis exploits the same static design the §6.1 channel
// optimizations use: every sender and receiver of a channel is known at
// compile time. For each channel, the shapes of all send sites are
// joined; when a component position carries the same constant in every
// send, a receiver slot that is bound only from that position (and never
// written otherwise) is itself a constant, and its loads fold.

// CrossProcConstants runs the whole-program pass. It returns the number
// of load sites rewritten.
func CrossProcConstants(prog *ir.Program) int {
	chanShape := joinedSendShapes(prog)

	rewritten := 0
	for _, p := range prog.Procs {
		consts := constantSlots(p, chanShape)
		if len(consts) == 0 {
			continue
		}
		for pc := range p.Code {
			in := &p.Code[pc]
			if in.Op == ir.LoadLocal {
				if v, ok := consts[in.A]; ok {
					*in = ir.Instr{Op: ir.Const, Val: v, Pos: in.Pos}
					rewritten++
				}
			}
		}
	}
	return rewritten
}

// joinedSendShapes computes, per channel, the join of every send site's
// static value shape (nil = some sender is not statically known, or the
// channel is external-writer — the environment can send anything the
// interface allows).
func joinedSendShapes(prog *ir.Program) map[int]*ir.Pat {
	shapes := make(map[int]*ir.Pat, len(prog.Channels))
	poison := make(map[int]bool, len(prog.Channels))

	add := func(ch int, s *ir.Pat) {
		if poison[ch] {
			return
		}
		if s == nil {
			poison[ch] = true
			delete(shapes, ch)
			return
		}
		if cur, ok := shapes[ch]; ok {
			shapes[ch] = joinShapes(cur, s)
		} else {
			shapes[ch] = s
		}
	}

	for _, ch := range prog.Channels {
		if ch.Ext == ir.ExtWriter {
			// External senders: join the interface case patterns, with
			// bindings as unknowns.
			if len(ch.Cases) == 0 {
				poison[ch.ID] = true
				continue
			}
			for _, c := range ch.Cases {
				add(ch.ID, c.Pat)
			}
		}
	}
	for _, p := range prog.Procs {
		// Alt send arms carry the AST-derived shape; plain sends are
		// recovered from the literal construction preceding the Send.
		armShape := map[int]*ir.Pat{} // SendCommit pc -> OutPat
		for _, alt := range p.Alts {
			for i := range alt.Arms {
				arm := &alt.Arms[i]
				if !arm.IsSend {
					continue
				}
				for pc := arm.EvalPC; pc < len(p.Code); pc++ {
					if p.Code[pc].Op == ir.SendCommit {
						armShape[pc] = arm.OutPat
						break
					}
				}
			}
		}
		for pc, in := range p.Code {
			switch in.Op {
			case ir.SendCommit:
				if s, ok := armShape[pc]; ok {
					add(in.A, s)
				} else {
					add(in.A, nil)
				}
			case ir.Send:
				add(in.A, sendSiteShape(p, pc))
			}
		}
	}
	// Poisoned channels have no entry.
	return shapes
}

// sendSiteShape recovers the static shape of the value a Send at pc
// transmits. The recognizer accepts only pure literal trees — Const,
// SelfID, NewRecord, NewUnion — ending exactly at the Send; any other
// construction yields an all-Any shape. (A partial walk would misalign
// child boundaries of compound expressions and could derive wrong
// constants, so the analysis is all-or-nothing per send site.)
func sendSiteShape(p *ir.Proc, pc int) *ir.Pat {
	end := pc // exclusive: instruction before the Send
	any := &ir.Pat{Kind: ir.PatAny}
	var walk func() (*ir.Pat, bool)
	walk = func() (*ir.Pat, bool) {
		if end == 0 {
			return nil, false
		}
		end--
		in := p.Code[end]
		switch in.Op {
		case ir.Const:
			return &ir.Pat{Kind: ir.PatConst, Val: in.Val}, true
		case ir.SelfID:
			return &ir.Pat{Kind: ir.PatConst, Val: int64(p.ID)}, true
		case ir.NewRecord:
			s := &ir.Pat{Kind: ir.PatRecord, Elems: make([]*ir.Pat, in.B)}
			// Children were pushed left to right; unwind right to left.
			for i := in.B - 1; i >= 0; i-- {
				c, ok := walk()
				if !ok {
					return nil, false
				}
				s.Elems[i] = c
			}
			return s, true
		case ir.NewUnion:
			c, ok := walk()
			if !ok {
				return nil, false
			}
			return &ir.Pat{Kind: ir.PatUnion, Tag: in.B, Elems: []*ir.Pat{c}}, true
		default:
			return nil, false
		}
	}
	s, ok := walk()
	if !ok {
		return any
	}
	// The window [end, pc) must be straight-line and entered only at its
	// start: a jump into it or straight to the Send (e.g. the convergence
	// point of a short-circuit && inside, or forming, the value) would
	// mean the recognized constants are only one path's values.
	for i, in := range p.Code {
		switch in.Op {
		case ir.Jump, ir.JumpIfFalse, ir.JumpIfTrue:
			if in.A > end && in.A <= pc && !(i >= end && i < pc) {
				return any
			}
			if i >= end && i < pc {
				return any // a jump inside the window: not a pure literal
			}
		}
	}
	for _, alt := range p.Alts {
		for _, arm := range alt.Arms {
			if arm.BodyPC > end && arm.BodyPC <= pc || arm.EvalPC > end && arm.EvalPC <= pc {
				return any
			}
		}
	}
	return s
}

// joinShapes returns the most precise shape covering both inputs.
func joinShapes(a, b *ir.Pat) *ir.Pat {
	if a == nil || b == nil {
		return &ir.Pat{Kind: ir.PatAny}
	}
	if a.Kind == ir.PatConst && b.Kind == ir.PatConst && a.Val == b.Val {
		return a
	}
	if a.Kind == ir.PatRecord && b.Kind == ir.PatRecord && len(a.Elems) == len(b.Elems) {
		s := &ir.Pat{Kind: ir.PatRecord, Elems: make([]*ir.Pat, len(a.Elems))}
		for i := range a.Elems {
			s.Elems[i] = joinShapes(a.Elems[i], b.Elems[i])
		}
		return s
	}
	if a.Kind == ir.PatUnion && b.Kind == ir.PatUnion && a.Tag == b.Tag {
		return &ir.Pat{Kind: ir.PatUnion, Tag: a.Tag, Elems: []*ir.Pat{joinShapes(a.Elems[0], b.Elems[0])}}
	}
	return &ir.Pat{Kind: ir.PatAny}
}

// constantSlots finds slots of p that are (a) written only by receive
// bindings whose channel position is a known constant — the same constant
// at every binding site — and (b) never stored by StoreLocal.
func constantSlots(p *ir.Proc, chanShape map[int]*ir.Pat) map[int]int64 {
	candidate := map[int]int64{}
	dead := map[int]bool{}

	kill := func(slot int) {
		dead[slot] = true
		delete(candidate, slot)
	}
	propose := func(slot int, v int64, known bool) {
		if dead[slot] {
			return
		}
		if !known {
			kill(slot)
			return
		}
		if cur, ok := candidate[slot]; ok && cur != v {
			kill(slot)
			return
		}
		candidate[slot] = v
	}

	// Walk every port's pattern against the channel's joined shape.
	var visit func(pat, shape *ir.Pat)
	visit = func(pat, shape *ir.Pat) {
		switch pat.Kind {
		case ir.PatBind:
			if shape != nil && shape.Kind == ir.PatConst {
				propose(pat.Slot, shape.Val, true)
			} else {
				propose(pat.Slot, 0, false)
			}
		case ir.PatRecord:
			for i, sub := range pat.Elems {
				var s *ir.Pat
				if shape != nil && shape.Kind == ir.PatRecord && i < len(shape.Elems) {
					s = shape.Elems[i]
				}
				visit(sub, s)
			}
		case ir.PatUnion:
			var s *ir.Pat
			if shape != nil && shape.Kind == ir.PatUnion && shape.Tag == pat.Tag {
				s = shape.Elems[0]
			}
			visit(pat.Elems[0], s)
		}
	}
	for _, port := range p.Ports {
		visit(port.Pat, chanShape[port.Chan])
	}
	// Direct stores kill constancy.
	for _, in := range p.Code {
		if in.Op == ir.StoreLocal {
			kill(in.A)
		}
	}
	// Guard slots and DynEq test slots are loaded implicitly; constancy
	// is still sound for them but they are never LoadLocal'd anyway.
	return candidate
}
