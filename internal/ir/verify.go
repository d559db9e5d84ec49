package ir

import (
	"fmt"
)

// StackEffect returns the net operand-stack effect of executing in: the
// number of values pushed minus the number popped. The compiler uses it
// to track stack depth while emitting code; Verify uses it to prove the
// depths stay balanced over every control-flow path.
func StackEffect(in Instr) int {
	switch in.Op {
	case Const, SelfID, LoadLocal, Dup:
		return 1
	case StoreLocal, Pop, JumpIfFalse, JumpIfTrue,
		Link, Unlink, Assert, Send, SendCommit,
		Add, Sub, Mul, Div, Mod,
		Eq, Ne, Lt, Le, Gt, Ge,
		NewArray, GetIndex:
		return -1
	case NewRecord:
		return 1 - in.B
	case SetField:
		return -2
	case SetIndex:
		return -3
	default:
		// Neg, Not, GetField, UnionGet, CastCopy, CastReuse, NewUnion,
		// Jump, Nop, Halt, Recv, Alt: net zero.
		return 0
	}
}

// StackIn returns how many operands in pops (its minimum entry depth).
// StackEffect alone cannot distinguish "pops 1, pushes 1" from "touches
// nothing", so Verify checks both.
func StackIn(in Instr) int {
	switch in.Op {
	case Dup, StoreLocal, Pop, JumpIfFalse, JumpIfTrue,
		Neg, Not, GetField, UnionGet, CastCopy, CastReuse, NewUnion,
		Link, Unlink, Assert, Send, SendCommit:
		return 1
	case Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge,
		NewArray, GetIndex, SetField:
		return 2
	case SetIndex:
		return 3
	case NewRecord:
		return in.B
	default:
		// Const, SelfID, LoadLocal, Jump, Nop, Halt, Recv, Alt.
		return 0
	}
}

// VerifyError describes one structural violation found by Verify.
type VerifyError struct {
	Proc string // offending process ("" for program-level problems)
	PC   int    // offending instruction (-1 when not instruction-specific)
	Msg  string
}

func (e *VerifyError) Error() string {
	switch {
	case e.Proc == "":
		return fmt.Sprintf("ir: %s", e.Msg)
	case e.PC < 0:
		return fmt.Sprintf("ir: process %s: %s", e.Proc, e.Msg)
	}
	return fmt.Sprintf("ir: process %s: pc %d: %s", e.Proc, e.PC, e.Msg)
}

// Verify checks the structural invariants every compiled (and optimized)
// program must satisfy, returning the first violation found:
//
//   - process and channel IDs match their table positions;
//   - jump and patch targets land inside the code;
//   - channel, port, alt, assert, and local-slot operands are in range;
//   - receive patterns reference valid slots and well-formed union arms;
//   - blocking instructions have a resume point (they are never the last
//     instruction) and alt arms have valid body/eval entry points;
//   - operand-stack depths balance: over every control-flow path each
//     instruction is entered at one consistent depth, never underflows,
//     and never exceeds the process's declared MaxStack.
//
// The optimizer verifies after every pass when verification is enabled,
// so a pass that corrupts any of these invariants is caught at the pass
// boundary instead of as a downstream VM fault or miscompile.
func Verify(prog *Program) error {
	for i, ch := range prog.Channels {
		if ch.ID != i {
			return &VerifyError{Msg: fmt.Sprintf("channel %s: ID %d at table index %d", ch.Name, ch.ID, i)}
		}
	}
	for i, p := range prog.Procs {
		if p.ID != i {
			return &VerifyError{Msg: fmt.Sprintf("process %s: ID %d at table index %d", p.Name, p.ID, i)}
		}
		if err := VerifyProc(prog, p); err != nil {
			return err
		}
	}
	return nil
}

// VerifyProc checks the invariants of Verify that concern process p
// alone: its ports, alt tables, instruction operands and stack depths,
// against the program's channel and assert tables. When the rest of the
// program verifies, VerifyProc(prog, p) returns the error Verify(prog)
// would, so a rewrite confined to p needs only this check.
func VerifyProc(prog *Program, p *Proc) error {
	bad := func(pc int, format string, args ...any) error {
		return &VerifyError{Proc: p.Name, PC: pc, Msg: fmt.Sprintf(format, args...)}
	}
	n := len(p.Code)

	// Ports: channel IDs and pattern slots.
	for i, port := range p.Ports {
		if port.Chan < 0 || port.Chan >= len(prog.Channels) {
			return bad(-1, "port %d: channel id %d out of range [0,%d)", i, port.Chan, len(prog.Channels))
		}
		if err := verifyPat(port.Pat, p); err != nil {
			return bad(-1, "port %d: %v", i, err)
		}
	}

	// Alt tables: arm targets, guards, ports.
	for ai, alt := range p.Alts {
		if len(alt.Arms) == 0 {
			return bad(-1, "alt %d has no arms", ai)
		}
		for j, arm := range alt.Arms {
			if arm.Chan < 0 || arm.Chan >= len(prog.Channels) {
				return bad(-1, "alt %d arm %d: channel id %d out of range", ai, j, arm.Chan)
			}
			if arm.GuardSlot < -1 || arm.GuardSlot >= p.NumLocals {
				return bad(-1, "alt %d arm %d: guard slot %d out of range [0,%d)", ai, j, arm.GuardSlot, p.NumLocals)
			}
			if arm.BodyPC < 0 || arm.BodyPC >= n {
				return bad(-1, "alt %d arm %d: body pc %d out of range [0,%d)", ai, j, arm.BodyPC, n)
			}
			if arm.IsSend {
				if arm.EvalPC < 0 || arm.EvalPC >= n {
					return bad(-1, "alt %d arm %d: eval pc %d out of range [0,%d)", ai, j, arm.EvalPC, n)
				}
			} else {
				if arm.Port < 0 || arm.Port >= len(p.Ports) {
					return bad(-1, "alt %d arm %d: port %d out of range [0,%d)", ai, j, arm.Port, len(p.Ports))
				}
				if p.Ports[arm.Port].Chan != arm.Chan {
					return bad(-1, "alt %d arm %d: port %d is on channel %d, arm on %d",
						ai, j, arm.Port, p.Ports[arm.Port].Chan, arm.Chan)
				}
			}
		}
	}

	// Per-instruction operand validity.
	for pc, in := range p.Code {
		switch in.Op {
		case LoadLocal, StoreLocal:
			if in.A < 0 || in.A >= p.NumLocals {
				return bad(pc, "%s: slot %d out of range [0,%d)", in.Op, in.A, p.NumLocals)
			}
		case Jump, JumpIfFalse, JumpIfTrue:
			if in.A < 0 || in.A >= n {
				return bad(pc, "%s: target %d out of range [0,%d)", in.Op, in.A, n)
			}
		case Send, SendCommit:
			if in.A < 0 || in.A >= len(prog.Channels) {
				return bad(pc, "%s: channel id %d out of range [0,%d)", in.Op, in.A, len(prog.Channels))
			}
			if in.Op == Send && pc+1 >= n {
				return bad(pc, "send has no resume point (last instruction)")
			}
		case Recv:
			if in.A < 0 || in.A >= len(prog.Channels) {
				return bad(pc, "recv: channel id %d out of range [0,%d)", in.A, len(prog.Channels))
			}
			if in.B < 0 || in.B >= len(p.Ports) {
				return bad(pc, "recv: port %d out of range [0,%d)", in.B, len(p.Ports))
			}
			if p.Ports[in.B].Chan != in.A {
				return bad(pc, "recv: port %d is on channel %d, instruction names %d", in.B, p.Ports[in.B].Chan, in.A)
			}
			if pc+1 >= n {
				return bad(pc, "recv has no resume point (last instruction)")
			}
		case Alt:
			if in.A < 0 || in.A >= len(p.Alts) {
				return bad(pc, "alt: table index %d out of range [0,%d)", in.A, len(p.Alts))
			}
		case Assert:
			if in.A < 0 || in.A >= len(prog.Asserts) {
				return bad(pc, "assert: id %d out of range [0,%d)", in.A, len(prog.Asserts))
			}
		case NewRecord:
			if in.B < 0 {
				return bad(pc, "newrecord: negative field count %d", in.B)
			}
		}
	}

	_, err := StackDepths(p)
	return err
}

func verifyPat(pat *Pat, p *Proc) error {
	if pat == nil {
		return fmt.Errorf("nil pattern")
	}
	switch pat.Kind {
	case PatBind, PatDynEq:
		if pat.Slot < 0 || pat.Slot >= p.NumLocals {
			return fmt.Errorf("pattern slot %d out of range [0,%d)", pat.Slot, p.NumLocals)
		}
	case PatUnion:
		if len(pat.Elems) != 1 {
			return fmt.Errorf("union pattern with %d payloads", len(pat.Elems))
		}
		if pat.Tag < 0 {
			return fmt.Errorf("union pattern with negative tag %d", pat.Tag)
		}
	}
	for _, e := range pat.Elems {
		if err := verifyPat(e, p); err != nil {
			return err
		}
	}
	return nil
}
