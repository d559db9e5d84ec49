package ir

import (
	"strconv"

	"esplang/internal/emit"
)

// Disasm renders a process's code as human-readable assembly, one
// instruction per line, prefixed by the pc.
func Disasm(p *Proc) string {
	b := make([]byte, 0, 64+32*len(p.Code)+64*(len(p.Alts)+len(p.Ports)))
	b = emit.Appendf(b, "process %s (locals=%d, maxstack=%d)\n", p.Name, p.NumLocals, p.MaxStack)
	for pc, in := range p.Code {
		b = emit.Appendf(b, "%4d  ", pc)
		b = AppendInstr(b, p, in)
		b = append(b, '\n')
	}
	for i, a := range p.Alts {
		b = emit.Appendf(b, "alt %d:\n", i)
		for j, arm := range a.Arms {
			dir := "recv"
			if arm.IsSend {
				dir = "send"
			}
			b = emit.Appendf(b, "  arm %d: %s chan=%d guard=%d body=%d eval=%d port=%d\n",
				j, dir, arm.Chan, arm.GuardSlot, arm.BodyPC, arm.EvalPC, arm.Port)
		}
	}
	for i, pt := range p.Ports {
		b = emit.Appendf(b, "port %d: chan=%d pat=", i, pt.Chan)
		b = appendPat(b, pt.Pat)
		b = append(b, '\n')
	}
	return emit.String(b)
}

// appendSlot appends a local slot, with its source name when it has one.
func appendSlot(b []byte, p *Proc, slot int) []byte {
	b = strconv.AppendInt(b, int64(slot), 10)
	if p != nil && slot >= 0 && slot < len(p.LocalName) && p.LocalName[slot] != "" {
		b = append(b, '(')
		b = append(b, p.LocalName[slot]...)
		b = append(b, ')')
	}
	return b
}

// AppendInstr appends the rendering of one instruction to b, as Disasm
// prints it after the pc.
func AppendInstr(b []byte, p *Proc, in Instr) []byte {
	switch in.Op {
	case Const:
		return emit.Appendf(b, "const %d", in.Val)
	case LoadLocal, StoreLocal:
		b = append(append(b, in.Op.String()...), ' ')
		return appendSlot(b, p, in.A)
	case Jump, JumpIfFalse, JumpIfTrue:
		return emit.Appendf(b, "%s -> %d", in.Op.String(), in.A)
	case NewRecord:
		return emit.Appendf(b, "newrecord type=%d n=%d absorb=%b", in.A, in.B, in.Val)
	case NewUnion:
		return emit.Appendf(b, "newunion type=%d tag=%d absorb=%b", in.A, in.B, in.Val)
	case NewArray:
		return emit.Appendf(b, "newarray type=%d", in.A)
	case GetField, SetField:
		return emit.Appendf(b, "%s %d", in.Op.String(), in.A)
	case UnionGet:
		return emit.Appendf(b, "unionget tag=%d", in.A)
	case CastCopy, CastReuse:
		return emit.Appendf(b, "%s type=%d", in.Op.String(), in.A)
	case Assert:
		return emit.Appendf(b, "assert #%d", in.A)
	case Send, SendCommit:
		b = emit.Appendf(b, "%s chan=%d", in.Op.String(), in.A)
		return appendFreeAfter(b, in.B&FlagFreeAfter != 0)
	case Recv:
		return emit.Appendf(b, "recv chan=%d port=%d", in.A, in.B)
	case Alt:
		return emit.Appendf(b, "alt #%d", in.A)
	default:
		return append(b, in.Op.String()...)
	}
}

func appendFreeAfter(b []byte, freeAfter bool) []byte {
	if freeAfter {
		b = append(b, " freeafter"...)
	}
	return b
}

// DisasmFused renders a process's fused translation as human-readable
// assembly, one superinstruction per line, prefixed by the fused index
// and the base-pc range it covers. It is the fused-engine counterpart of
// Disasm: espc -dump-fused prints it as -S prints the IR.
func DisasmFused(p *Proc, fp *FusedProc) string {
	b := make([]byte, 0, 64+40*len(fp.Code)+8*len(fp.Map))
	b = emit.Appendf(b, "process %s (fused: %d instrs over %d base)\n", p.Name, len(fp.Code), len(p.Code))
	for i, in := range fp.Code {
		b = emit.Appendf(b, "%4d  [%d", i, in.Base)
		if in.N > 1 {
			b = emit.Appendf(b, "-%d", int(in.Base)+int(in.N)-1)
		}
		b = append(b, "]\t"...)
		b = AppendFInstr(b, p, in)
		b = append(b, '\n')
	}
	// The base-pc -> fused-index side table, in ascending base-pc order
	// (Map is indexed by pc, so iteration order is deterministic and
	// goldens cannot churn). Interior pcs (-1) are omitted.
	b = append(b, "map:"...)
	for pc, idx := range fp.Map {
		if idx >= 0 {
			b = emit.Appendf(b, " %d->%d", pc, idx)
		}
	}
	b = append(b, '\n')
	return emit.String(b)
}

// AppendFInstr appends the rendering of one fused instruction to b, as
// DisasmFused prints it after the base-pc range.
func AppendFInstr(b []byte, p *Proc, in FInstr) []byte {
	slot := func(b []byte, s int32) []byte { return appendSlot(b, p, int(s)) }
	typeName := "?"
	if in.Type != nil { // set only on allocation and cast sites
		typeName = in.Type.String()
	}
	sub := in.Sub.String()
	switch in.Op {
	case FConst:
		return emit.Appendf(b, "fconst %d", in.Val)
	case FBin:
		return append(append(b, 'f'), sub...)
	case FLoad, FStore:
		b = append(append(b, in.Op.String()...), ' ')
		return slot(b, in.A)
	case FJump, FJumpFalse, FJumpTrue:
		return emit.Appendf(b, "%s -> %d", in.Op.String(), in.A)
	case FNewRecord:
		return emit.Appendf(b, "fnewrecord type=%s n=%d absorb=%b", typeName, in.B, in.Val)
	case FNewUnion:
		return emit.Appendf(b, "fnewunion type=%s tag=%d absorb=%b", typeName, in.B, in.Val)
	case FNewArray:
		return emit.Appendf(b, "fnewarray type=%s", typeName)
	case FGetField, FSetField:
		return emit.Appendf(b, "%s %d", in.Op.String(), in.A)
	case FUnionGet:
		return emit.Appendf(b, "funionget tag=%d", in.A)
	case FCastCopy, FCastReuse:
		return emit.Appendf(b, "%s type=%s", in.Op.String(), typeName)
	case FAssert:
		return emit.Appendf(b, "fassert #%d", in.A)
	case FSend, FSendCommit:
		b = emit.Appendf(b, "%s chan=%d", in.Op.String(), in.A)
		return appendFreeAfter(b, in.B&FlagFreeAfter != 0)
	case FRecv:
		return emit.Appendf(b, "frecv chan=%d port=%d", in.A, in.B)
	case FAlt:
		return emit.Appendf(b, "falt #%d", in.A)
	case FIncrLocal:
		b = slot(append(b, "fincrlocal "...), in.A)
		return emit.Appendf(b, " += %d", in.Val)
	case FLCCmpBr:
		b = slot(append(b, "flccmpbr "...), in.A)
		return emit.Appendf(b, " %s %d ? jump(%t) -> %d", sub, in.Val, in.Sense, in.B)
	case FLLCmpBr:
		b = slot(append(b, "fllcmpbr "...), in.A)
		b = slot(emit.Appendf(b, " %s ", sub), in.C)
		return emit.Appendf(b, " ? jump(%t) -> %d", in.Sense, in.B)
	case FCmpBr:
		return emit.Appendf(b, "fcmpbr %s ? jump(%t) -> %d", sub, in.Sense, in.B)
	case FLCBin:
		b = slot(append(b, "flcbin "...), in.A)
		return emit.Appendf(b, " %s %d", sub, in.Val)
	case FLLBin:
		b = slot(append(b, "fllbin "...), in.A)
		return slot(emit.Appendf(b, " %s ", sub), in.C)
	case FLCBinSt:
		b = slot(append(b, "flcbinst "...), in.B)
		b = slot(append(b, " = "...), in.A)
		return emit.Appendf(b, " %s %d", sub, in.Val)
	case FLLBinSt:
		b = slot(append(b, "fllbinst "...), in.B)
		b = slot(append(b, " = "...), in.A)
		return slot(emit.Appendf(b, " %s ", sub), in.C)
	case FConstSt:
		b = slot(append(b, "fconstst "...), in.B)
		return emit.Appendf(b, " = %d", in.Val)
	case FMove:
		b = slot(append(b, "fmove "...), in.B)
		return slot(append(b, " = "...), in.A)
	default:
		return append(b, in.Op.String()...)
	}
}

// FormatPat renders a runtime pattern.
func FormatPat(p *Pat) string {
	var buf [64]byte
	return string(appendPat(buf[:0], p))
}

func appendPat(b []byte, p *Pat) []byte {
	switch p.Kind {
	case PatAny:
		b = append(b, '_')
	case PatBind:
		b = emit.Appendf(b, "$%d", p.Slot)
	case PatConst:
		b = strconv.AppendInt(b, p.Val, 10)
	case PatSelf:
		b = append(b, '@')
	case PatDynEq:
		b = emit.Appendf(b, "=%d", p.Slot)
	case PatRecord:
		b = append(b, "{ "...)
		for i, e := range p.Elems {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendPat(b, e)
		}
		b = append(b, " }"...)
	case PatUnion:
		b = emit.Appendf(b, "{ tag%d |> ", p.Tag)
		b = appendPat(b, p.Elems[0])
		b = append(b, " }"...)
	}
	return b
}
