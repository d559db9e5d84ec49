// Fused execution form: the load-time translation the VM's fused engine
// runs. Translation collapses common stack sequences into
// superinstructions (local increments, compare-and-branch, load-op-store,
// local moves), resolves every jump target to a fused-code index, and
// pre-resolves the type of every allocation site, so the interpreter loop
// dispatches once where the baseline dispatched three or four times.
//
// The translation is purely structural — it never changes what the
// program does or what it is charged. Every FInstr records how many base
// instructions it covers (N) and the pc of its first base instruction
// (Base), which is exactly what the fused engine needs to charge the
// identical PerInstr cost, report the identical fault pc, and honor the
// step budget at the identical instruction boundary as the baseline
// interpreter.
//
// Fusion rules that keep the two engines bit-identical:
//
//   - a group never spans a block leader, resume points after
//     Send/SendCommit/Recv included (Leaders(p, true)): control can only
//     ever land on a group head, so the base-pc -> fused-index map is
//     total over reachable resume points;
//   - an instruction that can fault or emit a trace event may only be
//     the LAST component of a group: all preceding components are pure,
//     so when the event fires the cycle meter — bulk-charged at group
//     entry — reads exactly what the baseline's per-instruction charging
//     would read. The only such components are Div/Mod, closing an
//     FLCBin/FLLBin; every other faulting or tracing instruction runs as
//     its own 1:1 group.
package ir

import "esplang/internal/types"

// FOp is a fused-engine opcode.
type FOp uint8

// Fused opcodes. The first block runs one base instruction each: every
// base opcode has its own, except the eleven binary operators, which
// share FBin; the second block is the superinstructions.
const (
	FNop FOp = iota
	FConst
	FSelfID
	FLoad
	FStore
	FDup
	FPop
	FNeg
	FNot
	FBin       // Sub = the base operator, Add..Ge
	FJump      // A = fused target index
	FJumpFalse // A = fused target index
	FJumpTrue  // A = fused target index
	FNewRecord // Type = record type; B = nfields; Val = absorb mask
	FNewUnion  // Type = union type; B = tag; Val = absorb mask (bit 0)
	FNewArray  // Type = array type
	FGetField  // A = field index
	FSetField  // A = field index
	FGetIndex
	FSetIndex
	FUnionGet // A = expected tag
	FLink
	FUnlink
	FCastCopy  // Type = result type
	FCastReuse // Type = result type
	FAssert    // A = assert id
	FHalt
	FSend       // A = channel id; B = flags
	FSendCommit // A = channel id; B = flags
	FRecv       // A = channel id; B = port index
	FAlt        // A = alt table index

	// Superinstructions. Sub selects the arithmetic/comparison operator,
	// Sense the branch polarity (true = jump when the condition holds).
	FIncrLocal // LoadLocal A; Const; Add/Sub; StoreLocal A   => locals[A] += Val
	FLCCmpBr   // LoadLocal A; Const Val; <cmp>; branch to B
	FLLCmpBr   // LoadLocal A; LoadLocal C; <cmp>; branch to B
	FCmpBr     // <cmp>; branch to B (operands on the stack)
	FLCBin     // LoadLocal A; Const Val; <bin>                (Div/Mod allowed: last component)
	FLLBin     // LoadLocal A; LoadLocal C; <bin>
	FLCBinSt   // LoadLocal A; Const Val; <bin>; StoreLocal B  (no Div/Mod: interior faults forbidden)
	FLLBinSt   // LoadLocal A; LoadLocal C; <bin>; StoreLocal B
	FConstSt   // Const Val; StoreLocal B
	FMove      // LoadLocal A; StoreLocal B
)

var fopNames = [...]string{
	FNop: "fnop", FConst: "fconst", FSelfID: "fselfid",
	FLoad: "fload", FStore: "fstore", FDup: "fdup", FPop: "fpop",
	FNeg: "fneg", FNot: "fnot", FBin: "fbin",
	FJump: "fjump", FJumpFalse: "fjumpfalse", FJumpTrue: "fjumptrue",
	FNewRecord: "fnewrecord", FNewUnion: "fnewunion", FNewArray: "fnewarray",
	FGetField: "fgetfield", FSetField: "fsetfield",
	FGetIndex: "fgetindex", FSetIndex: "fsetindex", FUnionGet: "funionget",
	FLink: "flink", FUnlink: "funlink", FCastCopy: "fcastcopy", FCastReuse: "fcastreuse",
	FAssert: "fassert", FHalt: "fhalt",
	FSend: "fsend", FSendCommit: "fsendcommit", FRecv: "frecv", FAlt: "falt",
	FIncrLocal: "fincrlocal", FLCCmpBr: "flccmpbr", FLLCmpBr: "fllcmpbr", FCmpBr: "fcmpbr",
	FLCBin: "flcbin", FLLBin: "fllbin", FLCBinSt: "flcbinst", FLLBinSt: "fllbinst",
	FConstSt: "fconstst", FMove: "fmove",
}

func (o FOp) String() string {
	if int(o) < len(fopNames) && fopNames[o] != "" {
		return fopNames[o]
	}
	return "fop?"
}

// FInstr is one fused instruction.
type FInstr struct {
	Op    FOp
	Sub   Op     // operator selector of FBin and the arithmetic/compare superinstructions
	Sense bool   // branch superinstructions: jump when the condition is true
	N     uint16 // base instructions this FInstr covers (cost accounting)
	A     int32
	B     int32
	C     int32
	Base  int32 // pc of the first covered base instruction
	Val   int64
	Type  *types.Type // pre-resolved allocation/cast type
}

// FusedProc is the fused translation of one process.
type FusedProc struct {
	Code []FInstr
	// Map translates a base pc to its fused-code index: -1 for pcs
	// interior to a fused group (control never lands there), and
	// Map[len(base code)] = len(Code) so one-past-the-end resume points
	// translate consistently.
	Map []int32
}

func isCmp(op Op) bool  { return op >= Eq && op <= Ge }
func isBin(op Op) bool  { return op >= Add && op <= Ge }
func isPure(op Op) bool { return isBin(op) && op != Div && op != Mod }

// mirror maps each base opcode to its 1:1 fused counterpart (binary
// operators map to FBin).
var mirror = [...]FOp{
	Nop: FNop, Const: FConst, SelfID: FSelfID,
	LoadLocal: FLoad, StoreLocal: FStore, Dup: FDup, Pop: FPop,
	Neg: FNeg, Not: FNot,
	Add: FBin, Sub: FBin, Mul: FBin, Div: FBin, Mod: FBin,
	Eq: FBin, Ne: FBin, Lt: FBin, Le: FBin, Gt: FBin, Ge: FBin,
	Jump: FJump, JumpIfFalse: FJumpFalse, JumpIfTrue: FJumpTrue,
	NewRecord: FNewRecord, NewUnion: FNewUnion, NewArray: FNewArray,
	GetField: FGetField, SetField: FSetField,
	GetIndex: FGetIndex, SetIndex: FSetIndex, UnionGet: FUnionGet,
	Link: FLink, Unlink: FUnlink, CastCopy: FCastCopy, CastReuse: FCastReuse,
	Assert: FAssert, Halt: FHalt,
	Send: FSend, SendCommit: FSendCommit, Recv: FRecv, Alt: FAlt,
}

// FuseProc translates one process. u resolves allocation-site types; it
// may be nil for hand-built test programs that allocate nothing.
func FuseProc(p *Proc, u *types.Universe) *FusedProc {
	entry := Leaders(p, true)
	fp := &FusedProc{Map: make([]int32, len(p.Code)+1)}
	for i := range fp.Map {
		fp.Map[i] = -1
	}

	// interiorFree reports that none of pc+1 .. pc+n-1 is a leader, so a
	// group of n instructions starting at pc is legal.
	interiorFree := func(pc, n int) bool {
		if pc+n > len(p.Code) {
			return false
		}
		for i := pc + 1; i < pc+n; i++ {
			if entry[i] {
				return false
			}
		}
		return true
	}

	pc := 0
	for pc < len(p.Code) {
		fp.Map[pc] = int32(len(fp.Code))
		fi, n := fuseAt(p.Code, pc, interiorFree)
		if fi.Op == FNewRecord || fi.Op == FNewUnion || fi.Op == FNewArray ||
			fi.Op == FCastCopy || fi.Op == FCastReuse {
			if u != nil {
				fi.Type = u.ByID(p.Code[pc].A)
			}
		}
		fi.Base = int32(pc)
		fi.N = uint16(n)
		fp.Code = append(fp.Code, fi)
		pc += n
	}
	fp.Map[len(p.Code)] = int32(len(fp.Code))

	// Second pass: retarget branches from base pcs to fused indices. Every
	// branch target is a leader, so its Map slot is never -1.
	for i := range fp.Code {
		fi := &fp.Code[i]
		switch fi.Op {
		case FJump, FJumpFalse, FJumpTrue:
			fi.A = fp.Map[fi.A]
		case FCmpBr, FLCCmpBr, FLLCmpBr:
			fi.B = fp.Map[fi.B]
		}
	}
	return fp
}

// fuseAt matches the longest superinstruction pattern starting at pc, or
// falls back to the 1:1 mirror of the single instruction. It returns the
// fused instruction (Base/N unset) and the number of base instructions
// consumed.
func fuseAt(code []Instr, pc int, interiorFree func(pc, n int) bool) (FInstr, int) {
	in := code[pc]

	// 4-wide patterns headed by LoadLocal.
	if in.Op == LoadLocal && interiorFree(pc, 4) {
		b, c, d := code[pc+1], code[pc+2], code[pc+3]
		switch {
		case b.Op == Const && (c.Op == Add || c.Op == Sub) &&
			d.Op == StoreLocal && d.A == in.A:
			v := b.Val
			if c.Op == Sub {
				v = -v
			}
			return FInstr{Op: FIncrLocal, A: int32(in.A), Val: v}, 4
		case b.Op == Const && isCmp(c.Op) && (d.Op == JumpIfFalse || d.Op == JumpIfTrue):
			return FInstr{Op: FLCCmpBr, Sub: c.Op, Sense: d.Op == JumpIfTrue,
				A: int32(in.A), Val: b.Val, B: int32(d.A)}, 4
		case b.Op == LoadLocal && isCmp(c.Op) && (d.Op == JumpIfFalse || d.Op == JumpIfTrue):
			return FInstr{Op: FLLCmpBr, Sub: c.Op, Sense: d.Op == JumpIfTrue,
				A: int32(in.A), C: int32(b.A), B: int32(d.A)}, 4
		case b.Op == Const && isPure(c.Op) && d.Op == StoreLocal:
			return FInstr{Op: FLCBinSt, Sub: c.Op, A: int32(in.A), Val: b.Val, B: int32(d.A)}, 4
		case b.Op == LoadLocal && isPure(c.Op) && d.Op == StoreLocal:
			return FInstr{Op: FLLBinSt, Sub: c.Op, A: int32(in.A), C: int32(b.A), B: int32(d.A)}, 4
		}
	}

	// 3-wide: LoadLocal; Const/LoadLocal; <bin>. Div/Mod are allowed — the
	// possibly-faulting operator is the last component.
	if in.Op == LoadLocal && interiorFree(pc, 3) {
		b, c := code[pc+1], code[pc+2]
		switch {
		case b.Op == Const && isBin(c.Op):
			return FInstr{Op: FLCBin, Sub: c.Op, A: int32(in.A), Val: b.Val}, 3
		case b.Op == LoadLocal && isBin(c.Op):
			return FInstr{Op: FLLBin, Sub: c.Op, A: int32(in.A), C: int32(b.A)}, 3
		}
	}

	// 2-wide patterns.
	if interiorFree(pc, 2) {
		b := code[pc+1]
		switch {
		case isCmp(in.Op) && (b.Op == JumpIfFalse || b.Op == JumpIfTrue):
			return FInstr{Op: FCmpBr, Sub: in.Op, Sense: b.Op == JumpIfTrue, B: int32(b.A)}, 2
		case in.Op == Const && b.Op == StoreLocal:
			return FInstr{Op: FConstSt, Val: in.Val, B: int32(b.A)}, 2
		case in.Op == LoadLocal && b.Op == StoreLocal:
			return FInstr{Op: FMove, A: int32(in.A), B: int32(b.A)}, 2
		}
	}

	// 1:1 mirror.
	fi := FInstr{Op: FNop, A: int32(in.A), B: int32(in.B), Val: in.Val}
	if int(in.Op) < len(mirror) {
		fi.Op = mirror[in.Op]
	}
	if fi.Op == FBin {
		fi.Sub = in.Op
	}
	return fi, 1
}

// FuseProgram translates every process. The result is independent of
// the program's Fused field; callers that cache it there must do so
// before sharing the program across machines.
func FuseProgram(prog *Program) []*FusedProc {
	out := make([]*FusedProc, len(prog.Procs))
	for i, p := range prog.Procs {
		out[i] = FuseProc(p, prog.Universe)
	}
	return out
}
