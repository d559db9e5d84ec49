// Package ir defines the stack-machine intermediate representation that
// ESP processes compile to.
//
// The design mirrors §6.1 of the paper: a process is a state machine that
// needs no call stack — only a program counter — so a context switch is a
// few instructions. Every blocking point (Send, Recv, Alt) is an explicit
// instruction; between blocking points execution is deterministic and
// atomic with respect to other processes, which both the runtime scheduler
// (non-preemptive) and the model checker (large-step transitions) exploit.
//
// Reference counting follows §4.4/§6.2:
//
//   - allocation sets the count to 1;
//   - constructing a record/union around a *borrowed* child (a variable)
//     increments the child; a *fresh temporary* child (a literal just
//     built) is absorbed — its allocation reference transfers to the
//     parent (the AbsorbMask operand encodes which children are fresh);
//   - freeing an object recursively unlinks its children;
//   - rendezvous transfer bumps the root (the receiver's semantic deep
//     copy), pattern binding bumps each bound reference component, and a
//     destructuring receiver releases the root again; a sender whose value
//     was a fresh temporary releases it after transfer (FlagFreeAfter).
//
// The net effect is the paper's "deep copy that never actually copies".
package ir

import (
	"esplang/internal/token"
	"esplang/internal/types"
)

// Op is an IR opcode.
type Op uint8

// IR opcodes.
const (
	Nop Op = iota

	// Values and locals.
	Const      // push Val (int or bool encoded as 0/1)
	SelfID     // push the process instance id (@)
	LoadLocal  // push locals[A]
	StoreLocal // locals[A] = pop
	Dup        // duplicate top of stack
	Pop        // discard top of stack

	// Arithmetic and logic (operands popped right-then-left).
	Neg
	Not
	Add
	Sub
	Mul
	Div
	Mod
	Eq
	Ne
	Lt
	Le
	Gt
	Ge

	// Control flow.
	Jump        // pc = A
	JumpIfFalse // if !pop { pc = A }
	JumpIfTrue  // if pop { pc = A }

	// Heap.
	NewRecord // A = typeID, B = nfields, Val = absorb mask; pops B values
	NewUnion  // A = typeID, B = tag, Val = absorb mask (bit 0); pops payload
	NewArray  // A = typeID; pops init then count; pushes array
	GetField  // A = field index; pops record, pushes field
	SetField  // A = field index; pops value then record
	GetIndex  // pops index then array, pushes element
	SetIndex  // pops value, index, array
	UnionGet  // A = expected tag; pops union, pushes payload (tag must match)

	// Reference counting.
	Link      // pops ref; count++
	Unlink    // pops ref; count--, free at 0 (recursively unlinking children)
	CastCopy  // A = result typeID; pops ref; pushes fresh shallow copy (children linked)
	CastReuse // A = result typeID; pops ref; pushes same object retyped (opt only)

	// Checks.
	Assert // A = assert id; pops bool; failure stops the machine
	Halt   // process terminates

	// Communication (blocking points).
	Send       // A = channel id, B = flags; pops value, rendezvous
	SendCommit // A = channel id, B = flags; like Send but the partner is pre-committed (alt out arms)
	Recv       // A = channel id, B = port index (process-local); binds pattern on transfer
	Alt        // A = alt table index (process-local)
)

// Send flags (field B of Send/SendCommit).
const (
	// FlagFreeAfter marks the sent value as a fresh temporary: the sender
	// releases its allocation reference after the transfer.
	FlagFreeAfter = 1 << iota
)

var opNames = [...]string{
	Nop: "nop", Const: "const", SelfID: "selfid",
	LoadLocal: "loadlocal", StoreLocal: "storelocal", Dup: "dup", Pop: "pop",
	Neg: "neg", Not: "not",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Mod: "mod",
	Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge",
	Jump: "jump", JumpIfFalse: "jumpfalse", JumpIfTrue: "jumptrue",
	NewRecord: "newrecord", NewUnion: "newunion", NewArray: "newarray",
	GetField: "getfield", SetField: "setfield",
	GetIndex: "getindex", SetIndex: "setindex", UnionGet: "unionget",
	Link: "link", Unlink: "unlink", CastCopy: "castcopy", CastReuse: "castreuse",
	Assert: "assert", Halt: "halt",
	Send: "send", SendCommit: "sendcommit", Recv: "recv", Alt: "alt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// IsBlocking reports whether the opcode is a potential blocking point
// (i.e. an implicit state of the state machine, §4.3).
func (o Op) IsBlocking() bool {
	switch o {
	case Send, Recv, Alt:
		return true
	}
	return false
}

// Instr is one IR instruction.
type Instr struct {
	Op  Op
	A   int
	B   int
	Val int64
	Pos token.Pos
}

// PatKind classifies runtime pattern nodes.
type PatKind uint8

// Runtime pattern node kinds.
const (
	PatAny    PatKind = iota // matches anything, binds nothing
	PatBind                  // matches anything, stores into local Slot
	PatConst                 // value must equal Val
	PatSelf                  // value must equal the receiving process's instance id
	PatDynEq                 // value must equal locals[Slot]
	PatRecord                // positional subpatterns
	PatUnion                 // Tag must match; one subpattern for the payload
)

// Pat is a compiled runtime pattern (the dispatch and binding tree of one
// receive port).
type Pat struct {
	Kind  PatKind
	Slot  int
	Val   int64
	Tag   int
	Elems []*Pat
}

// PatsOverlap conservatively tests whether two patterns can match a
// common value: it answers false only when a constant or a union tag
// proves them disjoint. The VM's alt and external-channel dispatch and
// the C backend's static dispatch tables both filter receivers with it,
// so the two cannot disagree on which port a message may reach.
func PatsOverlap(a, b *Pat) bool {
	wild := func(p *Pat) bool {
		return p.Kind == PatAny || p.Kind == PatBind || p.Kind == PatDynEq || p.Kind == PatSelf
	}
	if wild(a) || wild(b) {
		return true
	}
	switch a.Kind {
	case PatConst:
		return b.Kind != PatConst || a.Val == b.Val
	case PatRecord:
		if b.Kind != PatRecord || len(a.Elems) != len(b.Elems) {
			return true
		}
		for i := range a.Elems {
			if !PatsOverlap(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case PatUnion:
		if b.Kind != PatUnion {
			return true
		}
		if a.Tag != b.Tag {
			return false
		}
		return PatsOverlap(a.Elems[0], b.Elems[0])
	}
	return true
}

// Port is one receive pattern registration on a channel.
type Port struct {
	Chan int // channel id
	Pat  *Pat
}

// AltArm is one case of a compiled alt statement.
type AltArm struct {
	GuardSlot int  // local holding the precomputed guard, or -1
	IsSend    bool // direction
	Chan      int  // channel id
	Port      int  // receive arms: process-local port index
	EvalPC    int  // send arms: start of the value-evaluation code (ends in SendCommit)
	BodyPC    int  // start of the case body
	// OutPat is the statically known shape of a send arm's value
	// (literal parts become constant/tag tests, dynamic parts are Any).
	// Readiness checks use it to skip receivers whose patterns cannot
	// match, so union-literal out arms dispatch correctly even though the
	// value is only evaluated after the rendezvous commits (§6.1).
	OutPat *Pat
	// Pos locates the arm's in/out clause in the source, for per-arm
	// diagnostics from the static analyses.
	Pos token.Pos
}

// AltDef is a compiled alt statement.
type AltDef struct {
	Arms []AltArm
	Pos  token.Pos
}

// AssertInfo describes an assert site for diagnostics.
type AssertInfo struct {
	Pos  token.Pos
	Expr string
}

// Proc is a compiled process.
type Proc struct {
	ID        int
	Name      string
	Code      []Instr
	NumLocals int
	MaxStack  int
	Ports     []Port
	Alts      []AltDef
	LocalName []string // slot -> source name ("" for compiler temps)
	// LocalType records the declared type of each source-level local
	// (nil for compiler temps, which only ever hold scalars). The static
	// analyses use it to restrict ownership tracking to reference slots.
	LocalType []*types.Type
}

// ExtDir mirrors ast.ExtDir without importing the ast package downstream.
type ExtDir int

// External channel directions.
const (
	ExtNone ExtDir = iota
	ExtReader
	ExtWriter
)

// IfaceCase is one named pattern of an external channel interface.
type IfaceCase struct {
	Name string
	Pat  *Pat // with PatBind slots numbered by parameter position
	// ParamTypes lists the bound parameter types in slot order.
	ParamTypes []*types.Type
}

// Channel is a compiled channel.
type Channel struct {
	ID        int
	Name      string
	Elem      *types.Type
	Ext       ExtDir
	IfaceName string
	Cases     []IfaceCase // external interface cases, if any
	// AllPortsCover reports that every receive pattern on this channel
	// matches any value of the element type, so "some receiver waiting"
	// implies "a matching receiver is waiting" (enables the postponed
	// evaluation of alt out arms, §6.1).
	AllPortsCover bool
}

// Program is a fully compiled ESP program. It does not carry the
// transition-independence table (independence.go): only partial-order
// reduction and the -dump-indep printer read it, and each computes it
// from the code it reads.
type Program struct {
	Name     string
	Universe *types.Universe
	Channels []*Channel
	Procs    []*Proc
	Asserts  []AssertInfo
	// Source is the original ESP text, retained for diagnostics and the
	// line-count reports.
	Source string
	// File is the path the source was read from ("" when compiled from
	// memory). Faults, model-checker traces, and the C and Promela
	// backends use it to report file:line locations.
	File string
	// Fused caches the fused-engine translation of every process (see
	// fused.go). The optimizer driver populates it after its final
	// rewrite; nil means not (or no longer) translated, and vm.New then
	// fuses locally without touching the program.
	Fused []*FusedProc
	// Schedule holds the per-channel scan lists the optimizer computes
	// once the code settles (see schedule.go); nil when the program has
	// not been optimized.
	Schedule *Schedule
}

// ChannelByName returns the named channel or nil.
func (p *Program) ChannelByName(name string) *Channel {
	for _, c := range p.Channels {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ProcByName returns the named process or nil.
func (p *Program) ProcByName(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}
