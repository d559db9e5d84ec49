package ir

import "testing"

// proc builds a minimal Proc around a code sequence for fusion tests.
func proc(code []Instr) *Proc {
	return &Proc{Name: "t", Code: code, NumLocals: 8, MaxStack: 8}
}

// fuse translates and sanity-checks the Map invariants every consumer
// relies on: Map[0] is an instruction, Map[len] == len(fused code), and
// every non-interior entry is within range.
func fuse(t *testing.T, p *Proc) *FusedProc {
	t.Helper()
	fp := FuseProc(p, nil)
	if len(fp.Map) != len(p.Code)+1 {
		t.Fatalf("Map length %d, want %d", len(fp.Map), len(p.Code)+1)
	}
	if fp.Map[0] != 0 {
		t.Fatalf("Map[0] = %d, want 0", fp.Map[0])
	}
	if got := fp.Map[len(p.Code)]; got != int32(len(fp.Code)) {
		t.Fatalf("Map[end] = %d, want %d", got, len(fp.Code))
	}
	for pc, idx := range fp.Map {
		if idx > int32(len(fp.Code)) {
			t.Fatalf("Map[%d] = %d out of range (%d fused instrs)", pc, idx, len(fp.Code))
		}
	}
	return fp
}

func TestFuseIncrLocal(t *testing.T) {
	// n = n + 5 on one slot collapses to a single FIncrLocal.
	fp := fuse(t, proc([]Instr{
		{Op: LoadLocal, A: 2},
		{Op: Const, Val: 5},
		{Op: Add},
		{Op: StoreLocal, A: 2},
		{Op: Halt},
	}))
	if len(fp.Code) != 2 || fp.Code[0].Op != FIncrLocal {
		t.Fatalf("want [FIncrLocal FHalt], got %v", fp.Code)
	}
	if fp.Code[0].A != 2 || fp.Code[0].Val != 5 || fp.Code[0].N != 4 {
		t.Errorf("FIncrLocal fields: %+v", fp.Code[0])
	}
}

func TestFuseIncrLocalSubNegates(t *testing.T) {
	// n = n - 5 becomes FIncrLocal with Val -5.
	fp := fuse(t, proc([]Instr{
		{Op: LoadLocal, A: 1},
		{Op: Const, Val: 5},
		{Op: Sub},
		{Op: StoreLocal, A: 1},
		{Op: Halt},
	}))
	if fp.Code[0].Op != FIncrLocal || fp.Code[0].Val != -5 {
		t.Fatalf("want FIncrLocal Val=-5, got %+v", fp.Code[0])
	}
}

func TestFuseIncrLocalDifferentSlots(t *testing.T) {
	// m = n + 5 is not an increment: it fuses to FLCBinSt instead.
	fp := fuse(t, proc([]Instr{
		{Op: LoadLocal, A: 1},
		{Op: Const, Val: 5},
		{Op: Add},
		{Op: StoreLocal, A: 3},
		{Op: Halt},
	}))
	if fp.Code[0].Op != FLCBinSt {
		t.Fatalf("want FLCBinSt, got %v", fp.Code[0].Op)
	}
	if fp.Code[0].A != 1 || fp.Code[0].Val != 5 || fp.Code[0].B != 3 || fp.Code[0].Sub != Add {
		t.Errorf("FLCBinSt fields: %+v", fp.Code[0])
	}
}

func TestFuseCompareBranchRetargets(t *testing.T) {
	// while (n < 10) { n = n + 1 } — the loop head fuses to FLCCmpBr and
	// its (remapped) branch target must land on a fused instruction.
	code := []Instr{
		{Op: LoadLocal, A: 0},   // 0: loop head
		{Op: Const, Val: 10},    // 1
		{Op: Lt},                // 2
		{Op: JumpIfFalse, A: 8}, // 3
		{Op: LoadLocal, A: 0},   // 4
		{Op: Const, Val: 1},     // 5
		{Op: Add},               // 6
		{Op: StoreLocal, A: 0},  // 7  (falls through to 8? no: loop back)
		{Op: Halt},              // 8
	}
	// Insert the back jump: body then jump to 0.
	code = append(code[:8], Instr{Op: Jump, A: 0}, Instr{Op: Halt})
	// Targets: JumpIfFalse now exits to 9.
	code[3].A = 9
	fp := fuse(t, proc(code))
	if fp.Code[0].Op != FLCCmpBr {
		t.Fatalf("loop head: want FLCCmpBr, got %v", fp.Code[0].Op)
	}
	if fp.Code[0].Sense { // JumpIfFalse: branch when the compare is false
		t.Errorf("FLCCmpBr Sense = true, want false")
	}
	if fp.Code[0].B != fp.Map[9] {
		t.Errorf("branch target %d, want Map[9]=%d", fp.Code[0].B, fp.Map[9])
	}
	// The body increment fuses, and the back jump is remapped to 0.
	var backJump *FInstr
	for i := range fp.Code {
		if fp.Code[i].Op == FJump {
			backJump = &fp.Code[i]
		}
	}
	if backJump == nil || backJump.A != fp.Map[0] {
		t.Errorf("back jump: %+v, want A=Map[0]=%d", backJump, fp.Map[0])
	}
}

func TestFuseJumpTargetSplitsGroup(t *testing.T) {
	// A jump into the middle of a would-be group forbids fusing across
	// that entry point.
	fp := fuse(t, proc([]Instr{
		{Op: Jump, A: 2},       // 0: jump between Load and Const
		{Op: LoadLocal, A: 0},  // 1
		{Op: Const, Val: 1},    // 2: entry point
		{Op: Add},              // 3
		{Op: StoreLocal, A: 0}, // 4
		{Op: Halt},             // 5
	}))
	if fp.Map[2] < 0 {
		t.Fatalf("pc 2 is a jump target but Map[2] = %d", fp.Map[2])
	}
	// pc 1 must not have fused a 4-wide group across the entry at 2.
	if idx := fp.Map[1]; idx < 0 || fp.Code[idx].N > 1 {
		t.Errorf("group at pc 1 spans the entry point at pc 2: %+v", fp.Code[fp.Map[1]])
	}
}

func TestFuseDivOnlyLastComponent(t *testing.T) {
	// Division can end a fused group (FLCBin) but never sit inside a
	// store-fused group, because it faults.
	fp := fuse(t, proc([]Instr{
		{Op: LoadLocal, A: 0},
		{Op: Const, Val: 2},
		{Op: Div},
		{Op: StoreLocal, A: 1},
		{Op: Halt},
	}))
	if fp.Code[0].Op != FLCBin || fp.Code[0].Sub != Div || fp.Code[0].N != 3 {
		t.Fatalf("want 3-wide FLCBin(Div), got %+v", fp.Code[0])
	}
	if fp.Code[1].Op != FStore {
		t.Fatalf("store must stay un-fused after a faulting op, got %v", fp.Code[1].Op)
	}
}

func TestFuseResumePCAlwaysMapped(t *testing.T) {
	// pc+1 after every Send/SendCommit/Recv is an entry point: blocked
	// processes resume there, so Map must hold a valid fused index even
	// when the next instruction would otherwise be a group interior.
	fp := fuse(t, proc([]Instr{
		{Op: Const, Val: 7},    // 0
		{Op: Send, A: 0},       // 1
		{Op: LoadLocal, A: 0},  // 2: resume point
		{Op: Const, Val: 1},    // 3
		{Op: Add},              // 4
		{Op: StoreLocal, A: 0}, // 5
		{Op: Recv, A: 0},       // 6
		{Op: Halt},             // 7: resume point
	}))
	for _, pc := range []int{2, 7} {
		if fp.Map[pc] < 0 {
			t.Errorf("resume pc %d unmapped (Map=%d)", pc, fp.Map[pc])
		}
	}
}

func TestFuseProgramCoversAllProcs(t *testing.T) {
	prog := &Program{Procs: []*Proc{
		proc([]Instr{{Op: Halt}}),
		proc([]Instr{{Op: Const, Val: 1}, {Op: StoreLocal, A: 0}, {Op: Halt}}),
	}}
	fused := FuseProgram(prog)
	if len(fused) != 2 {
		t.Fatalf("FuseProgram returned %d procs, want 2", len(fused))
	}
	if fused[1].Code[0].Op != FConstSt {
		t.Errorf("proc 1: want FConstSt, got %v", fused[1].Code[0].Op)
	}
}

func TestFuseBinaryOpsShareFBin(t *testing.T) {
	// A lone binary operator (its operands come off the stack) runs as
	// FBin with the base operator in Sub, and disassembles under the
	// operator's own name.
	for op := Add; op <= Ge; op++ {
		fp := fuse(t, proc([]Instr{{Op: Dup}, {Op: op}, {Op: Halt}}))
		fi := fp.Code[1]
		if fi.Op != FBin || fi.Sub != op || fi.N != 1 {
			t.Fatalf("%s: want 1:1 FBin, got %+v", op, fi)
		}
		if got, want := string(AppendFInstr(nil, nil, fi)), "f"+op.String(); got != want {
			t.Errorf("%s renders as %q, want %q", op, got, want)
		}
	}
}

func TestFuseSendAndGetFieldRunAlone(t *testing.T) {
	// A load or constant before Send or GetField is its own group: only
	// Div/Mod may close a multi-instruction group.
	fp := fuse(t, proc([]Instr{
		{Op: LoadLocal, A: 0},
		{Op: GetField, A: 1},
		{Op: Send, A: 0},
		{Op: Const, Val: 3},
		{Op: Send, A: 0},
		{Op: Halt},
	}))
	want := []FOp{FLoad, FGetField, FSend, FConst, FSend, FHalt}
	if len(fp.Code) != len(want) {
		t.Fatalf("want %v, got %+v", want, fp.Code)
	}
	for i, op := range want {
		if fp.Code[i].Op != op || fp.Code[i].N != 1 {
			t.Errorf("fused[%d] = %+v, want 1:1 %s", i, fp.Code[i], op)
		}
	}
}
