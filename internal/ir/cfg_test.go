package ir

import (
	"reflect"
	"testing"
)

// cfgProc has every kind of block boundary: a loop whose exit branch
// falls through, a rendezvous, an alt with a send arm and a receive arm,
// and a dead loop behind a Halt that only its own jumps lead into.
func cfgProc() *Proc {
	p := proc([]Instr{
		{Op: Const, Val: 0},     // 0
		{Op: StoreLocal, A: 0},  // 1
		{Op: LoadLocal, A: 0},   // 2: loop head
		{Op: JumpIfFalse, A: 8}, // 3
		{Op: LoadLocal, A: 0},   // 4
		{Op: Send, A: 0},        // 5
		{Op: Recv, A: 0, B: 0},  // 6
		{Op: Jump, A: 2},        // 7
		{Op: Alt, A: 0},         // 8
		{Op: Const, Val: 1},     // 9: send arm eval
		{Op: SendCommit, A: 0},  // 10
		{Op: Halt},              // 11: send arm body
		{Op: Halt},              // 12: receive arm body
		{Op: LoadLocal, A: 0},   // 13: dead loop head
		{Op: JumpIfTrue, A: 13}, // 14
		{Op: Jump, A: 13},       // 15
	})
	p.Ports = []Port{{Chan: 0, Pat: &Pat{Kind: PatAny}}}
	p.Alts = []AltDef{{Arms: []AltArm{
		{GuardSlot: -1, IsSend: true, EvalPC: 9, BodyPC: 11},
		{GuardSlot: -1, Port: 0, EvalPC: -1, BodyPC: 12},
	}}}
	return p
}

func marked(b []bool) []int {
	var pcs []int
	for pc, ok := range b {
		if ok {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

func TestSuccsAndRoots(t *testing.T) {
	p := cfgProc()
	for _, c := range []struct {
		pc   int
		want []int
	}{
		{1, []int{2}},
		{3, []int{8, 4}}, // the target first, then the fall-through
		{5, []int{6}},
		{7, []int{2}},
		{8, nil}, // an alt continues in its arms
		{10, []int{11}},
		{11, nil},
	} {
		if got := Succs(p, c.pc, nil); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Succs(pc %d) = %v, want %v", c.pc, got, c.want)
		}
	}
	if got, want := Roots(p, nil), []int{0, 9, 11, 12}; !reflect.DeepEqual(got, want) {
		t.Errorf("Roots = %v, want %v", got, want)
	}
}

func TestLeaders(t *testing.T) {
	p := cfgProc()
	// Roots, jump targets, and the pc after a jump, branch, Halt or Alt.
	if got, want := marked(Leaders(p, false)), []int{0, 2, 4, 8, 9, 11, 12, 13, 15}; !reflect.DeepEqual(got, want) {
		t.Errorf("Leaders(p, false) = %v, want %v", got, want)
	}
	// Plus the resume points after Send, SendCommit and Recv.
	if got, want := marked(Leaders(p, true)), []int{0, 2, 4, 6, 7, 8, 9, 11, 12, 13, 15}; !reflect.DeepEqual(got, want) {
		t.Errorf("Leaders(p, true) = %v, want %v", got, want)
	}
}

// TestReachableFromRootsOnly: a loop that only its own jumps enter is
// unreachable, although its head is a jump target.
func TestReachableFromRootsOnly(t *testing.T) {
	reach := Reachable(cfgProc())
	for pc, ok := range reach {
		if want := pc < 13; ok != want {
			t.Errorf("pc %d reachable = %v, want %v", pc, ok, want)
		}
	}
}

func TestStackDepths(t *testing.T) {
	p := cfgProc()
	depth, err := StackDepths(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, -1, -1, -1}
	if !reflect.DeepEqual(depth, want) {
		t.Errorf("StackDepths = %v, want %v", depth, want)
	}
	p.Code[7] = Instr{Op: Jump, A: 3} // enters pc 3 at depth 0 and 1
	if _, err := StackDepths(p); err == nil {
		t.Error("inconsistent depths at a jump target not reported")
	}
}
