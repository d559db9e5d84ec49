package ir

import (
	"errors"
	"strings"
	"testing"
)

// twoProcProg builds a minimal well-formed program: a sender looping a
// constant into channel 0 and a receiver binding it into a local.
func twoProcProg() *Program {
	sender := &Proc{
		ID:   0,
		Name: "send",
		Code: []Instr{
			{Op: Const, Val: 7}, // 0
			{Op: Send, A: 0},    // 1
			{Op: Jump, A: 0},    // 2
			{Op: Halt},          // 3
		},
		MaxStack: 1,
	}
	recver := &Proc{
		ID:   1,
		Name: "recv",
		Code: []Instr{
			{Op: Recv, A: 0, B: 0}, // 0
			{Op: LoadLocal, A: 0},  // 1
			{Op: Pop},              // 2
			{Op: Jump, A: 0},       // 3
			{Op: Halt},             // 4
		},
		NumLocals: 1,
		LocalName: []string{"v"},
		Ports:     []Port{{Chan: 0, Pat: &Pat{Kind: PatBind, Slot: 0}}},
		MaxStack:  1,
	}
	return &Program{
		Name:     "t",
		Channels: []*Channel{{ID: 0, Name: "c"}},
		Procs:    []*Proc{sender, recver},
	}
}

func TestVerifyOK(t *testing.T) {
	if err := Verify(twoProcProg()); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *Program)
		want    string
	}{
		{
			"jump target out of range",
			func(p *Program) { p.Procs[0].Code[2].A = 99 },
			"target 99 out of range",
		},
		{
			"bad channel id",
			func(p *Program) { p.Procs[0].Code[1].A = 5 },
			"channel id 5 out of range",
		},
		{
			"bad port index",
			func(p *Program) { p.Procs[1].Code[0].B = 3 },
			"port 3 out of range",
		},
		{
			"port on wrong channel",
			func(p *Program) {
				p.Procs[1].Ports[0].Chan = 0
				p.Channels = append(p.Channels, &Channel{ID: 1, Name: "d"})
				p.Procs[1].Code[0].A = 1
			},
			"port 0 is on channel 0",
		},
		{
			"stack underflow",
			func(p *Program) { p.Procs[0].Code[0] = Instr{Op: Nop} },
			"stack underflow",
		},
		{
			"stack overflow past MaxStack",
			func(p *Program) { p.Procs[0].Code[1] = Instr{Op: Const, Val: 1} },
			"exceeds MaxStack",
		},
		{
			"inconsistent depth at merge",
			func(p *Program) {
				p.Procs[0].Code = []Instr{
					{Op: Const, Val: 1},    // 0: depth 0 -> 1
					{Op: JumpIfTrue, A: 4}, // 1: pops; reaches 4 at depth 0
					{Op: Const, Val: 2},    // 2: depth 0 -> 1
					{Op: Jump, A: 4},       // 3: reaches 4 at depth 1 — mismatch
					{Op: Halt},             // 4
				}
			},
			"inconsistent stack depth",
		},
		{
			"blocking op with no resume point",
			func(p *Program) {
				p.Procs[0].Code = []Instr{
					{Op: Const, Val: 1},
					{Op: Send, A: 0},
				}
			},
			"no resume point",
		},
		{
			"pattern slot out of range",
			func(p *Program) { p.Procs[1].Ports[0].Pat.Slot = 9 },
			"pattern slot 9 out of range",
		},
		{
			"bad local slot",
			func(p *Program) { p.Procs[1].Code[1].A = 4 },
			"slot 4 out of range",
		},
		{
			"channel id mismatch",
			func(p *Program) { p.Channels[0].ID = 2 },
			"ID 2 at table index 0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := twoProcProg()
			tc.corrupt(p)
			err := Verify(p)
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// A process-level violation reads the same when only the
			// offending process is checked, as the optimizer does after a
			// per-process pass.
			var ve *VerifyError
			if errors.As(err, &ve) && ve.Proc != "" {
				if perr := VerifyProc(p, p.ProcByName(ve.Proc)); perr == nil || perr.Error() != err.Error() {
					t.Errorf("VerifyProc = %v, Verify = %v", perr, err)
				}
			}
		})
	}
}

func TestStackEffectMatchesInOut(t *testing.T) {
	// StackIn must never exceed what StackEffect implies is popped plus
	// what is pushed; sanity-check a few ops with known shapes.
	if StackEffect(Instr{Op: Add}) != -1 || StackIn(Instr{Op: Add}) != 2 {
		t.Error("Add: want pops 2, net -1")
	}
	if StackEffect(Instr{Op: NewRecord, B: 3}) != -2 || StackIn(Instr{Op: NewRecord, B: 3}) != 3 {
		t.Error("NewRecord(3): want pops 3, net -2")
	}
	if StackEffect(Instr{Op: Dup}) != 1 || StackIn(Instr{Op: Dup}) != 1 {
		t.Error("Dup: want pops 1, net +1")
	}
}
