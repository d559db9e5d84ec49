package vm_test

import (
	"testing"

	"esplang/internal/opt"
	"esplang/internal/vm"
)

// TestCycleDecompositionExact pins the §6.2 accounting identity on every
// engine: the cycle meter is exactly the dot product of the event counters
// with the cost model. There is no Frees term: a free is bookkeeping the
// collector does between instructions, never charged.
func TestCycleDecompositionExact(t *testing.T) {
	engines := []struct {
		name string
		eng  vm.Engine
	}{
		{"baseline", vm.EngineBaseline},
		{"fused", vm.EngineFused},
	}
	var cycles [2]int64
	for i, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog := compileSrc(t, pingPongSrc)
			if _, err := opt.Run(prog, opt.All()); err != nil {
				t.Fatalf("opt: %v", err)
			}
			m := vm.New(prog, vm.Config{Engine: e.eng})
			if err := m.BindReader("outC", &vm.CollectReader{}); err != nil {
				t.Fatal(err)
			}
			if res := m.Run(); res == vm.RunFault {
				t.Fatalf("run result %v (fault: %v)", res, m.Fault())
			}
			c := m.Cost
			s := m.Stats
			want := s.Instrs*c.PerInstr +
				s.CtxSwitches*c.CtxSwitch +
				s.Rendezvous*c.Rendezvous +
				s.Allocs*c.Alloc +
				s.RefOps*c.RefOp +
				s.PatternNodes*c.PatternNode +
				s.MaskChecks*c.MaskCheck +
				s.QueueOps*c.QueueOp +
				s.Polls*c.ExternalPoll +
				s.DeepCopied*c.DeepCopyWord
			if m.Cycles != want {
				t.Errorf("cycle meter %d, decomposition says %d (stats: %s)",
					m.Cycles, want, s)
			}
			cycles[i] = m.Cycles
		})
	}
	if cycles[0] != cycles[1] {
		t.Errorf("engines disagree on total cycles: baseline=%d fused=%d", cycles[0], cycles[1])
	}
}

// TestScanListsNeedSchedule: the fused engine narrows its partner scans
// to the static schedule's scan lists exactly when the program carries a
// schedule and the machine runs in auto, bit-mask mode. An unoptimized
// program carries no schedule, and driving the machine manually (the
// model checker's mode) or on wait queues walks every process; the
// baseline never consults the schedule.
func TestScanListsNeedSchedule(t *testing.T) {
	for _, tc := range []struct {
		name     string
		optimize bool
		cfg      vm.Config
		lists    bool
	}{
		{"fused-auto", true, vm.Config{}, true},
		{"fused-noopt", false, vm.Config{}, false},
		{"fused-manual", true, vm.Config{Manual: true}, false},
		{"fused-waitqueues", true, vm.Config{UseWaitQueues: true}, false},
		{"baseline-auto", true, vm.Config{Engine: vm.EngineBaseline}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := compileSrc(t, pingPongSrc)
			if tc.optimize {
				if _, err := opt.Run(prog, opt.Options{}); err != nil {
					t.Fatalf("opt: %v", err)
				}
			}
			if (prog.Schedule != nil) != tc.optimize {
				t.Fatalf("schedule present = %v, want %v", prog.Schedule != nil, tc.optimize)
			}
			m := vm.New(prog, tc.cfg)
			if err := m.BindReader("outC", &vm.CollectReader{}); err != nil {
				t.Fatal(err)
			}
			if tc.cfg.Manual {
				m.Settle()
				for cs := m.EnabledComms(); len(cs) > 0 && m.Fault() == nil; cs = m.EnabledComms() {
					m.FireComm(cs[0])
				}
			} else {
				m.Run()
			}
			if f := m.Fault(); f != nil {
				t.Fatalf("fault: %v", f)
			}
			s := m.Stats
			if s.Rendezvous < 200 {
				t.Fatalf("only %d rendezvous: the run did not complete (stats: %s)", s.Rendezvous, s)
			}
			if got := vm.ScanLists(m); got != tc.lists {
				t.Errorf("scan lists installed = %v, want %v (stats: %s)", got, tc.lists, s)
			}
		})
	}
}
