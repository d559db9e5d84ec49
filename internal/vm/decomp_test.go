package vm_test

import (
	"testing"

	"esplang/internal/opt"
	"esplang/internal/vm"
)

// recordPingPongSrc moves records that hold an array, so the deep-copy
// ablation has an object graph to copy; pingPongSrc moves ints only.
const recordPingPongSrc = `
channel c: record of { n: int, data: array of int}
channel outC: int external reader
process producer {
    $i = 0;
    while (i < 20) {
        $d: array of int = { 3 -> i};
        out( c, { i, d});
        unlink( d);
        i = i + 1;
    }
}
process consumer {
    $i = 0;
    $sum = 0;
    while (i < 20) {
        in( c, { $n, $d});
        sum = sum + n + d[2];
        unlink( d);
        i = i + 1;
    }
    out( outC, sum);
}
`

// TestCycleDecompositionExact pins the §6.2 accounting identity on every
// engine and in both ablation modes (wait queues, forced deep copy): the
// cycle meter is exactly the dot product of the event counters with the
// cost model. There is no Frees term: a free is bookkeeping the collector
// does between instructions, never charged.
func TestCycleDecompositionExact(t *testing.T) {
	engines := []struct {
		name string
		eng  vm.Engine
	}{
		{"baseline", vm.EngineBaseline},
		{"fused", vm.EngineFused},
	}
	srcs := [...]string{pingPongSrc, recordPingPongSrc}
	for _, mode := range []struct {
		prefix string
		cfg    vm.Config
	}{
		{"", vm.Config{}},
		{"waitqueues-", vm.Config{UseWaitQueues: true}},
		{"deepcopy-", vm.Config{ForceDeepCopy: true}},
	} {
		var cycles [2][len(srcs)]int64
		for i, e := range engines {
			t.Run(mode.prefix+e.name, func(t *testing.T) {
				for j, src := range srcs {
					prog := compileSrc(t, src)
					if _, err := opt.Run(prog, opt.All()); err != nil {
						t.Fatalf("opt: %v", err)
					}
					cfg := mode.cfg
					cfg.Engine = e.eng
					m := vm.New(prog, cfg)
					if err := m.BindReader("outC", &vm.CollectReader{}); err != nil {
						t.Fatal(err)
					}
					if res := m.Run(); res == vm.RunFault {
						t.Fatalf("program %d: run result %v (fault: %v)", j, res, m.Fault())
					}
					c := m.Cost
					s := m.Stats
					if cfg.ForceDeepCopy && src == recordPingPongSrc && s.DeepCopied == 0 {
						t.Fatalf("program %d copied nothing (stats: %s)", j, s)
					}
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
						t.Errorf("program %d: cycle meter %d, decomposition says %d (stats: %s)",
							j, m.Cycles, want, s)
					}
					cycles[i][j] = m.Cycles
				}
			})
		}
		for j := range srcs {
			if cycles[0][j] != cycles[1][j] {
				t.Errorf("%sprogram %d: engines disagree on total cycles: baseline=%d fused=%d",
					mode.prefix, j, cycles[0][j], cycles[1][j])
			}
		}
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
