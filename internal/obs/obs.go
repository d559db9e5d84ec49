// Package obs is the observability layer of the ESP runtime: execution
// tracing, cycle profiling, and metrics for the virtual machine, the
// simulated NIC testbed, and the model checker.
//
// The paper's whole evaluation (§6.1–§6.2) rests on knowing where
// firmware cycles go — context switches, rendezvous, reference counting —
// so every execution layer of this repository reports into this package:
//
//   - the VM records every context switch, rendezvous, allocation, free,
//     fault, and external poll into a FlightRecorder, its one event sink
//     (nil-check-only overhead when none is attached): a fixed ring for
//     postmortems, or a growing one (NewEventLog) that keeps a whole run;
//   - ChromeTracer renders recorded events as Chrome trace-event JSON
//     (Perfetto / chrome://tracing compatible), one track per ESP process
//     plus hardware tracks for the simulated NIC's DMA engines;
//   - Profiler attributes CostModel cycle charges to source lines,
//     producing the flat hot-line profile and the per-event breakdown
//     table of §6.2;
//   - Metrics is a counters/gauges/histograms registry with JSON and
//     Prometheus text snapshot export, fed by the VM, the sim kernel, and
//     the model checker's periodic progress samples.
//
// Timestamps are int64 and unit-agnostic: the VM uses its cycle counter
// unless a clock is installed; the NIC testbed installs the sim kernel's
// nanosecond clock so firmware activity lines up with DMA spans.
package obs

// Kind classifies one costed runtime event — exactly the charge classes
// of the VM's CostModel, so a profile decomposes the cycle meter without
// remainder.
type Kind uint8

// Event kinds (one per CostModel charge class).
const (
	KindInstr Kind = iota
	KindCtxSwitch
	KindRendezvous
	KindAlloc
	KindRefOp
	KindPattern
	KindMaskCheck
	KindQueueOp
	KindPoll
	KindDeepCopy
	NumKinds
)

var kindNames = [NumKinds]string{
	KindInstr:      "instr",
	KindCtxSwitch:  "ctxswitch",
	KindRendezvous: "rendezvous",
	KindAlloc:      "alloc",
	KindRefOp:      "refop",
	KindPattern:    "pattern",
	KindMaskCheck:  "maskcheck",
	KindQueueOp:    "queueop",
	KindPoll:       "poll",
	KindDeepCopy:   "deepcopy",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "kind?"
}
