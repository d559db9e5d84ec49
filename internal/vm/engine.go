package vm

// Engine selects the interpreter implementation; the engines differ only
// in speed. The fused engine is the default (the zero value): it runs
// the load-time translation of ir.FuseProgram and is observably
// identical to the baseline — same Stats, same cycle meter, same faults,
// same trace events, same model-checker results. Both engines take the
// one dynamic rendezvous path; when the program carries the optimizer's
// static rendezvous schedule, an auto-mode, bit-mask fused machine walks
// only the schedule's per-channel scan lists in its partner searches,
// which finds the same first partner for the same charge. The baseline
// engine remains as the differential-testing oracle.
type Engine uint8

// Engines.
const (
	EngineFused Engine = iota
	EngineBaseline
)

func (e Engine) String() string {
	switch e {
	case EngineFused:
		return "fused"
	case EngineBaseline:
		return "baseline"
	}
	return "engine?"
}
