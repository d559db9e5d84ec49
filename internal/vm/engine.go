package vm

import "fmt"

// Engine selects the interpreter implementation. The fused engine is the
// default (the zero value): it runs the load-time translation of
// ir.FuseProgram and is observably identical to the baseline — same
// Stats, same cycle meter, same faults, same trace events — just faster.
// When the program carries the optimizer's static rendezvous schedule,
// an auto-mode, bit-mask fused machine also executes it: direct-transfer
// instructions on statically-matched channels and narrowed partner scans
// everywhere else — still observably identical, with one extra
// diagnostic counter (Stats.DirectXfers) that charges no cycles. The
// baseline engine remains as the differential-testing oracle.
// The compiled engine executes ahead-of-time generated Go code (see
// internal/gobackend): one native function per process, installed with
// Machine.InstallCompiled. A machine configured for EngineCompiled but
// without installed functions falls back to the baseline loop, so the
// configuration is always safe to run in-process.
type Engine uint8

// Engines.
const (
	EngineFused Engine = iota
	EngineBaseline
	EngineCompiled
)

func (e Engine) String() string {
	switch e {
	case EngineFused:
		return "fused"
	case EngineBaseline:
		return "baseline"
	case EngineCompiled:
		return "compiled"
	}
	return "engine?"
}

// ParseEngine parses the -engine flag syntax.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "fused":
		return EngineFused, nil
	case "baseline":
		return EngineBaseline, nil
	case "compiled":
		return EngineCompiled, nil
	}
	return EngineFused, fmt.Errorf("unknown engine %q (want baseline, fused, or compiled)", s)
}
