// Package mc is an explicit-state model checker for compiled ESP
// programs — the repository's stand-in for SPIN (§5 of the paper).
//
// Like SPIN it is on-the-fly: states are generated during the search, and
// violations are reported with a counterexample trace. It offers SPIN's
// three exploration modes (§5.1): exhaustive search over a visited-state
// set, bit-state hashing for large state spaces, and random simulation.
//
// A state is a quiescent machine: every process parked at a blocking
// point. A transition is one communication (rendezvous pair, or alt arm
// commitment) followed by the deterministic local execution it enables —
// the same merging of deterministic steps that keeps the paper's state
// spaces small (2251 states for the largest VMMC process, §5.3).
//
// The properties checked are the paper's: assertions, absence of
// deadlock, and per-process memory safety — use after free, double free,
// negative reference counts, and leaks via objectId exhaustion (§5.2).
//
// Exhaustive and BitState searches, and CheckProgress's starvation
// search (progress.go), run as a parallel frontier search over a worker
// pool (Options.Workers); see frontier.go. Workers: 1 is a fully
// deterministic breadth-first search.
package mc

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"esplang/internal/ir"
	"esplang/internal/obs"
	"esplang/internal/token"
	"esplang/internal/vm"
)

// Mode selects the exploration strategy.
type Mode int

// Exploration modes (§5.1).
const (
	Exhaustive Mode = iota // full search with a visited-state set
	BitState               // partial search, visited set as a Bloom-style bit array
	Simulation             // random walks
)

func (m Mode) String() string {
	switch m {
	case Exhaustive:
		return "exhaustive"
	case BitState:
		return "bitstate"
	case Simulation:
		return "simulation"
	}
	return "?"
}

// Reduction selects the partial-order reduction applied during
// Exhaustive and BitState searches.
type Reduction int

// Reduction modes.
const (
	// NoReduction explores every enabled transition of every state.
	NoReduction Reduction = iota
	// AmpleSets expands, at each state, a provably sufficient subset of
	// the enabled communications (an ample set) computed from the static
	// independence table (ir.Independence): a closed group of processes
	// whose transitions commute with everything outside the group, with
	// the standard cycle-proviso fallback to full expansion when an ample
	// step discovers no new state. Verdicts — violation kind, fault
	// location, deadlock — are preserved; state and transition counts are
	// typically much smaller, and the counterexample trace may take a
	// different (equivalent) interleaving than the full search's.
	// Simulation mode ignores the setting.
	AmpleSets
)

func (r Reduction) String() string {
	if r == AmpleSets {
		return "ample-sets"
	}
	return "none"
}

// PORStats reports what the ample-set reduction did during a search.
type PORStats struct {
	// AmpleStates counts expanded states where a proper ample subset was
	// found; FullStates counts states expanded in full (no valid ample
	// set existed).
	AmpleStates int64
	FullStates  int64
	// ProvisoFallbacks counts ample expansions that reverted to full
	// expansion because every ample successor was already visited (the
	// cycle proviso: deferred transitions must not be ignored forever
	// around a cycle).
	ProvisoFallbacks int64
	// DeferredTransitions counts enabled communications the reduction did
	// not fire — an upper bound on the direct successor work avoided.
	DeferredTransitions int64
}

// HitRate is the fraction of expanded states that used a proper ample
// subset (0 when nothing was expanded).
func (p *PORStats) HitRate() float64 {
	total := p.AmpleStates + p.FullStates
	if total == 0 {
		return 0
	}
	return float64(p.AmpleStates) / float64(total)
}

// Options configures a check.
type Options struct {
	Mode Mode
	// Workers is the number of parallel search workers for Exhaustive and
	// BitState modes (0 = GOMAXPROCS). Workers: 1 is a fully deterministic
	// sequential breadth-first search; any worker count produces the same
	// violation verdict and state count, but with several workers the
	// specific counterexample returned may vary between runs when the
	// program has more than one violation. Simulation mode is always
	// single-threaded (determinism comes from Seed).
	//
	// With Reduction enabled the cycle-proviso decision reads the shared
	// visited set, so at Workers > 1 the explored state count may vary
	// slightly between runs (a lost race only causes an extra full
	// expansion — a superset of the reduced search, so verdicts are still
	// preserved). Workers: 1 with Reduction remains bit-for-bit
	// deterministic.
	Workers int
	// Reduction selects the partial-order reduction (default: none). The
	// AmpleSets mode computes the ir.Independence table from the
	// program's code once, when the search starts.
	Reduction Reduction
	// MaxStates bounds the number of distinct states explored
	// (0 = 10 million).
	MaxStates int
	// MaxDepth bounds the search depth, in transitions from the initial
	// state (0 = 100000).
	MaxDepth int
	// BitstateBits is log2 of the bit array size for BitState mode
	// (0 = 24, i.e. 16M bits / 2 MB; larger than MaxBitstateBits means
	// MaxBitstateBits).
	BitstateBits uint
	// Seed and SimRuns configure Simulation mode (SimRuns 0 = 100).
	Seed    int64
	SimRuns int
	// MaxLiveObjects bounds the heap of every explored machine; exceeding
	// it is a leak violation (0 = 4096).
	MaxLiveObjects int
	// NoDeadlockCheck disables reporting of deadlocked states (useful
	// when a test driver legitimately stops feeding the system).
	NoDeadlockCheck bool
	// EndRecvOK treats states where every process is halted or blocked
	// waiting to receive as valid end states — the firmware-at-rest
	// convention, standing in for SPIN's end-state labels. Note that with
	// this option a mutual receive-wait goes unreported.
	EndRecvOK bool
	// StepBudget bounds deterministic execution between blocking points.
	StepBudget int64
	// Engine selects the VM interpreter the search executes with (zero
	// value: the fused engine). Verdicts, state counts, and traces are
	// engine-independent; the baseline engine exists for differential
	// testing.
	Engine vm.Engine
	// Progress, when non-nil, is called every ProgressInterval with a
	// snapshot of the search counters (from a dedicated sampler
	// goroutine), and once more with Final set just before Check returns.
	// Long searches stop being silent: espverify -progress surfaces this.
	Progress func(ProgressInfo)
	// ProgressInterval is the sampling period (0 = 2s).
	ProgressInterval time.Duration
	// Metrics, when non-nil, receives the same samples as gauges
	// (mc_states, mc_frontier, mc_states_per_sec, ...) plus an
	// mc_frontier_depth histogram.
	Metrics *obs.Metrics
}

// ProgressInfo is one periodic sample of a running search.
type ProgressInfo struct {
	States      int64 // distinct states admitted so far
	Transitions int64
	Frontier    int   // discovered states not yet expanded
	MaxDepth    int64 // deepest transition sequence seen so far
	MemBytes    int64 // visited-set memory
	Elapsed     time.Duration
	// StatesPerSec is the discovery rate since the previous sample (0 on
	// the first when no time has passed).
	StatesPerSec float64
	// MaxStates is the search's state bound, so progress consumers can
	// estimate how far a truncating run still has to go.
	MaxStates int
	// Final marks the last sample, taken after the workers stopped.
	Final bool
}

func (p ProgressInfo) String() string {
	tag := "progress"
	if p.Final {
		tag = "done"
	}
	s := fmt.Sprintf("%s: %d states, %d transitions, frontier %d, depth %d, %.0f states/s, %.1f MB, %v",
		tag, p.States, p.Transitions, p.Frontier, p.MaxDepth, p.StatesPerSec,
		float64(p.MemBytes)/(1024*1024), p.Elapsed.Round(time.Millisecond))
	if eta, ok := p.ETA(); ok {
		s += fmt.Sprintf(", eta %v to max-states", eta.Round(time.Second))
	}
	return s
}

// ETA estimates how long until the search hits MaxStates at the current
// discovery rate. It reports false on final samples, when no bound or
// rate is known, or when the bound is already reached — searches that
// finish early simply never hit it.
func (p ProgressInfo) ETA() (time.Duration, bool) {
	if p.Final || p.MaxStates <= 0 || p.StatesPerSec <= 0 {
		return 0, false
	}
	remaining := int64(p.MaxStates) - p.States
	if remaining <= 0 {
		return 0, false
	}
	return time.Duration(float64(remaining) / p.StatesPerSec * float64(time.Second)), true
}

// MaxBitstateBits is the largest bit array BitState mode allocates: 2^32
// bits, 512 MB. Options.BitstateBits is capped at it, so no setting
// overflows the array size (1<<64 bits is 0 words) or asks the host for
// more memory than a workstation has.
const MaxBitstateBits = 32

func (o *Options) fill() {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.MaxStates == 0 {
		o.MaxStates = 10_000_000
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 100_000
	}
	if o.BitstateBits == 0 {
		o.BitstateBits = 24
	}
	if o.BitstateBits > MaxBitstateBits {
		o.BitstateBits = MaxBitstateBits
	}
	if o.SimRuns == 0 {
		o.SimRuns = 100
	}
	if o.MaxLiveObjects == 0 {
		o.MaxLiveObjects = 4096
	}
}

// TraceStep is one transition of a counterexample.
type TraceStep struct {
	Choice vm.CommChoice
	Desc   string
	// Pos is the source position of the sender's communication statement
	// (zero when the sender's blocked instruction carries none).
	Pos token.Pos
}

// Violation describes a property failure found during the search.
type Violation struct {
	// Fault is the runtime fault (assertion, memory safety, ...), nil for
	// deadlocks.
	Fault *vm.Fault
	// Deadlock is set when the violation is a stuck non-final state.
	Deadlock bool
	// Trace is the sequence of communications from the initial state.
	Trace []TraceStep
	// Postmortem is the flight-recorder dump of the counterexample
	// replay: the last events (rendezvous, context switches, allocs, the
	// fault) leading into the violation, in the obs text dump format.
	// Simulation mode records its walks instead of replaying them. Empty
	// for a progress search's unknown channel.
	Postmortem string
}

func (v *Violation) String() string {
	var b strings.Builder
	if v.Deadlock {
		b.WriteString("deadlock")
	} else if v.Fault != nil {
		b.WriteString(v.Fault.Error())
	}
	fmt.Fprintf(&b, " (after %d transitions)", len(v.Trace))
	return b.String()
}

// Result summarizes a check.
type Result struct {
	Violation   *Violation // nil = property holds (within the search bounds)
	States      int        // distinct states visited
	Transitions int
	// MaxDepth is the longest sequence of transitions from the initial
	// state encountered — the same unit in every mode (in Simulation mode
	// it is the longest walk). A search that never extends the initial
	// state reports 0.
	MaxDepth  int
	Truncated bool // bounds were hit; the search is partial
	Elapsed   time.Duration
	MemBytes  int64 // memory used by the visited-state structure
	Mode      Mode
	Workers   int // search workers actually used
	// POR carries the ample-set reduction counters; nil when the search
	// ran without reduction.
	POR *PORStats
}

func (r *Result) String() string {
	status := "pass"
	if r.Violation != nil {
		status = "FAIL: " + r.Violation.String()
	} else if r.Truncated {
		status = "pass (partial search)"
	}
	par := ""
	if r.Workers > 1 {
		par = fmt.Sprintf(", %d workers", r.Workers)
	}
	if r.POR != nil {
		par += ", por"
	}
	return fmt.Sprintf("%s — %d states, %d transitions, depth %d, %v, %.1f KB (%s mode%s)",
		status, r.States, r.Transitions, r.MaxDepth, r.Elapsed.Round(time.Millisecond),
		float64(r.MemBytes)/1024, r.Mode, par)
}

// Check explores the program's state space. The program must have no
// external channels with unbound sides playing a role: model-checked
// programs drive themselves (test drivers are ESP processes, the analogue
// of the paper's programmer-supplied test.SPIN).
func Check(prog *ir.Program, opts Options) *Result {
	return check(prog, opts, nil)
}

// check runs Check's search, or with a non-nil progress CheckProgress's
// (see searchFrontier).
func check(prog *ir.Program, opts Options, progress []bool) *Result {
	opts.fill()
	start := time.Now()
	res := &Result{Mode: opts.Mode, Workers: opts.Workers}

	if opts.Mode == Simulation {
		res.Workers = 1
		simulate(prog, opts, res)
		// Simulation has no sampler goroutine; still deliver the final
		// snapshot so -progress callers always see a terminal sample.
		if opts.Progress != nil {
			opts.Progress(ProgressInfo{
				States:      int64(res.States),
				Transitions: int64(res.Transitions),
				MaxDepth:    int64(res.MaxDepth),
				Elapsed:     time.Since(start),
				Final:       true,
			})
		}
	} else {
		searchFrontier(prog, opts, newVisitedSet(prog, opts), progress, res)
	}
	res.Elapsed = time.Since(start)
	return res
}

// stuck reports whether a quiescent state with no enabled communication
// is a deadlock violation under the configured end-state policy.
func stuck(m *vm.Machine, opts Options) bool {
	if opts.NoDeadlockCheck || m.AllHalted() {
		return false
	}
	if opts.EndRecvOK && m.AtRest() {
		return false
	}
	return true
}

func newMachine(prog *ir.Program, opts Options) *vm.Machine {
	m := vm.New(prog, vm.Config{
		Manual:         true,
		MaxLiveObjects: opts.MaxLiveObjects,
		StepBudget:     opts.StepBudget,
		Engine:         opts.Engine,
	})
	m.Cost = vm.ZeroCostModel()
	return m
}

// newStep builds the trace step for firing c from the quiescent state m:
// the source-level description plus the sender's blocked-instruction
// position. When the program carries a source path the location is
// appended to the description, so rendered counterexamples read
// "sender --chan--> receiver (file.esp:12)".
func newStep(m *vm.Machine, prog *ir.Program, c vm.CommChoice) TraceStep {
	st := TraceStep{Choice: c, Desc: describe(prog, c)}
	if c.Sender >= 0 && c.Sender < len(m.Procs) {
		p := m.Procs[c.Sender]
		if p.PC >= 0 && p.PC < len(p.Def.Code) {
			st.Pos = p.Def.Code[p.PC].Pos
		}
	}
	if prog.File != "" && st.Pos.IsValid() {
		st.Desc += fmt.Sprintf(" (%s:%d)", prog.File, st.Pos.Line)
	}
	return st
}

// describe renders a transition in terms of source names.
func describe(prog *ir.Program, c vm.CommChoice) string {
	chName := fmt.Sprintf("chan%d", c.Chan)
	if c.Chan < len(prog.Channels) {
		chName = prog.Channels[c.Chan].Name
	}
	pn := func(i int) string {
		if i < len(prog.Procs) {
			return prog.Procs[i].Name
		}
		return fmt.Sprintf("proc%d", i)
	}
	s := pn(c.Sender)
	if c.SenderArm >= 0 {
		s += fmt.Sprintf("[alt arm %d]", c.SenderArm)
	}
	r := pn(c.Receiver)
	if c.ReceiverArm >= 0 {
		r += fmt.Sprintf("[alt arm %d]", c.ReceiverArm)
	}
	return fmt.Sprintf("%s --%s--> %s", s, chName, r)
}

// simulate runs random walks (SPIN's simulation mode, which "makes a
// random choice at each stage and is therefore more effective in
// discovering bugs" than a deterministic simulator, §5.1).
func simulate(prog *ir.Program, opts Options, res *Result) {
	rng := rand.New(rand.NewSource(opts.Seed))
	for run := 0; run < opts.SimRuns && res.Violation == nil; run++ {
		m := newMachine(prog, opts)
		// Each walk carries a flight recorder so a violation's last events
		// are in hand without a replay.
		m.SetRecorder(obs.NewFlightRecorder(0))
		m.Settle()
		var trace []TraceStep
		for depth := 0; depth < opts.MaxDepth; depth++ {
			if f := m.Fault(); f != nil {
				res.Violation = &Violation{Fault: f, Trace: trace, Postmortem: m.Postmortem(obs.PostmortemEvents)}
				break
			}
			if m.AllHalted() {
				break
			}
			comms := m.EnabledComms()
			if len(comms) == 0 {
				if stuck(m, opts) {
					res.Violation = &Violation{Deadlock: true, Trace: trace, Postmortem: m.Postmortem(obs.PostmortemEvents)}
				}
				break
			}
			c := comms[rng.Intn(len(comms))]
			st := newStep(m, prog, c)
			m.FireComm(c)
			res.Transitions++
			trace = append(trace, st)
			if len(trace) > res.MaxDepth {
				res.MaxDepth = len(trace)
			}
		}
		if f := m.Fault(); f != nil && res.Violation == nil {
			res.Violation = &Violation{Fault: f, Trace: trace, Postmortem: m.Postmortem(obs.PostmortemEvents)}
		}
		res.States += len(trace) // states along walks (not deduplicated)
	}
}
