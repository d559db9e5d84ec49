package vm

import (
	"fmt"

	"esplang/internal/ir"
	"esplang/internal/obs"
)

// ProcStatus is the scheduling state of a process instance.
type ProcStatus uint8

// Process states. A blocked process is parked at a Send/Recv/Alt
// instruction; only its program counter and blocking descriptor are live —
// the paper's stack-less context switch (§6.1).
const (
	PReady ProcStatus = iota
	PBlockedSend
	PBlockedRecv
	PBlockedAlt
	PHalted
)

func (s ProcStatus) String() string {
	switch s {
	case PReady:
		return "ready"
	case PBlockedSend:
		return "blocked(send)"
	case PBlockedRecv:
		return "blocked(recv)"
	case PBlockedAlt:
		return "blocked(alt)"
	case PHalted:
		return "halted"
	}
	return "?"
}

// ProcInst is one running process.
type ProcInst struct {
	Def    *ir.Proc
	ID     int
	PC     int
	Locals []Value
	Stack  []Value
	Status ProcStatus

	// Blocked-send state.
	Pending      Value
	PendingFlags int

	// Blocking descriptor: the channel (send/recv), port (recv), alt
	// table index (alt), and the pc to resume at once the communication
	// completes.
	WaitChan int
	WaitPort int
	AltIdx   int
	ResumePC int
}

// Config controls machine behavior.
type Config struct {
	// Manual disables eager rendezvous: Send/Recv/Alt block immediately
	// and communications are fired explicitly (model-checker mode).
	// SendCommit still auto-completes: it is the second half of an
	// already-chosen transition.
	Manual bool
	// UseWaitQueues selects the per-channel wait-queue implementation of
	// blocking instead of the paper's per-process bit-mask scan (§6.1
	// ablation).
	UseWaitQueues bool
	// ForceDeepCopy makes every rendezvous physically deep-copy the
	// message instead of adjusting reference counts (§6.2 ablation).
	ForceDeepCopy bool
	// MaxLiveObjects bounds the heap; exceeding it faults (leak
	// detection, §5.2). Zero means unlimited.
	MaxLiveObjects int
	// StepBudget bounds the instructions one process may execute between
	// blocking points (runaway-loop guard). Zero means the default.
	StepBudget int64
	// MaxCycles, when positive, bounds the machine's total cycle meter:
	// once exceeded, the next process resumption faults. StepBudget
	// cannot catch a program that rendezvouses forever (each blocking
	// point resets the per-process counter), so an infinite producer/
	// consumer ping-pong runs — and a tracer accumulates — without
	// bound. Cycle accounting is bit-identical across engines, so every
	// engine truncates the same program at the same process and point.
	// Zero means unlimited (the firmware default: a switch program is
	// supposed to run forever).
	MaxCycles int64
	// Engine selects the interpreter (zero value: the fused engine).
	Engine Engine
}

const defaultStepBudget = 50_000_000

// Machine executes one compiled ESP program.
type Machine struct {
	Prog   *ir.Program
	Procs  []*ProcInst
	Cost   CostModel
	Stats  Stats
	Cycles int64
	Config Config

	heap  Heap
	ready []int // LIFO stack of ready proc indices (stack-based policy, §6.1)
	flt   *Fault

	// fused is the fused-engine translation of the program, nil when the
	// baseline engine was selected. It is immutable and shared by clones.
	fused []*ir.FusedProc

	// compiled holds the generated native step functions of the compiled
	// engine (one per process, installed by InstallCompiled); nil for
	// every other engine, in which case an EngineCompiled machine runs
	// the baseline loop.
	compiled []CompiledProc

	// sched is the runtime form of the static rendezvous schedule
	// (process-fused engine, auto + bit-mask mode only; nil otherwise).
	// Immutable and shared by clones; schedStore is its backing storage
	// so New performs no extra allocation for it.
	sched      *schedRT
	schedStore schedRT

	// State-snapshot scratch (see savedstate.go): a per-machine generation
	// counter for object-graph marking, the key buffer and snapshot that
	// Save and EncodeState reuse, and the pool of objects RestoreState
	// rebuilds the heap into. None of this is shared between machines.
	markGen int64
	encBuf  []byte
	encSnap *SavedState
	objPool []*Object

	// Sorted external-channel ID lists, rebuilt lazily after every
	// BindWriter/BindReader, so Poll does not sort on every call.
	extWIDsC []int
	extRIDsC []int

	// commitTarget/commitArm pin the receiver (and its alt arm, or -1)
	// the next SendCommit must deliver to; set by the model checker's
	// FireComm, -1 otherwise.
	commitTarget int
	commitArm    int

	// External bindings, indexed by channel ID (nil = unbound). Slices
	// rather than maps: tryCompleteSend/Recv and Poll consult them on
	// every communication, and the index is hot enough that map hashing
	// showed up in firmware profiles.
	extW []ExternalWriter
	extR []ExternalReader

	// Wait-queue mode state (UseWaitQueues; nil maps otherwise — the
	// unconditional reads and deletes below are no-ops on nil).
	sendQ map[int][]int
	recvQ map[int][]int

	// Observability (all nil/zero when off — see obs.go). curLine is the
	// source line of the instruction being executed, maintained only while
	// a profiler is installed. allIdx caches the all-processes index list
	// the bit-mask candidate scan returns, built lazily on first use.
	tracer obs.Tracer
	rec    *obs.FlightRecorder
	// Pre-packed Record arguments, built by SetRecorder so every trace
	// site is two loads and a call: PA(id, 0) words by proc ID, and NK
	// words (kind + interned name) by proc ID, channel ID, or status.
	// recStop is indexed p.Status&7 so the bounds check folds away.
	recPA    []uint64
	recStart []uint64
	recStop  [8]uint64
	recRend  []uint64
	recPoll  []uint64
	prof     *obs.Profiler
	clock    func() int64
	curLine  int
	allIdx   []int

	metrics *obs.Metrics
	mRend   []*obs.Counter
	mCtx    *obs.Counter
	mAllocs *obs.Counter
	mFrees  *obs.Counter
	mPolls  *obs.Counter
	mReady  *obs.Histogram
}

// New creates a machine for prog. All processes start ready, in
// declaration order.
func New(prog *ir.Program, cfg Config) *Machine {
	if cfg.StepBudget == 0 {
		cfg.StepBudget = defaultStepBudget
	}
	m := &Machine{
		Prog:         prog,
		Config:       cfg,
		Cost:         DefaultCostModel(),
		extW:         make([]ExternalWriter, len(prog.Channels)),
		extR:         make([]ExternalReader, len(prog.Channels)),
		commitTarget: -1,
		commitArm:    -1,
	}
	if cfg.UseWaitQueues {
		m.sendQ = make(map[int][]int)
		m.recvQ = make(map[int][]int)
	}
	m.heap.MaxLive = cfg.MaxLiveObjects
	switch cfg.Engine {
	case EngineFused:
		m.fused = prog.Fused
		if m.fused == nil {
			// The program was not fused ahead of time (optimizer skipped or
			// bypassed); translate locally without touching the shared
			// program.
			m.fused = ir.FuseProgram(prog)
		}
	case EngineProcFused:
		m.fused = prog.FusedSched
		if m.fused == nil {
			// No schedule-aware translation cached (process fusion off in
			// the optimizer): run the plain fused form; the schedule fast
			// paths stay off.
			m.fused = prog.Fused
			if m.fused == nil {
				m.fused = ir.FuseProgram(prog)
			}
		} else if !cfg.Manual && !cfg.UseWaitQueues && prog.Schedule != nil {
			// The static schedule drives the fast paths only in auto,
			// bit-mask mode: Manual machines (the model checker) enumerate
			// communications themselves, and queue mode's charges are tied
			// to the dynamic queues.
			m.schedStore = schedRT{writers: prog.Schedule.Writers,
				readers: prog.Schedule.Readers, internal: prog.Schedule.Internal}
			m.sched = &m.schedStore
		}
		if !cfg.Manual {
			// Recycle the element storage of freed objects: the snapshot
			// machinery of Manual machines owns object lifetimes,
			// everything else is free to reuse the backing arrays. Object
			// shells are never reused (they tombstone dangling
			// references), so this is observable on no program — buggy or
			// not.
			m.heap.recycle = true
		}
	case EngineCompiled:
		// The compiled engine mirrors the baseline's rendezvous machinery
		// exactly (full-table partner scans, no static schedule), so the
		// generated code's accounting is bit-identical to the oracle by
		// construction. Element-storage recycling is unobservable (see the
		// ProcFused case above), so the native code gets it too. Until
		// InstallCompiled provides the generated step functions, the
		// machine runs the baseline loop.
		if !cfg.Manual {
			m.heap.recycle = true
		}
	}
	// Process instances, locals, and stacks live in two block allocations:
	// firmware benchmarks build a machine per run, and the per-process
	// make calls were a measurable slice of their profiles. The full slice
	// expressions below wall each region off so an append past a stack's
	// capacity reallocates instead of bleeding into its neighbor.
	insts := make([]ProcInst, len(prog.Procs))
	nvals := 0
	for _, pd := range prog.Procs {
		nvals += pd.NumLocals + pd.MaxStack
	}
	vals := make([]Value, nvals)
	m.Procs = make([]*ProcInst, len(prog.Procs))
	off := 0
	for i, pd := range prog.Procs {
		p := &insts[i]
		p.Def = pd
		p.ID = pd.ID
		p.Locals = vals[off : off+pd.NumLocals : off+pd.NumLocals]
		off += pd.NumLocals
		p.Stack = vals[off : off : off+pd.MaxStack]
		off += pd.MaxStack
		m.Procs[i] = p
	}
	// Push in reverse so the first-declared process runs first.
	m.ready = make([]int, 0, len(m.Procs)+4)
	for i := len(m.Procs) - 1; i >= 0; i-- {
		m.ready = append(m.ready, i)
	}
	m.hookHeap()
	return m
}

// Heap exposes the machine's heap (read-mostly; external bindings
// allocate through the New*V helpers).
func (m *Machine) Heap() *Heap { return &m.heap }

// Fault returns the first runtime fault, or nil.
func (m *Machine) Fault() *Fault { return m.flt }

// BindWriter attaches an external writer to the named channel.
func (m *Machine) BindWriter(chanName string, w ExternalWriter) error {
	ch := m.Prog.ChannelByName(chanName)
	if ch == nil {
		return fmt.Errorf("vm: no channel %q", chanName)
	}
	if ch.Ext != ir.ExtWriter {
		return fmt.Errorf("vm: channel %q is not an external-writer channel", chanName)
	}
	m.extW[ch.ID] = w
	m.extWIDsC = nil
	return nil
}

// BindReader attaches an external reader to the named channel.
func (m *Machine) BindReader(chanName string, r ExternalReader) error {
	ch := m.Prog.ChannelByName(chanName)
	if ch == nil {
		return fmt.Errorf("vm: no channel %q", chanName)
	}
	if ch.Ext != ir.ExtReader {
		return fmt.Errorf("vm: channel %q is not an external-reader channel", chanName)
	}
	m.extR[ch.ID] = r
	m.extRIDsC = nil
	return nil
}

func (m *Machine) setFault(f *Fault, p *ProcInst) {
	if m.flt != nil {
		return
	}
	if p != nil {
		f.Proc = p.Def.Name
		f.PC = p.PC
		if p.PC >= 0 && p.PC < len(p.Def.Code) {
			f.Pos = p.Def.Code[p.PC].Pos
		}
	}
	if f.File == "" {
		f.File = m.Prog.File
	}
	m.flt = f
	if m.tracer != nil || m.rec != nil {
		proc := -1
		if p != nil {
			proc = p.ID
		}
		if m.tracer != nil {
			m.tracer.Fault(m.now(), proc, f.Msg)
		}
		if m.rec != nil {
			m.rec.Fault(m.now(), proc, f.Msg)
		}
	}
}

// fault records a fault with no process attribution (used by external
// bindings and allocation helpers).
func (m *Machine) fault(f *Fault) { m.setFault(f, nil) }

// RunResult says why Run returned.
type RunResult int

// Run outcomes.
const (
	RunIdle   RunResult = iota // no ready process and no external input
	RunHalted                  // every process halted
	RunFault                   // a fault occurred (see Fault)
)

func (r RunResult) String() string {
	switch r {
	case RunIdle:
		return "idle"
	case RunHalted:
		return "halted"
	case RunFault:
		return "fault"
	}
	return "?"
}

// Run executes until every process halts, a fault occurs, or the machine
// goes idle (all processes blocked and no external input available). It
// is the firmware's main loop: drain ready work, then poll external
// channels (§6.1's idle loop).
func (m *Machine) Run() RunResult {
	for {
		m.RunReady()
		if m.flt != nil {
			return RunFault
		}
		if m.AllHalted() {
			return RunHalted
		}
		if !m.Poll() {
			return RunIdle
		}
	}
}

// RunReady executes ready processes until none remain or a fault occurs.
func (m *Machine) RunReady() {
	for m.flt == nil && len(m.ready) > 0 {
		idx := m.ready[len(m.ready)-1]
		m.ready = m.ready[:len(m.ready)-1]
		p := m.Procs[idx]
		if p.Status != PReady {
			continue // stale entry
		}
		if m.Config.MaxCycles > 0 && m.Cycles >= m.Config.MaxCycles {
			m.setFault(&Fault{Kind: FaultStep, Msg: fmt.Sprintf("cycle budget exhausted: machine exceeded %d cycles", m.Config.MaxCycles)}, p)
			return
		}
		if m.prof != nil && p.PC >= 0 && p.PC < len(p.Def.Code) {
			// Attribute the switch to the line being resumed.
			m.curLine = p.Def.Code[p.PC].Pos.Line
		}
		m.chargeEv(obs.KindCtxSwitch, m.Cost.CtxSwitch)
		m.Stats.CtxSwitches++
		if m.mCtx != nil {
			m.mCtx.Inc()
			m.mReady.Observe(int64(len(m.ready)))
		}
		if m.tracer != nil || m.rec != nil {
			ts := m.now()
			if m.tracer != nil {
				m.tracer.ProcStart(ts, p.ID, p.Def.Name)
			}
			if m.rec != nil {
				m.rec.Record(ts, m.recPA[p.ID], m.recStart[p.ID])
			}
			m.exec(p)
			ts = m.now()
			if m.tracer != nil {
				m.tracer.ProcStop(ts, p.ID, p.Status.String())
			}
			if m.rec != nil {
				m.rec.Record(ts, m.recPA[p.ID], m.recStop[p.Status&7])
			}
			continue
		}
		m.exec(p)
	}
}

// AllHalted reports whether every process has terminated.
func (m *Machine) AllHalted() bool {
	for _, p := range m.Procs {
		if p.Status != PHalted {
			return false
		}
	}
	return true
}

// Quiescent reports whether no process is ready (all blocked or halted).
func (m *Machine) Quiescent() bool {
	for _, p := range m.Procs {
		if p.Status == PReady {
			return false
		}
	}
	return true
}

func (m *Machine) enqueue(idx int) {
	m.ready = append(m.ready, idx)
}

// ---------------------------------------------------------------------------
// Wait registration (bit-mask mode is implicit: the candidate scans below
// walk the process table checking each process's blocking descriptor,
// charging MaskCheck per look — the paper's colocated bit-masks. Queue
// mode maintains explicit per-channel queues and pays QueueOp for every
// insertion and removal, including removal from all queues when an alt
// unblocks.)

func (m *Machine) regSend(p *ProcInst, chanID int) {
	if !m.Config.UseWaitQueues {
		return
	}
	m.sendQ[chanID] = append(m.sendQ[chanID], p.ID)
	m.chargeEv(obs.KindQueueOp, m.Cost.QueueOp)
	m.Stats.QueueOps++
}

func (m *Machine) regRecv(p *ProcInst, chanID int) {
	if !m.Config.UseWaitQueues {
		return
	}
	m.recvQ[chanID] = append(m.recvQ[chanID], p.ID)
	m.chargeEv(obs.KindQueueOp, m.Cost.QueueOp)
	m.Stats.QueueOps++
}

// unregister removes p from every wait queue (queue mode only). This is
// the cost the paper's bit-mask design avoids: an alt may sit in several
// queues, possibly mid-queue.
func (m *Machine) unregister(p *ProcInst) {
	if !m.Config.UseWaitQueues {
		return
	}
	for chanID, q := range m.sendQ {
		m.sendQ[chanID] = removeID(q, p.ID, m)
	}
	for chanID, q := range m.recvQ {
		m.recvQ[chanID] = removeID(q, p.ID, m)
	}
}

func removeID(q []int, id int, m *Machine) []int {
	for i, v := range q {
		m.chargeEv(obs.KindQueueOp, m.Cost.QueueOp)
		m.Stats.QueueOps++
		if v == id {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// candidates returns the process indices to examine when looking for a
// partner blocked on chanID in the given direction. In bit-mask mode the
// whole search costs one or two mask-word checks — the masks of several
// processes are colocated in one integer (§6.1) — so the charge is per
// search, not per process examined.
func (m *Machine) candidates(chanID int, send bool) []int {
	if m.Config.UseWaitQueues {
		if send {
			return m.sendQ[chanID]
		}
		return m.recvQ[chanID]
	}
	m.chargeEv(obs.KindMaskCheck, m.Cost.MaskCheck)
	m.Stats.MaskChecks++
	return m.scanList(chanID, send)
}

// scanList returns the process indices the partner scans walk for
// chanID: the whole table, or — when the static schedule is available —
// only the processes with a reachable site on the channel. The narrowed
// lists are in ascending process order, so a scan finds the same first
// partner the full walk would. Charge-free: bit-mask searches pay per
// search in candidates, and Poll pays per external poll.
func (m *Machine) scanList(chanID int, send bool) []int {
	if m.sched != nil {
		if send {
			return m.sched.writers[chanID]
		}
		return m.sched.readers[chanID]
	}
	if len(m.allIdx) != len(m.Procs) {
		// Built once per machine (the process set is fixed after New) and
		// only ever read by the scan loops, so the scan is allocation-free.
		m.allIdx = make([]int, len(m.Procs))
		for i := range m.Procs {
			m.allIdx[i] = i
		}
	}
	return m.allIdx
}

// schedRT is the runtime form of the static rendezvous schedule: the
// per-channel candidate lists the scan loops iterate (ascending process
// indices), and the internal-channel flags that let the rendezvous path
// skip the external-binding lookups. Built once in New from the
// program's Schedule; immutable thereafter.
type schedRT struct {
	writers  [][]int
	readers  [][]int
	internal []bool
}
