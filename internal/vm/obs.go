package vm

import (
	"strings"

	"esplang/internal/obs"
)

// Observability hooks. All of them are nil by default; every hot-path
// site guards with one nil check, so a machine with no recorder,
// profiler, or metrics attached pays nothing beyond those checks (the
// zero-cost-when-disabled contract, verified by the equivalence and
// allocation tests in obsvm_test.go).

// SetProfiler installs (or removes, with nil) a cycle profiler. While
// installed, every CostModel charge is attributed to the source line of
// the instruction being executed (PR 1's spans).
func (m *Machine) SetProfiler(p *obs.Profiler) { m.prof = p }

// SetRecorder installs (or removes, with nil) a flight recorder, the
// machine's one event sink: it receives every context switch,
// rendezvous, alloc/free, fault, and external poll. Unlike a profiler it
// does not force the baseline interpreter loop, so a fixed ring is cheap
// enough to leave attached in production; Postmortem renders its last
// events after a fault, and obs.ChromeTracer.AddEvents renders a
// recording as a trace.
//
// Every name the machine can emit — channel names, process names,
// scheduling statuses — is interned into the recorder here, and the
// Record argument words (obs.PA, obs.NK) are packed ahead of time, so
// the recording hot path is two table loads and a call: it never
// touches a string and never shifts a bit.
func (m *Machine) SetRecorder(r *obs.FlightRecorder) {
	m.rec = r
	if r == nil {
		m.recPA, m.recStart, m.recRend, m.recPoll = nil, nil, nil, nil
		return
	}
	m.recRend = make([]uint64, len(m.Prog.Channels))
	m.recPoll = make([]uint64, len(m.Prog.Channels))
	for i, ch := range m.Prog.Channels {
		id := r.Intern(ch.Name)
		m.recRend[i] = obs.NK(obs.EvRendezvous, id)
		m.recPoll[i] = obs.NK(obs.EvPoll, id)
	}
	m.recPA = make([]uint64, len(m.Procs))
	m.recStart = make([]uint64, len(m.Procs))
	for i, p := range m.Procs {
		m.recPA[i] = obs.PA(int32(p.ID), 0)
		m.recStart[i] = obs.NK(obs.EvProcStart, r.Intern(p.Def.Name))
	}
	for s := PReady; s <= PHalted; s++ {
		m.recStop[s&7] = obs.NK(obs.EvProcStop, r.Intern(s.String()))
	}
}

// Recorder returns the attached flight recorder (nil when none).
func (m *Machine) Recorder() *obs.FlightRecorder { return m.rec }

// chargeTable decomposes the cycle meter into the CostModel charge
// classes from the event counters: count × unit cost per class, which is
// exact because every chargeEv site charges a whole unit (DeepCopy
// charges per word, and Stats.DeepCopied counts words). The profiler
// proves this identity per line; here it gives postmortems their charge
// attribution without touching the hot path.
func (m *Machine) chargeTable() (cycles, counts [obs.NumKinds]int64) {
	set := func(k obs.Kind, n, unit int64) {
		counts[k] = n
		cycles[k] = n * unit
	}
	set(obs.KindInstr, m.Stats.Instrs, m.Cost.PerInstr)
	set(obs.KindCtxSwitch, m.Stats.CtxSwitches, m.Cost.CtxSwitch)
	set(obs.KindRendezvous, m.Stats.Rendezvous, m.Cost.Rendezvous)
	set(obs.KindAlloc, m.Stats.Allocs, m.Cost.Alloc)
	set(obs.KindRefOp, m.Stats.RefOps, m.Cost.RefOp)
	set(obs.KindPattern, m.Stats.PatternNodes, m.Cost.PatternNode)
	set(obs.KindMaskCheck, m.Stats.MaskChecks, m.Cost.MaskCheck)
	set(obs.KindQueueOp, m.Stats.QueueOps, m.Cost.QueueOp)
	set(obs.KindPoll, m.Stats.Polls, m.Cost.ExternalPoll)
	set(obs.KindDeepCopy, m.Stats.DeepCopied, m.Cost.DeepCopyWord)
	return cycles, counts
}

// Postmortem renders the flight recorder's last `last` events (all
// retained events when last <= 0) as the text dump format, headed by the
// machine's fault if any and the cycle meter's per-class charge
// decomposition. It returns "" when no recorder is attached. Because
// event timestamps are cycle counts and both cycle and Stats accounting
// are bit-identical across engines, the same faulting program yields a
// byte-identical postmortem under every engine.
func (m *Machine) Postmortem(last int) string {
	if m.rec == nil {
		return ""
	}
	m.rec.Sync() // publish staged events; Postmortem runs on the VM's goroutine
	d := m.rec.Dump(last)
	if m.flt != nil {
		d.Fault = m.flt.Error()
	}
	d.ChargeCycles, d.ChargeCounts = m.chargeTable()
	var sb strings.Builder
	d.Write(&sb)
	return sb.String()
}

// SetClock installs the timestamp source for trace events. Nil (the
// default) timestamps events with the machine's cycle counter; the NIC
// testbed installs the sim kernel's nanosecond clock so firmware events
// line up with DMA spans.
func (m *Machine) SetClock(fn func() int64) { m.clock = fn }

// SetMetrics attaches a metrics registry. The instrument pointers are
// resolved once here, so steady-state updates are single atomic adds.
func (m *Machine) SetMetrics(reg *obs.Metrics) {
	m.metrics = reg
	if reg == nil {
		m.mRend = nil
		m.mCtx, m.mAllocs, m.mFrees, m.mPolls = nil, nil, nil, nil
		m.mReady = nil
		return
	}
	m.mRend = make([]*obs.Counter, len(m.Prog.Channels))
	for i, ch := range m.Prog.Channels {
		m.mRend[i] = reg.Counter("vm_rendezvous{" + ch.Name + "}")
	}
	m.mCtx = reg.Counter("vm_ctx_switches_total")
	m.mAllocs = reg.Counter("vm_allocs_total")
	m.mFrees = reg.Counter("vm_frees_total")
	m.mPolls = reg.Counter("vm_polls_total")
	m.mReady = reg.Histogram("vm_ready_queue_depth")
}

// Metrics returns the attached registry (nil when none).
func (m *Machine) Metrics() *obs.Metrics { return m.metrics }

// now returns the trace timestamp: the installed clock, or the cycle
// counter.
func (m *Machine) now() int64 {
	if m.clock != nil {
		return m.clock()
	}
	return m.Cycles
}

// chargeEv advances the cycle meter and, when a profiler is installed,
// attributes the charge to the current source line under the given event
// kind. The cycle total is identical with and without a profiler.
func (m *Machine) chargeEv(k obs.Kind, n int64) {
	m.Cycles += n
	if m.prof != nil {
		m.prof.Add(m.curLine, k, n)
	}
}

// traceRendezvous reports one completed transfer on chanID. Either side
// is -1 for the external environment.
func (m *Machine) traceRendezvous(chanID, sender, receiver int) {
	if m.mRend != nil {
		m.mRend[chanID].Inc()
	}
	if m.rec != nil {
		m.rec.Record(m.now(), obs.PA(int32(sender), int32(receiver)), m.recRend[chanID])
	}
}

// traceAlloc reports one heap allocation (proc -1 = no process context).
func (m *Machine) traceAlloc(proc int) {
	if m.mAllocs != nil {
		m.mAllocs.Inc()
	}
	if m.rec != nil {
		m.rec.Record(m.now(), obs.PA(int32(proc), int32(m.heap.live)), obs.NK(obs.EvAlloc, 0))
	}
}

// tracePoll reports one readiness poll of an external binding.
func (m *Machine) tracePoll(chanID int) {
	if m.mPolls != nil {
		m.mPolls.Inc()
	}
	if m.rec != nil {
		m.rec.Record(m.now(), obs.PA(-1, 0), m.recPoll[chanID])
	}
}

// hookHeap installs the heap free callback that keeps Stats.Frees, the
// free metric, and the recorder's live-object count in step with the
// reference counter. Called from New (the closure captures the owning
// machine).
func (m *Machine) hookHeap() {
	m.heap.onFree = func() {
		m.Stats.Frees++
		if m.mFrees != nil {
			m.mFrees.Inc()
		}
		if m.rec != nil {
			m.rec.Record(m.now(), obs.PA(-1, int32(m.heap.live)), obs.NK(obs.EvFree, 0))
		}
	}
}
