package vm

import (
	"fmt"

	"esplang/internal/ir"
)

// CommChoice identifies one enabled communication in a quiescent manual-
// mode machine: a (sender, receiver) pair on a channel, each side either a
// plain blocked send/recv (arm == -1) or an arm of a blocked alt.
type CommChoice struct {
	Chan        int
	Sender      int
	SenderArm   int // -1 = plain Send
	Receiver    int
	ReceiverArm int // -1 = plain Recv
}

// String renders the choice for traces.
func (c CommChoice) String() string {
	return fmt.Sprintf("chan%d: proc%d(arm%d) -> proc%d(arm%d)",
		c.Chan, c.Sender, c.SenderArm, c.Receiver, c.ReceiverArm)
}

// Settle runs all ready processes to their next blocking points (manual
// mode). After Settle the machine is quiescent, faulted, or halted.
func (m *Machine) Settle() {
	m.RunReady()
}

// EnabledComms enumerates the communications possible in the current
// quiescent state. Plain senders are matched against receiver patterns
// (their value exists); alt send arms are enabled whenever a receiver
// waits on the channel — whether the lazily evaluated value will match is
// resolved when the transition fires, and a mismatch is a fault, exactly
// as at run time.
func (m *Machine) EnabledComms() []CommChoice { return m.AppendEnabledComms(nil) }

// AppendEnabledComms appends the communications EnabledComms enumerates
// to out and returns the extended slice, so a caller can enumerate into
// a reused buffer.
func (m *Machine) AppendEnabledComms(out []CommChoice) []CommChoice {
	for si, s := range m.Procs {
		switch s.Status {
		case PBlockedSend:
			m.enumReceivers(s.WaitChan, si, -1, s, nil, &out)
		case PBlockedAlt:
			def := s.Def.Alts[s.AltIdx]
			for ai := range def.Arms {
				arm := &def.Arms[ai]
				if !arm.IsSend || !guardTrue(s, arm) {
					continue
				}
				m.enumReceivers(arm.Chan, si, ai, nil, arm.OutPat, &out)
			}
		}
	}
	return out
}

// OfferedChannels appends to buf the channels process pi currently
// offers a communication on: the waited channel of a blocked send or
// receive, or the channels of every guard-enabled arm of a blocked alt.
// A halted or faulted process offers nothing. The model checker's
// partial-order reduction uses this to close an ample candidate set over
// everything the member processes could synchronize on right now.
func (m *Machine) OfferedChannels(pi int, buf []int) []int {
	p := m.Procs[pi]
	switch p.Status {
	case PBlockedSend, PBlockedRecv:
		buf = append(buf, p.WaitChan)
	case PBlockedAlt:
		def := p.Def.Alts[p.AltIdx]
		for ai := range def.Arms {
			arm := &def.Arms[ai]
			if guardTrue(p, arm) {
				buf = append(buf, arm.Chan)
			}
		}
	}
	return buf
}

// enumReceivers appends a choice for every receiver able (or potentially
// able) to take a message on chanID from sender si. When s is non-nil the
// sender's pending value is matched against receiver patterns.
func (m *Machine) enumReceivers(chanID, si, sArm int, s *ProcInst, outPat *ir.Pat, out *[]CommChoice) {
	for ri, r := range m.Procs {
		if ri == si {
			continue
		}
		switch r.Status {
		case PBlockedRecv:
			if r.WaitChan != chanID {
				continue
			}
			if s != nil && !m.match(r.Def.Ports[r.WaitPort].Pat, s.Pending, r) {
				continue
			}
			if outPat != nil && !patsOverlap(outPat, r.Def.Ports[r.WaitPort].Pat) {
				continue
			}
			*out = append(*out, CommChoice{Chan: chanID, Sender: si, SenderArm: sArm, Receiver: ri, ReceiverArm: -1})
		case PBlockedAlt:
			def := r.Def.Alts[r.AltIdx]
			for ai := range def.Arms {
				arm := &def.Arms[ai]
				if arm.IsSend || arm.Chan != chanID || !guardTrue(r, arm) {
					continue
				}
				if s != nil && !m.match(r.Def.Ports[arm.Port].Pat, s.Pending, r) {
					continue
				}
				if outPat != nil && !patsOverlap(outPat, r.Def.Ports[arm.Port].Pat) {
					continue
				}
				*out = append(*out, CommChoice{Chan: chanID, Sender: si, SenderArm: sArm, Receiver: ri, ReceiverArm: ai})
			}
		}
	}
}

// FireComm commits the chosen communication and settles the machine
// (manual mode). The choice must come from EnabledComms on the current
// state.
func (m *Machine) FireComm(c CommChoice) {
	if c.Sender < 0 || c.Sender >= len(m.Procs) || c.Receiver < 0 || c.Receiver >= len(m.Procs) {
		m.fault(&Fault{Kind: FaultInternal,
			Msg: fmt.Sprintf("FireComm: process index out of range (%s)", c)})
		return
	}
	s := m.Procs[c.Sender]
	r := m.Procs[c.Receiver]

	// Resolve the receiver side to a (port, resume) pair.
	port, resume := r.WaitPort, r.ResumePC
	if c.ReceiverArm >= 0 {
		arm := &r.Def.Alts[r.AltIdx].Arms[c.ReceiverArm]
		port, resume = arm.Port, arm.BodyPC
	}

	if c.SenderArm < 0 {
		// Plain sender: the value exists; deliver directly.
		if !m.deliver(s.Pending, s.PendingFlags, s.ID, r, port) {
			m.fault(&Fault{Kind: FaultInternal,
				Msg: fmt.Sprintf("FireComm: value does not match receiver pattern (%s)", c)})
			return
		}
		m.unblock(r, resume)
		m.unblock(s, s.ResumePC)
		m.Settle()
		return
	}

	// Alt send arm: start the sender at the arm's evaluation code and pin
	// the coming SendCommit to this receiver (and its arm). The receiver
	// stays parked as-is.
	_ = port
	_ = resume
	sarm := &s.Def.Alts[s.AltIdx].Arms[c.SenderArm]
	m.commitTarget = c.Receiver
	m.commitArm = c.ReceiverArm
	m.unblock(s, sarm.EvalPC)
	m.Settle()
	m.commitTarget, m.commitArm = -1, -1
}

// ReplayComms re-fires a recorded communication sequence on a machine at
// its initial quiescent state (after Settle). Execution between blocking
// points is deterministic, so replaying the choices recorded by a search
// passes through exactly the states the search saw — the model checker
// rebuilds counterexample traces this way from compact parent chains
// instead of retaining a machine clone per search level. Replay stops at
// the first fault, which it returns (nil if the whole sequence fired).
func (m *Machine) ReplayComms(cs []CommChoice) *Fault {
	for _, c := range cs {
		if m.flt != nil {
			return m.flt
		}
		m.FireComm(c)
	}
	return m.flt
}

// Deadlocked reports whether the quiescent machine is stuck: not all
// processes halted, no communication enabled, and no external input
// possible. The paper's verifier reports this state (§5.1).
func (m *Machine) Deadlocked() bool {
	if m.flt != nil || !m.Quiescent() || m.AllHalted() {
		return false
	}
	return len(m.EnabledComms()) == 0
}

// AtRest reports whether every process is halted or blocked waiting to
// receive (plain recv, or an alt whose enabled arms are all receives).
// For firmware models this is the idle state — everything is parked
// waiting for input — and the model checker can treat it as a valid end
// state (the analogue of SPIN's end-state labels) when the test driver is
// bounded.
func (m *Machine) AtRest() bool {
	for _, p := range m.Procs {
		switch p.Status {
		case PHalted, PBlockedRecv:
			continue
		case PBlockedAlt:
			def := p.Def.Alts[p.AltIdx]
			for ai := range def.Arms {
				arm := &def.Arms[ai]
				if guardTrue(p, arm) && arm.IsSend {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Cloning (model-checker state save/restore)

// Clone deep-copies the machine state: processes, locals, stacks, pending
// values, and the reachable heap. External bindings are shared (the model
// checker does not use them), and statistics are reset on the clone.
func (m *Machine) Clone() *Machine {
	n := &Machine{
		Prog:         m.Prog,
		Cost:         m.Cost,
		Config:       m.Config,
		fused:        m.fused, // immutable, shared
		sched:        m.sched, // immutable, shared
		extW:         m.extW,
		extR:         m.extR,
		commitTarget: m.commitTarget,
		commitArm:    m.commitArm,
		flt:          m.flt,
	}
	n.heap = Heap{MaxLive: m.heap.MaxLive, nextID: m.heap.nextID, live: m.heap.live,
		allocs: m.heap.allocs, frees: m.heap.frees}
	seen := make(map[*Object]*Object)
	var cpv func(v Value) Value
	cpv = func(v Value) Value {
		if !v.IsRef || v.Ref == nil {
			return v
		}
		if o, ok := seen[v.Ref]; ok {
			return RefVal(o)
		}
		o := v.Ref
		no := &Object{ID: o.ID, Type: o.Type, RC: o.RC, Freed: o.Freed, Tag: o.Tag,
			Elems: make([]Value, len(o.Elems))}
		seen[o] = no
		for i, e := range o.Elems {
			no.Elems[i] = cpv(e)
		}
		return RefVal(no)
	}
	for _, p := range m.Procs {
		np := &ProcInst{
			Def: p.Def, ID: p.ID, PC: p.PC, Status: p.Status,
			PendingFlags: p.PendingFlags,
			WaitChan:     p.WaitChan, WaitPort: p.WaitPort,
			AltIdx: p.AltIdx, ResumePC: p.ResumePC,
			Locals: make([]Value, len(p.Locals)),
			Stack:  make([]Value, len(p.Stack)),
		}
		for i, v := range p.Locals {
			np.Locals[i] = cpv(v)
		}
		for i, v := range p.Stack {
			np.Stack[i] = cpv(v)
		}
		np.Pending = cpv(p.Pending)
		n.Procs = append(n.Procs, np)
	}
	n.ready = append([]int(nil), m.ready...)
	if m.Config.UseWaitQueues {
		n.sendQ = make(map[int][]int, len(m.sendQ))
		n.recvQ = make(map[int][]int, len(m.recvQ))
		for k, v := range m.sendQ {
			n.sendQ[k] = append([]int(nil), v...)
		}
		for k, v := range m.recvQ {
			n.recvQ[k] = append([]int(nil), v...)
		}
	}
	n.hookHeap()
	return n
}
