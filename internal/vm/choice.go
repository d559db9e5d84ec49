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

// enumReceivers appends a choice for every receive offer able (or
// potentially able) to take a message on chanID from sender si. When s is
// non-nil the sender's pending value is matched against receiver patterns.
func (m *Machine) enumReceivers(chanID, si, sArm int, s *ProcInst, outPat *ir.Pat, out *[]CommChoice) {
	for ri, r := range m.Procs {
		if ri == si {
			continue
		}
		arms := altArms(r)
		for i := -1; i < len(arms); i++ {
			port, _, ok := recvArm(r, arms, chanID, i)
			if !ok {
				continue
			}
			pat := r.Def.Ports[port].Pat
			if s != nil && !m.match(pat, s.Pending, r) {
				continue
			}
			if outPat != nil && !ir.PatsOverlap(outPat, pat) {
				continue
			}
			*out = append(*out, CommChoice{Chan: chanID, Sender: si, SenderArm: sArm, Receiver: ri, ReceiverArm: i})
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

	if c.SenderArm >= 0 {
		// Alt send arm: start the sender at the arm's evaluation code and
		// pin the coming SendCommit to this receive offer. The receiver
		// stays parked as-is.
		m.commitTarget, m.commitArm = c.Receiver, c.ReceiverArm
		m.unblock(s, s.Def.Alts[s.AltIdx].Arms[c.SenderArm].EvalPC)
		m.Settle()
		m.commitTarget, m.commitArm = -1, -1
		return
	}

	// Plain sender: the value exists; deliver directly.
	r := m.Procs[c.Receiver]
	port, resume, ok := recvArm(r, altArms(r), c.Chan, c.ReceiverArm)
	if !ok || !m.deliver(s.Pending, s.PendingFlags, s.ID, r, port) {
		m.fault(&Fault{Kind: FaultInternal,
			Msg: fmt.Sprintf("FireComm: value does not match receiver pattern (%s)", c)})
		return
	}
	m.unblock(r, resume)
	m.unblock(s, s.ResumePC)
	m.Settle()
}

// ReplayComms re-fires a recorded communication sequence on a machine at
// its initial quiescent state (after Settle). Execution between blocking
// points is deterministic, so replaying the choices recorded by a search
// passes through exactly the states the search saw — the model checker
// rebuilds counterexample traces this way from compact parent chains
// instead of retaining a machine per search level. Replay stops at
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
