package vm

import (
	"fmt"

	"esplang/internal/ir"
	"esplang/internal/obs"
)

// ---------------------------------------------------------------------------
// Pattern matching

// match tests a receive pattern against a value without side effects,
// charging PatternNode per node examined.
func (m *Machine) match(pat *ir.Pat, v Value, recv *ProcInst) bool {
	m.chargeEv(obs.KindPattern, m.Cost.PatternNode)
	m.Stats.PatternNodes++
	switch pat.Kind {
	case ir.PatAny, ir.PatBind:
		return true
	case ir.PatConst:
		return !v.IsRef && v.Int == pat.Val
	case ir.PatSelf:
		return !v.IsRef && v.Int == int64(recv.ID)
	case ir.PatDynEq:
		return !v.IsRef && v.Int == recv.Locals[pat.Slot].Int
	case ir.PatRecord:
		if !v.IsRef || v.Ref == nil || len(v.Ref.Elems) != len(pat.Elems) {
			return false
		}
		for i, sub := range pat.Elems {
			if !m.match(sub, v.Ref.Elems[i], recv) {
				return false
			}
		}
		return true
	case ir.PatUnion:
		if !v.IsRef || v.Ref == nil || v.Ref.Tag != pat.Tag {
			return false
		}
		return m.match(pat.Elems[0], v.Ref.Elems[0], recv)
	}
	return false
}

// bindPat stores the bound components of a matched value into the
// receiver's locals. Every bound reference is linked: the receiver now
// owns it (its share of the semantic deep copy, §6.2).
func (m *Machine) bindPat(pat *ir.Pat, v Value, recv *ProcInst) {
	switch pat.Kind {
	case ir.PatBind:
		if v.IsRef {
			if f := m.heap.Link(v.Ref); f != nil {
				m.setFault(f, recv)
				return
			}
			m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
			m.Stats.RefOps++
		}
		recv.Locals[pat.Slot] = v
	case ir.PatRecord:
		for i, sub := range pat.Elems {
			m.bindPat(sub, v.Ref.Elems[i], recv)
		}
	case ir.PatUnion:
		m.bindPat(pat.Elems[0], v.Ref.Elems[0], recv)
	}
}

// deliver completes a transfer: it matches the receiver's port pattern
// against v and, on success, performs the reference-count dance (or a
// physical deep copy in the ablation mode) and binds the components. It
// does not change scheduling state. flags are the sender's Send flags;
// sender is the sending process id (-1 = external environment), used
// only for tracing.
func (m *Machine) deliver(v Value, flags int, sender int, recv *ProcInst, portIdx int) bool {
	port := recv.Def.Ports[portIdx]
	if !m.match(port.Pat, v, recv) {
		return false
	}
	m.chargeEv(obs.KindRendezvous, m.Cost.Rendezvous)
	m.Stats.Rendezvous++
	m.traceRendezvous(port.Chan, sender, recv.ID)

	if m.Config.ForceDeepCopy && v.IsRef {
		cp := m.deepCopy(v)
		if m.flt != nil {
			return true
		}
		m.bindPat(port.Pat, cp, recv)
		// The copy is a temporary by construction: release its root. Bound
		// components survive through the links bindPat added.
		if f := m.heap.Unlink(cp.Ref); f != nil {
			m.setFault(f, recv)
		}
		if flags&ir.FlagFreeAfter != 0 {
			if f := m.heap.Unlink(v.Ref); f != nil {
				m.setFault(f, recv)
			}
		}
		return true
	}

	m.bindPat(port.Pat, v, recv)
	if flags&ir.FlagFreeAfter != 0 && v.IsRef {
		if f := m.heap.Unlink(v.Ref); f != nil {
			m.setFault(f, recv)
		}
		m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
		m.Stats.RefOps++
	}
	return true
}

// deepCopy physically copies the object graph (preserving sharing),
// charging Alloc per copied object and DeepCopyWord per word.
func (m *Machine) deepCopy(v Value) Value {
	seen := make(map[*Object]*Object)
	var cp func(v Value) Value
	cp = func(v Value) Value {
		if !v.IsRef {
			m.chargeEv(obs.KindDeepCopy, m.Cost.DeepCopyWord)
			m.Stats.DeepCopied++
			return v
		}
		if n, ok := seen[v.Ref]; ok {
			return RefVal(n)
		}
		o := v.Ref
		n := m.heap.Alloc(o.Type, len(o.Elems))
		if n == nil {
			m.fault(&Fault{Kind: FaultOutOfObjects, Msg: "deep copy failed: live-object bound exceeded"})
			return v
		}
		m.chargeEv(obs.KindAlloc, m.Cost.Alloc)
		m.Stats.Allocs++
		m.traceAlloc(-1)
		seen[o] = n
		n.Tag = o.Tag
		for i, e := range o.Elems {
			n.Elems[i] = cp(e)
		}
		m.chargeEv(obs.KindDeepCopy, m.Cost.DeepCopyWord*int64(len(o.Elems)+1))
		m.Stats.DeepCopied += int64(len(o.Elems) + 1)
		return RefVal(n)
	}
	return cp(v)
}

// ---------------------------------------------------------------------------
// Eager rendezvous (auto mode)
//
// A blocked process offers to receive in one of two ways: a plain blocked
// Recv is one offer, and a blocked alt offers each guard-true receive
// arm. Every scan over receivers walks those offers the same way: the
// plain offer (index -1), then the alt's arms in declaration order,
// through altArms and recvArm. The receive side has one partner search,
// findSender; the send side pairs through tryCompleteSend and
// altSendArm.

// guardTrue reports whether an alt arm's guard holds for p.
func guardTrue(p *ProcInst, arm *ir.AltArm) bool {
	return arm.GuardSlot < 0 || p.Locals[arm.GuardSlot].Int != 0
}

// altArms returns the arms of r's blocked alt, or nil when r is not
// blocked in an alt. Receiver walks hoist it once per process.
func altArms(r *ProcInst) []ir.AltArm {
	if r.Status != PBlockedAlt {
		return nil
	}
	return r.Def.Alts[r.AltIdx].Arms
}

// recvArm resolves receive offer i of r on chanID: the plain blocked
// receive for i == -1, otherwise arm i of arms (altArms(r)). It returns
// the port the message binds through, the pc r resumes at, and whether
// the offer is open: r waits there on chanID and, for an arm, its guard
// holds.
func recvArm(r *ProcInst, arms []ir.AltArm, chanID, i int) (port, resume int, ok bool) {
	if i < 0 {
		return r.WaitPort, r.ResumePC, r.Status == PBlockedRecv && r.WaitChan == chanID
	}
	if i >= len(arms) {
		return 0, 0, false
	}
	a := &arms[i]
	return a.Port, a.BodyPC, !a.IsSend && a.Chan == chanID && guardTrue(r, a)
}

// unblock makes p ready at pc and re-enqueues it, and marks p dirty when
// the machine has a snapshot base (see RestoreState).
//
// This is the only dirty mark, and it suffices: a base is quiescent, so
// every process that runs during a transition was unblocked first, and
// every rendezvous partner is unblocked by it — FireComm unblocks both
// sides, or the alt sender whose SendCommit delivers and then unblocks
// the receiver, and each partner search unblocks the process it paired
// with right after deliver. (Marking in deliver and RunReady as well
// catches nothing more.)
func (m *Machine) unblock(p *ProcInst, pc int) {
	p.Status = PReady
	p.PC = pc
	p.Pending = Value{}
	m.unregister(p)
	m.enqueue(p.ID)
	if m.base != nil {
		m.dirty[p.ID] = true
	}
}

// tryCompleteSend looks for a partner for a sender whose value is already
// evaluated (plain Send, or SendCommit after an alt commit). On success
// the partner is unblocked and true is returned; the sender continues.
func (m *Machine) tryCompleteSend(s *ProcInst) bool {
	chanID := s.WaitChan
	v, flags := s.Pending, s.PendingFlags

	if m.commitTarget >= 0 {
		r, i := m.Procs[m.commitTarget], m.commitArm
		m.commitTarget, m.commitArm = -1, -1
		if port, resume, ok := recvArm(r, altArms(r), chanID, i); ok && m.deliver(v, flags, s.ID, r, port) {
			m.unblock(r, resume)
			s.Pending = Value{}
			return true
		}
		// Fall through to the general scan; the commit pin is best-effort
		// when the value carries dynamic tests.
	}

	for _, idx := range m.candidates(chanID, false) {
		r := m.Procs[idx]
		if r == s {
			continue
		}
		arms := altArms(r)
		for i := -1; i < len(arms); i++ {
			if port, resume, ok := recvArm(r, arms, chanID, i); ok && m.deliver(v, flags, s.ID, r, port) {
				m.unblock(r, resume)
				s.Pending = Value{}
				return true
			}
		}
	}

	if er := m.extR[chanID]; er != nil {
		m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
		m.Stats.Polls++
		m.tracePoll(chanID)
		if er.Ready(m) {
			m.chargeEv(obs.KindRendezvous, m.Cost.Rendezvous)
			m.Stats.Rendezvous++
			m.traceRendezvous(chanID, s.ID, -1)
			er.Put(m, v)
			if flags&ir.FlagFreeAfter != 0 && v.IsRef {
				if f := m.heap.Unlink(v.Ref); f != nil {
					m.setFault(f, s)
				}
				m.chargeEv(obs.KindRefOp, m.Cost.RefOp)
				m.Stats.RefOps++
			}
			s.Pending = Value{}
			return true
		}
	}
	return false
}

// The outcomes of findSender. After senderCommitted the receiver parks,
// and the partner's SendCommit completes the transfer.
const (
	noSender        = iota
	received        // the message moved; the receiver continues
	senderCommitted // a blocked alt's send arm committed
)

// findSender is the receive side's partner search, for receiver r taking
// a message through its port. It tries plain blocked senders, then
// blocked alts whose send arm on the channel could match the port's
// pattern (statically known value shape), then the channel's external
// writer. kind names r's pattern in the fault raised when an external
// message does not match it ("waiting" or "alt").
func (m *Machine) findSender(r *ProcInst, port int, kind string) int {
	pat := r.Def.Ports[port].Pat
	chanID := r.Def.Ports[port].Chan

	for _, idx := range m.candidates(chanID, true) {
		s := m.Procs[idx]
		if s != r && s.Status == PBlockedSend && s.WaitChan == chanID &&
			m.deliver(s.Pending, s.PendingFlags, s.ID, r, port) {
			m.unblock(s, s.ResumePC)
			return received
		}
	}
	for _, idx := range m.candidates(chanID, true) {
		s := m.Procs[idx]
		if s == r {
			continue
		}
		arms := altArms(s)
		for i := range arms {
			a := &arms[i]
			if a.IsSend && a.Chan == chanID && guardTrue(s, a) && (a.OutPat == nil || ir.PatsOverlap(a.OutPat, pat)) {
				m.unblock(s, a.EvalPC)
				return senderCommitted
			}
		}
	}

	if ew := m.extW[chanID]; ew != nil {
		m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
		m.Stats.Polls++
		m.tracePoll(chanID)
		if caseIdx, ok := ew.Ready(m); ok {
			ch := m.Prog.Channels[chanID]
			if caseIdx < len(ch.Cases) && ir.PatsOverlap(ch.Cases[caseIdx].Pat, pat) {
				v := ew.Take(m, caseIdx)
				if m.flt != nil {
					return noSender
				}
				if m.deliver(v, ir.FlagFreeAfter, -1, r, port) {
					return received
				}
				m.setFault(&Fault{Kind: FaultNoMatchingPort,
					Msg: fmt.Sprintf("external message on channel %s does not match the %s pattern", ch.Name, kind)}, r)
			}
		}
	}
	return noSender
}

// tryCompleteRecv runs the partner search for a receiver about to block
// at a plain Recv. It returns true when a transfer completed and the
// receiver may continue; after committing a blocked alt's send arm the
// receiver blocks, and the partner's SendCommit finishes the job.
func (m *Machine) tryCompleteRecv(r *ProcInst) bool {
	return m.findSender(r, r.WaitPort, "waiting") == received
}

// altStep attempts to select an arm of the alt p is entering (auto mode).
// It returns (nextPC, true) when p should continue executing, or
// (0, false) when p is now parked as a blocked alt.
func (m *Machine) altStep(p *ProcInst) (int, bool) {
	arms := p.Def.Alts[p.AltIdx].Arms
scan:
	for i := range arms {
		arm := &arms[i]
		if !guardTrue(p, arm) {
			continue
		}
		if arm.IsSend {
			if m.altSendArm(p, arm) {
				return arm.EvalPC, true
			}
		} else {
			switch m.findSender(p, arm.Port, "alt") {
			case received:
				return arm.BodyPC, true
			case senderCommitted:
				// p parks; the partner's SendCommit selects whichever of
				// p's receive arms matches.
				break scan
			}
		}
		if m.flt != nil {
			return 0, false
		}
	}
	// Park as a blocked alt, registering every armed channel (the bit-mask
	// set of §6.1).
	p.Status = PBlockedAlt
	for i := range arms {
		arm := &arms[i]
		if !guardTrue(p, arm) {
			continue
		}
		if arm.IsSend {
			m.regSend(p, arm.Chan)
		} else {
			m.regRecv(p, arm.Chan)
		}
	}
	return 0, false
}

// altSendArm reports whether a send arm is ready: a receive offer on the
// channel could take the arm's value shape, or the channel's external
// reader is ready. On readiness the arm commits: p jumps to the arm's
// evaluation code, whose SendCommit completes the transfer (§6.1's
// postponed computation). The receiver stays parked until then;
// tryCompleteSend's scan finds it again.
func (m *Machine) altSendArm(p *ProcInst, arm *ir.AltArm) bool {
	for _, idx := range m.candidates(arm.Chan, false) {
		r := m.Procs[idx]
		if r == p {
			continue
		}
		arms := altArms(r)
		for i := -1; i < len(arms); i++ {
			if port, _, ok := recvArm(r, arms, arm.Chan, i); ok &&
				(arm.OutPat == nil || ir.PatsOverlap(arm.OutPat, r.Def.Ports[port].Pat)) {
				return true
			}
		}
	}
	if er := m.extR[arm.Chan]; er != nil {
		m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
		m.Stats.Polls++
		m.tracePoll(arm.Chan)
		return er.Ready(m)
	}
	return false
}

// ---------------------------------------------------------------------------
// External polling (the idle loop)

// Poll scans external channel bindings once: it injects at most one
// message per external-writer channel into a waiting receiver, and
// completes blocked sends to ready external readers. It reports whether
// anything happened.
func (m *Machine) Poll() bool {
	injected := false

	for _, chanID := range m.extWIDs() {
		ew := m.extW[chanID]
		m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
		m.Stats.Polls++
		m.tracePoll(chanID)
		caseIdx, ok := ew.Ready(m)
		if !ok {
			continue
		}
		ch := m.Prog.Channels[chanID]
		if caseIdx >= len(ch.Cases) {
			m.fault(&Fault{Kind: FaultInternal,
				Msg: fmt.Sprintf("external writer on %s reported case %d of %d", ch.Name, caseIdx, len(ch.Cases))})
			return injected
		}
		casePat := ch.Cases[caseIdx].Pat
		// Find a waiting receiver whose port could take this case.
		var taken bool
		var v Value
		matched := false
		scan := m.scanList(chanID, false)
		for k := 0; k < len(scan) && !matched; k++ {
			r := m.Procs[scan[k]]
			arms := altArms(r)
			for i := -1; i < len(arms) && !matched; i++ {
				port, resume, ok := recvArm(r, arms, chanID, i)
				if !ok || !ir.PatsOverlap(casePat, r.Def.Ports[port].Pat) {
					continue
				}
				if !taken {
					v = ew.Take(m, caseIdx)
					taken = true
					if m.flt != nil {
						return injected
					}
				}
				if m.deliver(v, ir.FlagFreeAfter, -1, r, port) {
					m.unblock(r, resume)
					matched = true
				}
			}
		}
		if taken && !matched {
			m.fault(&Fault{Kind: FaultNoMatchingPort,
				Msg: fmt.Sprintf("external message on channel %s matches no waiting receiver", ch.Name)})
			return injected
		}
		if matched {
			injected = true
		}
	}

	// Blocked senders to external readers.
	for _, chanID := range m.extRIDs() {
		er := m.extR[chanID]
		for _, pi := range m.scanList(chanID, true) {
			s := m.Procs[pi]
			switch s.Status {
			case PBlockedSend:
				if s.WaitChan != chanID {
					continue
				}
				m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
				m.Stats.Polls++
				m.tracePoll(chanID)
				if !er.Ready(m) {
					continue
				}
				m.chargeEv(obs.KindRendezvous, m.Cost.Rendezvous)
				m.Stats.Rendezvous++
				m.traceRendezvous(chanID, s.ID, -1)
				er.Put(m, s.Pending)
				if s.PendingFlags&ir.FlagFreeAfter != 0 && s.Pending.IsRef {
					if f := m.heap.Unlink(s.Pending.Ref); f != nil {
						m.setFault(f, s)
						return injected
					}
				}
				m.unblock(s, s.ResumePC)
				injected = true
			case PBlockedAlt:
				def := s.Def.Alts[s.AltIdx]
				for ai := range def.Arms {
					arm := &def.Arms[ai]
					if !arm.IsSend || arm.Chan != chanID || !guardTrue(s, arm) {
						continue
					}
					m.chargeEv(obs.KindPoll, m.Cost.ExternalPoll)
					m.Stats.Polls++
					m.tracePoll(chanID)
					if !er.Ready(m) {
						continue
					}
					m.unblock(s, arm.EvalPC)
					injected = true
					break
				}
			}
		}
	}
	return injected
}

// extWIDs/extRIDs return the sorted external-channel ID lists. They are
// cached on the machine (invalidated by BindWriter/BindReader) so the
// idle-loop Poll does not allocate on every call. The binding slices are
// channel-indexed, so a walk yields the IDs already in ascending order.
func (m *Machine) extWIDs() []int {
	if m.extWIDsC == nil {
		m.extWIDsC = make([]int, 0, len(m.extW))
		for id, w := range m.extW {
			if w != nil {
				m.extWIDsC = append(m.extWIDsC, id)
			}
		}
	}
	return m.extWIDsC
}

func (m *Machine) extRIDs() []int {
	if m.extRIDsC == nil {
		m.extRIDsC = make([]int, 0, len(m.extR))
		for id, r := range m.extR {
			if r != nil {
				m.extRIDsC = append(m.extRIDsC, id)
			}
		}
	}
	return m.extRIDsC
}
