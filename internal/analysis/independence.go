package analysis

import (
	"fmt"
	"strings"

	"esplang/internal/ir"
	"esplang/internal/types"
)

// Whole-program transition-independence analysis.
//
// A transition of the model checker is one rendezvous plus the
// deterministic local execution it enables, so two enabled transitions
// commute exactly when they involve disjoint process pairs, cannot
// compete for a counterparty, and touch disjoint heap regions. The
// channel half comes from the channel-protocol facts (reachable
// communication sites per channel, alt arms included): processes that
// never share a channel can never compete for a rendezvous, and a
// process's alt guards are locals only it can write, so no other
// process can enable or disable its arms. The heap half comes from the
// §4.4 ownership facts: a process is "clean" when every object it sends
// away stops being referenced by it before its next blocking point and
// it never builds intra-process aliases the per-slot model cannot
// follow — in an all-clean region every heap object belongs to exactly
// one non-halted process at every quiescent state, so transitions of
// disjoint pairs read and write disjoint objects.
//
// Everything is conservative in the may-miss direction: an unmodeled
// construct demotes the process to "unclean" (its whole ref-flow region
// becomes dependent) rather than guessing.

// ComputeIndependence builds the independence side table for prog. A
// reduced model-checking search calls it when it starts, and
// Program.DumpIndependence when it prints the table; both read the code
// the search runs.
func ComputeIndependence(prog *ir.Program) *ir.Independence {
	cfgs := make([]*cfg, len(prog.Procs))
	for i, p := range prog.Procs {
		cfgs[i] = buildCFG(p)
	}
	ind, _, _ := computeIndependence(prog, cfgs)
	return ind
}

// computeIndependence is the shared implementation: it also returns the
// per-direction site sets so the espvet diagnostics can reuse them.
func computeIndependence(prog *ir.Program, cfgs []*cfg) (*ir.Independence, [][]commSite, [][]commSite) {
	sends, recvs := collectCommSites(prog, cfgs)
	np := len(prog.Procs)
	nc := len(prog.Channels)

	ind := &ir.Independence{
		Touch:       make([][]int, nc),
		ChanExt:     make([]bool, nc),
		Clean:       make([]bool, np),
		CleanReason: make([]string, np),
		Region:      make([]int, np),
	}
	for _, ch := range prog.Channels {
		ind.Touch[ch.ID] = procSet(append(append([]commSite{}, sends[ch.ID]...), recvs[ch.ID]...))
		ind.ChanExt[ch.ID] = ch.Ext != ir.ExtNone
	}
	for pi, p := range prog.Procs {
		reason := cleanProc(p, cfgs[pi], prog.Universe)
		ind.Clean[pi] = reason == ""
		ind.CleanReason[pi] = reason
	}

	// Ref-flow regions: union processes connected by reference-carrying
	// channels (objects travel only along those).
	parent := make([]int, np)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	refChan := func(ch *ir.Channel) bool { return ch.Elem != nil && ch.Elem.IsRef() }
	inRegion := make([]bool, np)
	for _, ch := range prog.Channels {
		if !refChan(ch) {
			continue
		}
		procs := ind.Touch[ch.ID]
		for _, p := range procs {
			inRegion[p] = true
		}
		for i := 1; i < len(procs); i++ {
			ra, rb := find(procs[0]), find(procs[i])
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	// Number regions deterministically by smallest member.
	regionOf := map[int]int{}
	for p := 0; p < np; p++ {
		if !inRegion[p] {
			ind.Region[p] = -1
			continue
		}
		r := find(p)
		id, ok := regionOf[r]
		if !ok {
			id = len(regionOf)
			regionOf[r] = id
		}
		ind.Region[p] = id
	}
	ind.DirtyRegion = make([]bool, len(regionOf))
	for p := 0; p < np; p++ {
		if ind.Region[p] >= 0 && !ind.Clean[p] {
			ind.DirtyRegion[ind.Region[p]] = true
		}
	}
	// A reference-carrying external channel lets the environment share
	// objects with the program; its whole region is suspect.
	for _, ch := range prog.Channels {
		if ch.Ext != ir.ExtNone && refChan(ch) {
			for _, p := range ind.Touch[ch.ID] {
				if ind.Region[p] >= 0 {
					ind.DirtyRegion[ind.Region[p]] = true
				}
			}
		}
	}

	// The derived pair relation.
	shares := make([][]bool, np)
	for p := range shares {
		shares[p] = make([]bool, np)
	}
	for ch := range prog.Channels {
		procs := ind.Touch[ch]
		for i := 0; i < len(procs); i++ {
			for j := i + 1; j < len(procs); j++ {
				shares[procs[i]][procs[j]] = true
				shares[procs[j]][procs[i]] = true
			}
		}
	}
	ind.Pairs = make([][]bool, np)
	for p := 0; p < np; p++ {
		ind.Pairs[p] = make([]bool, np)
		for q := 0; q < np; q++ {
			ind.Pairs[p][q] = p != q && !shares[p][q] && ind.HeapCompatible(p, q)
		}
	}
	return ind, sends, recvs
}

// ---------------------------------------------------------------------------
// Heap discipline (the "clean" fact)

// cleanVal is one abstract operand-stack value of the cleanliness scan.
type cleanVal struct {
	kind    uint8
	slot    int         // cvLocal: the slot whose object this is
	typ     *types.Type // static type when known (nil = unknown)
	aliases bitset      // slots whose object graphs this value may reach
	unknown bool        // may reach references the scan lost track of
}

const (
	cvScalar uint8 = iota // definitely not a reference
	cvFresh               // freshly allocated, exclusively owned (plus aliases)
	cvLocal               // the object currently held by local `slot`
	cvBorrow              // interior of other objects (aliases says whose)
)

func scalarVal() cleanVal { return cleanVal{kind: cvScalar, slot: -1} }

// unknownVal is a value the scan cannot follow; typ may still prove it
// scalar.
func unknownVal(t *types.Type) cleanVal {
	v := cleanVal{kind: cvBorrow, slot: -1, typ: t}
	if t != nil && t.IsScalar() {
		v.kind = cvScalar
	} else {
		v.unknown = true
	}
	return v
}

// mayRef reports whether the value can be (or reach) a reference.
func (v cleanVal) mayRef() bool {
	switch v.kind {
	case cvScalar:
		return false
	case cvFresh, cvLocal:
		return true
	}
	return v.unknown || !v.aliases.empty() || (v.typ != nil && v.typ.IsRef())
}

// aliasInto accumulates the slots v's object graph may reach.
func (v cleanVal) aliasInto(acc bitset) (bitset, bool) {
	unknown := v.unknown && v.mayRef()
	if !v.mayRef() {
		return acc, false
	}
	if v.slot >= 0 {
		acc.set(v.slot)
	}
	if v.aliases != nil {
		acc.unionInto(v.aliases)
	}
	return acc, unknown
}

// cleanProc scans one process for the exclusive-ownership discipline and
// returns "" when it holds, or the first reason it does not. univ
// resolves the type IDs of allocations and casts, so an element read
// straight off a fresh object is typed like one read through a local.
func cleanProc(p *ir.Proc, g *cfg, univ *types.Universe) string {
	if len(g.blocks) == 0 {
		return ""
	}
	reason := ""
	dirty := func(f string, args ...interface{}) {
		if reason == "" {
			reason = fmt.Sprintf(f, args...)
		}
	}
	refSlot := func(s int) bool {
		return s >= 0 && s < len(p.LocalType) && p.LocalType[s] != nil && p.LocalType[s].IsRef()
	}
	slotType := func(s int) *types.Type {
		if s >= 0 && s < len(p.LocalType) {
			return p.LocalType[s]
		}
		return nil
	}

	// Forward may-analysis: the set of slots whose objects were sent and
	// may still be referenced by this process. The set must be empty at
	// every blocking point — from there on another process owns the
	// object too.
	lat := lattice[bitset]{
		bottom: func() bitset { return nil },
		join: func(a, b bitset) (bitset, bool) {
			return a, a.unionInto(b)
		},
	}
	block := func(bi int, in bitset) bitset {
		shared := in.clone()
		b := &g.blocks[bi]
		stack := make([]cleanVal, 0, p.MaxStack)
		for i := 0; i < g.depth[b.start]; i++ {
			stack = append(stack, unknownVal(nil))
		}
		pop := func() cleanVal {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			return v
		}
		push := func(v cleanVal) { stack = append(stack, v) }
		atBlock := func(what string) {
			for s := 0; s < p.NumLocals; s++ {
				if shared.get(s) {
					dirty("object in %s is still referenced at a %s after being sent", localName(p, s), what)
					return
				}
			}
		}
		// send marks the sent value's reachable slots as shared.
		send := func(v cleanVal, pos ir.Instr) {
			acc, unknown := v.aliasInto(newBitset(p.NumLocals))
			if unknown {
				dirty("a sent value's aliasing is untracked (line %d)", pos.Pos.Line)
			}
			shared.unionInto(acc)
		}
		// storeRef guards stores that would create intra-process aliases.
		storeRef := func(v cleanVal, what string, pos ir.Instr) {
			if !v.mayRef() {
				return
			}
			if v.kind == cvFresh && v.aliases.empty() && !v.unknown {
				return // fresh exclusive object absorbed whole
			}
			dirty("%s aliases an existing object (line %d)", what, pos.Pos.Line)
		}
		// borrow builds the value for a field/element read of base.
		borrow := func(base cleanVal, t *types.Type) cleanVal {
			if t != nil && t.IsScalar() {
				return scalarVal()
			}
			acc, unknown := base.aliasInto(newBitset(p.NumLocals))
			return cleanVal{kind: cvBorrow, slot: -1, typ: t, aliases: acc, unknown: unknown || (t == nil && base.mayRef())}
		}
		fieldType := func(base cleanVal, idx int) *types.Type {
			if base.typ != nil && idx >= 0 && idx < len(base.typ.Fields) {
				return base.typ.Fields[idx].Type
			}
			return nil
		}

		for pc := b.start; pc < b.end; pc++ {
			in := p.Code[pc]
			switch in.Op {
			case ir.Const, ir.SelfID:
				push(scalarVal())
			case ir.LoadLocal:
				if refSlot(in.A) {
					push(cleanVal{kind: cvLocal, slot: in.A, typ: slotType(in.A)})
				} else {
					push(scalarVal())
				}
			case ir.StoreLocal:
				v := pop()
				if refSlot(in.A) {
					storeRef(v, "a stored value", in)
				}
				shared.clear(in.A) // rebinding drops this process's reference
			case ir.Dup:
				push(stack[len(stack)-1])
			case ir.Pop:
				pop()

			case ir.NewRecord, ir.NewUnion, ir.NewArray:
				nin := ir.StackIn(in)
				acc := newBitset(p.NumLocals)
				unknown := false
				for i := 0; i < nin; i++ {
					var u bool
					acc, u = pop().aliasInto(acc)
					unknown = unknown || u
				}
				push(cleanVal{kind: cvFresh, slot: -1, typ: univ.ByID(in.A), aliases: acc, unknown: unknown})
			case ir.CastCopy:
				v := pop()
				acc, unknown := v.aliasInto(newBitset(p.NumLocals))
				push(cleanVal{kind: cvFresh, slot: -1, typ: univ.ByID(in.A), aliases: acc, unknown: unknown})
			case ir.CastReuse:
				v := pop()
				v.typ = nil
				push(v)

			case ir.GetField:
				base := pop()
				push(borrow(base, fieldType(base, in.A)))
			case ir.UnionGet:
				base := pop()
				push(borrow(base, fieldType(base, in.A)))
			case ir.GetIndex:
				pop() // index
				base := pop()
				var et *types.Type
				if base.typ != nil {
					et = base.typ.Elem
				}
				push(borrow(base, et))
			case ir.SetField:
				v := pop()
				pop() // record
				storeRef(v, "a field store", in)
			case ir.SetIndex:
				v := pop()
				pop() // index
				pop() // array
				storeRef(v, "an element store", in)

			case ir.Link:
				pop()
				dirty("manual link() escapes the one-obligation model (line %d)", in.Pos.Line)
			case ir.Unlink:
				v := pop()
				if v.kind == cvLocal {
					shared.clear(v.slot)
				}

			case ir.Send, ir.SendCommit:
				atBlock("send")
				send(pop(), in)
			case ir.Recv:
				atBlock("receive")
				for _, s := range patBindSlots(p.Ports[in.B].Pat, nil) {
					shared.clear(s)
				}
			case ir.Alt:
				atBlock("alt")

			case ir.Halt:
				// A halted process never transitions again; objects it
				// still references are inert.

			default:
				for i := 0; i < ir.StackIn(in); i++ {
					pop()
				}
				for i := 0; i < ir.StackIn(in)+ir.StackEffect(in); i++ {
					push(scalarVal())
				}
			}
		}
		return shared
	}

	transfer := func(bi int, in bitset) []bitset {
		out := block(bi, in)
		b := &g.blocks[bi]
		outs := make([]bitset, len(b.succs))
		for i, e := range b.succs {
			s := out.clone()
			for _, slot := range patBindSlots(armPat(p, e.arm), nil) {
				s.clear(slot)
			}
			outs[i] = s
		}
		return outs
	}
	forwardFixpoint(g, lat, newBitset(p.NumLocals), transfer)
	return reason
}

// ---------------------------------------------------------------------------
// Diagnostics (ESPV013)

// analyzeIndependence reports the independence-driven finding ESPV013:
// an alt whose arms can never compete — every pair of arms is on
// different channels whose counterparties are disjoint and pairwise
// independent (so selecting one arm can never disable another), and the
// arm transitions themselves commute: their downstream channel frontiers
// are disjoint and neither arm's local effects touch locals the other
// reads or writes. Serving order then forms a confluence diamond — the
// nondeterministic choice can never be observed by the rest of the
// program.
func analyzeIndependence(prog *ir.Program, cfgs []*cfg, r *reporter) {
	ind, sends, recvs := computeIndependence(prog, cfgs)
	sendProcs := make([][]int, len(prog.Channels))
	recvProcs := make([][]int, len(prog.Channels))
	for ch := range prog.Channels {
		sendProcs[ch] = procSet(sends[ch])
		recvProcs[ch] = procSet(recvs[ch])
	}

	for pi, p := range prog.Procs {
		g := cfgs[pi]
		for bi := range g.blocks {
			if !g.reachable[bi] {
				continue
			}
			b := &g.blocks[bi]
			last := p.Code[b.end-1]
			if last.Op != ir.Alt {
				continue
			}
			alt := &p.Alts[last.A]
			if len(alt.Arms) < 2 {
				continue
			}
			if cps := altArmsIndependent(prog, p, alt, last.A, pi, ind, sendProcs, recvProcs); cps != nil {
				r.report(&Finding{
					Check: CheckIndepAltArms,
					Proc:  p.Name,
					Pos:   alt.Pos,
					Msg: fmt.Sprintf("alt arms can never compete: their counterparties (%s) are pairwise independent and the arm transitions commute, so arm order is unobservable scheduling nondeterminism",
						strings.Join(cps, " / ")),
				})
			}
		}
	}
}

// altArmsIndependent decides ESPV013 for one alt of process pi and, when
// it fires, returns the rendered counterparty sets for the message.
//
// Two conditions must hold for every pair of arms. First, the arms can
// never compete for a rendezvous: different channels, and counterparty
// sets that are disjoint and pairwise independent — then selecting one
// arm leaves every other ready arm ready. Second, the arm transitions
// commute, so serving two ready arms in either order converges: their
// downstream channel frontiers (the blocking sites a body reaches before
// it blocks again) are disjoint, and neither arm's region writes a local
// the other's region reads or writes. Both together give the confluence
// diamond that makes the choice unobservable.
func altArmsIndependent(prog *ir.Program, p *ir.Proc, alt *ir.AltDef, altIdx, pi int, ind *ir.Independence, sendProcs, recvProcs [][]int) []string {
	// Counterparties of each arm: the processes on the opposite side of
	// the arm's channel, excluding the alt's own process.
	cps := make([][]int, len(alt.Arms))
	regions := make([]armRegion, len(alt.Arms))
	for i := range alt.Arms {
		arm := &alt.Arms[i]
		var procs []int
		if arm.IsSend {
			procs = recvProcs[arm.Chan]
		} else {
			procs = sendProcs[arm.Chan]
		}
		for _, q := range procs {
			if q != pi {
				cps[i] = append(cps[i], q)
			}
		}
		if len(cps[i]) == 0 {
			return nil // a dead arm (ESPV012's finding) is not "independent"
		}
		regions[i] = scanArmRegion(p, arm, altIdx)
	}
	for i := range alt.Arms {
		for j := i + 1; j < len(alt.Arms); j++ {
			if alt.Arms[i].Chan == alt.Arms[j].Chan {
				return nil // same channel: the arms compete directly
			}
			for _, a := range cps[i] {
				for _, b := range cps[j] {
					if a == b || !ind.Independent(a, b) {
						return nil
					}
				}
			}
			if !regions[i].commutes(&regions[j]) {
				return nil // serving order is observable downstream
			}
		}
	}
	names := make([]string, len(cps))
	for i, procs := range cps {
		parts := make([]string, len(procs))
		for k, q := range procs {
			parts[k] = prog.Procs[q].Name
		}
		names[i] = "{" + strings.Join(parts, " ") + "}"
	}
	return names
}

// armRegion summarizes one alt arm's transition: the code from the arm's
// entry up to (not including) the next blocking point.
type armRegion struct {
	chans  map[int]bool // channels of the blocking sites the region reaches
	reads  bitset
	writes bitset
}

// commutes reports that executing the two regions in either order
// converges: no shared downstream channel, and neither writes what the
// other touches.
func (a *armRegion) commutes(b *armRegion) bool {
	for ch := range a.chans {
		if b.chans[ch] {
			return false
		}
	}
	for s := 0; s < len(a.writes)*64; s++ {
		if a.writes.get(s) && (b.reads.get(s) || b.writes.get(s)) {
			return false
		}
		if b.writes.get(s) && (a.reads.get(s) || a.writes.get(s)) {
			return false
		}
	}
	return true
}

// scanArmRegion walks the code reachable from the arm's entry until the
// next blocking point, collecting local reads/writes and the channels of
// the blocking sites it stops at. Re-reaching the arm's own alt is the
// loop-back and contributes nothing: the next activation is a fresh,
// symmetric choice. A send arm's pre-commit evaluation code is part of
// the region: its SendCommit is the arm's own rendezvous, not a
// downstream site, so the walk goes on past it.
func scanArmRegion(p *ir.Proc, arm *ir.AltArm, altIdx int) armRegion {
	r := armRegion{
		chans:  map[int]bool{},
		reads:  newBitset(p.NumLocals),
		writes: newBitset(p.NumLocals),
	}
	for _, s := range patBindSlots(armPat(p, arm), nil) {
		r.writes.set(s)
	}
	seen := make([]bool, len(p.Code))
	var work []int
	push := func(pc int) {
		if pc >= 0 && pc < len(p.Code) && !seen[pc] {
			seen[pc] = true
			work = append(work, pc)
		}
	}
	push(arm.BodyPC)
	if arm.IsSend {
		push(arm.EvalPC)
	}
	var succs []int
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := p.Code[pc]
		switch in.Op {
		case ir.LoadLocal:
			r.reads.set(in.A)
		case ir.StoreLocal:
			r.writes.set(in.A)
		case ir.Send, ir.Recv:
			r.chans[in.A] = true
			continue // next blocking point: region ends here
		case ir.Alt:
			if in.A != altIdx {
				for k := range p.Alts[in.A].Arms {
					r.chans[p.Alts[in.A].Arms[k].Chan] = true
				}
			}
			continue
		}
		succs = ir.Succs(p, pc, succs[:0])
		for _, s := range succs {
			push(s)
		}
	}
	return r
}
