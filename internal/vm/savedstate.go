package vm

import (
	"encoding/binary"
	"slices"
)

// SavedState is a compact, self-contained snapshot of a machine's
// semantic state: process scheduling descriptors, locals, stacks, the
// reachable heap graph (flattened into index-linked arenas), and the heap
// counters. Unlike Clone it shares nothing with the machine that produced
// it, so restoring it into any machine of the same program is safe, and
// a SavedState can be reused (Save overwrites in place) so the model
// checker's state expansion allocates only while a snapshot's arenas are
// still growing toward the program's steady-state size.
//
// The arenas hold no Go pointers (types are stored by ID, references by
// snapshot index), so saving and restoring pay no write barriers and the
// garbage collector never scans a snapshot's contents.
//
// Save requires the bit-mask blocking mode (Config.UseWaitQueues off):
// wait queues are derivable state the snapshot does not carry.
type SavedState struct {
	procs   []procSnap
	vals    []snapVal // per process: locals, then stack, concatenated
	objs    []objSnap
	objVals []snapVal // object elements, blocked per object
	ready   []int
	keyEnds []int32 // see KeySegments

	live         int
	nextID       int
	allocs       int64
	frees        int64
	commitTarget int
	commitArm    int
	flt          *Fault
}

// snapVal is a Value inside a snapshot: a scalar in v, or (ref set) the
// target object's snapshot index in v, -1 for a nil reference.
type snapVal struct {
	v   int64
	ref bool
}

type procSnap struct {
	status       ProcStatus
	pc           int32
	waitChan     int32
	waitPort     int32
	altIdx       int32
	resumePC     int32
	pendingFlags int32
	nStack       int32
	pending      snapVal
}

type objSnap struct {
	typ   int32 // type ID in the program's universe
	id    int32
	rc    int32
	tag   int32
	off   int32 // first element in objVals
	n     int32 // element count
	freed bool
}

// Visited-state key format. SaveKey appends one canonical key per state:
// two states have equal keys iff they are behaviorally identical. Every
// integer field is a num — one byte when it lies in [0, keyInt), else
// keyInt and a zigzag varint — and every value is a num or starts with
// one of the escape bytes below. Heap objects appear inline at their
// first visit, numbered in first-visit order, so object identities
// assigned at different allocation times do not distinguish states (the
// objectId canonicalization of §5.2). Object IDs, nextID, the allocation
// counters, the ready list, and the commit pin are not part of the key.
//
// The key falls into segments (see KeySegments): the live-object count,
// then one segment per process holding its fields, locals, stack,
// pending value, and the heap objects first reached from it. Every value
// is self-delimiting, so the boundaries are a function of the key's
// bytes: two keys are equal iff their segments are pairwise equal.
const (
	keyInt   = 0xfb // an integer outside [0, keyInt): zigzag varint follows
	keyNil   = 0xfc // a nil reference
	keyBack  = 0xfd // a reference to an object already in the key: num(index) follows
	keyObj   = 0xfe // a first-visit live object: num(type), num(RC), num(Tag), num(len), elements
	keyFreed = 0xff // the same for a freed object
)

// saver is one SaveKey traversal: it fills the snapshot arenas and the key
// in the same walk.
type saver struct {
	s   *SavedState
	kb  []byte
	gen int64
}

func (w *saver) num(v int64) {
	if uint64(v) < keyInt {
		w.kb = append(w.kb, byte(v))
		return
	}
	w.kb = binary.AppendVarint(append(w.kb, keyInt), v)
}

func (w *saver) val(v Value) snapVal {
	if !v.IsRef {
		w.num(v.Int)
		return snapVal{v: v.Int}
	}
	if v.Ref == nil {
		w.kb = append(w.kb, keyNil)
		return snapVal{v: -1, ref: true}
	}
	return snapVal{v: int64(w.obj(v.Ref)), ref: true}
}

// obj records o (and, recursively, everything it references), returning
// its snapshot index — which is also its first-visit index in the key.
func (w *saver) obj(o *Object) int32 {
	if o.mark == w.gen {
		w.kb = append(w.kb, keyBack)
		w.num(int64(o.markIdx))
		return o.markIdx
	}
	s := w.s
	idx := int32(len(s.objs))
	o.mark, o.markIdx = w.gen, idx
	off, n := len(s.objVals), len(o.Elems)
	s.objVals = slices.Grow(s.objVals, n)[:off+n]
	s.objs = append(s.objs, objSnap{
		typ: int32(o.Type.ID()), id: int32(o.ID), rc: int32(o.RC), tag: int32(o.Tag),
		off: int32(off), n: int32(n), freed: o.Freed,
	})
	if o.Freed {
		w.kb = append(w.kb, keyFreed)
	} else {
		w.kb = append(w.kb, keyObj)
	}
	w.num(int64(o.Type.ID()))
	w.num(int64(o.RC))
	w.num(int64(o.Tag))
	w.num(int64(n))
	for i, e := range o.Elems {
		// Index through off after the call: the recursion may reallocate
		// the arena.
		v := w.val(e)
		s.objVals[off+i] = v
	}
	return idx
}

// SaveKey captures the machine's semantic state into dst, reusing its
// buffers (a nil dst allocates a fresh SavedState), and appends the
// state's visited-set key (see keyInt) to kb — one traversal of the
// processes and the reachable heap produces both. Statistics and the
// cycle meter are not captured (matching Clone, which resets them).
//
// The traversal marks objects with the machine's generation counter, so
// SaveKey is not safe for concurrent use on one machine — which is true
// of every execution entry point; the model checker's workers each own
// their machine.
func (m *Machine) SaveKey(dst *SavedState, kb []byte) (*SavedState, []byte) {
	if m.Config.UseWaitQueues {
		panic("vm: Save does not support wait-queue mode")
	}
	s := dst
	if s == nil {
		s = m.newSavedState()
	}
	s.procs = s.procs[:0]
	s.vals = s.vals[:0]
	s.objs = s.objs[:0]
	s.objVals = s.objVals[:0]
	s.ready = append(s.ready[:0], m.ready...)
	s.live = m.heap.live
	s.nextID = m.heap.nextID
	s.allocs = m.heap.allocs
	s.frees = m.heap.frees
	s.commitTarget = m.commitTarget
	s.commitArm = m.commitArm
	s.flt = m.flt

	m.markGen++
	w := saver{s: s, kb: kb, gen: m.markGen}
	base := len(kb)
	// The live-object count is part of the state: leaked objects are
	// unreachable from the roots but still occupy objectIds, and it is
	// exactly their accumulation that the verifier's fixed-size table
	// catches (§5.2).
	w.num(int64(m.heap.live))
	s.keyEnds = append(s.keyEnds[:0], int32(len(w.kb)-base))
	for _, p := range m.Procs {
		w.num(int64(p.Status))
		w.num(int64(p.PC))
		w.num(int64(p.WaitChan + 1))
		w.num(int64(p.WaitPort + 1))
		w.num(int64(p.AltIdx + 1))
		w.num(int64(p.ResumePC + 1))
		for _, v := range p.Locals {
			s.vals = append(s.vals, w.val(v))
		}
		w.num(int64(len(p.Stack)))
		for _, v := range p.Stack {
			s.vals = append(s.vals, w.val(v))
		}
		ps := procSnap{
			status:       p.Status,
			pc:           int32(p.PC),
			waitChan:     int32(p.WaitChan),
			waitPort:     int32(p.WaitPort),
			altIdx:       int32(p.AltIdx),
			resumePC:     int32(p.ResumePC),
			pendingFlags: int32(p.PendingFlags),
			nStack:       int32(len(p.Stack)),
		}
		// Only a blocked sender's value is live: every unblock clears it,
		// and a stale one must not shift the object numbering.
		if p.Status == PBlockedSend {
			ps.pending = w.val(p.Pending)
			w.num(int64(p.PendingFlags))
		}
		s.procs = append(s.procs, ps)
		s.keyEnds = append(s.keyEnds, int32(len(w.kb)-base))
	}
	return s, w.kb
}

// KeySegments returns where each segment of the key that the last
// SaveKey into s appended ends, as offsets from the key's first byte:
// one entry for the live-object count, then one per process (see
// keyInt). The slice is s's own and is overwritten by the next SaveKey.
func (s *SavedState) KeySegments() []int32 { return s.keyEnds }

// newSavedState returns an empty snapshot whose arenas fit the machine's
// processes, values, and live objects, so a first save does not grow
// them step by step.
func (m *Machine) newSavedState() *SavedState {
	vals := 0
	for _, p := range m.Procs {
		vals += len(p.Locals) + len(p.Stack)
	}
	return &SavedState{
		procs:   make([]procSnap, 0, len(m.Procs)),
		vals:    make([]snapVal, 0, vals),
		objs:    make([]objSnap, 0, m.heap.live),
		keyEnds: make([]int32, 0, 1+len(m.Procs)),
	}
}

// Save is SaveKey without the key.
func (m *Machine) Save(dst *SavedState) *SavedState {
	s, kb := m.SaveKey(dst, m.encBuf[:0])
	m.encBuf = kb
	return s
}

// EncodeState returns the machine's visited-set key (see SaveKey) as a
// string, saving into a machine-owned scratch snapshot.
func (m *Machine) EncodeState() string {
	m.encSnap, m.encBuf = m.SaveKey(m.encSnap, m.encBuf[:0])
	return string(m.encBuf)
}

// decSnapVal translates a snapshot-encoded value back into a live value
// over the machine's restored object pool.
func (m *Machine) decSnapVal(v snapVal) Value {
	if !v.ref {
		return Value{Int: v.v}
	}
	if v.v < 0 {
		return Value{IsRef: true}
	}
	return Value{IsRef: true, Ref: m.objPool[v.v]}
}

// RestoreState overwrites the machine's semantic state with s, which must
// come from a machine of the same program. Heap objects are rebuilt into
// a pool private to this machine, reused across restores, so a restore
// in steady state performs no allocation. (The pool is deliberately NOT
// the execution heap's free list — Heap.Alloc never reuses objects, the
// §5.2 use-after-free property; only whole-state replacement may recycle
// them, because it retires every reference to the previous state at
// once.)
func (m *Machine) RestoreState(s *SavedState) {
	m.heap.live = s.live
	m.heap.nextID = s.nextID
	m.heap.allocs = s.allocs
	m.heap.frees = s.frees
	m.commitTarget = s.commitTarget
	m.commitArm = s.commitArm
	m.flt = s.flt
	m.ready = append(m.ready[:0], s.ready...)

	for len(m.objPool) < len(s.objs) {
		m.objPool = append(m.objPool, &Object{})
	}
	// Pass 1: headers and element storage (targets must exist before any
	// reference decodes).
	u := m.Prog.Universe
	for i := range s.objs {
		os := &s.objs[i]
		o := m.objPool[i]
		o.ID = int(os.id)
		o.Type = u.ByID(int(os.typ))
		o.RC = int(os.rc)
		o.Freed = os.freed
		o.Tag = int(os.tag)
		if cap(o.Elems) < int(os.n) {
			o.Elems = make([]Value, os.n)
		} else {
			o.Elems = o.Elems[:os.n]
		}
	}
	// Pass 2: elements.
	for i := range s.objs {
		os := &s.objs[i]
		o := m.objPool[i]
		for j, v := range s.objVals[os.off : os.off+os.n] {
			o.Elems[j] = m.decSnapVal(v)
		}
	}

	k := 0
	for i, p := range m.Procs {
		ps := &s.procs[i]
		p.Status = ps.status
		p.PC = int(ps.pc)
		p.WaitChan = int(ps.waitChan)
		p.WaitPort = int(ps.waitPort)
		p.AltIdx = int(ps.altIdx)
		p.ResumePC = int(ps.resumePC)
		p.PendingFlags = int(ps.pendingFlags)
		p.Pending = m.decSnapVal(ps.pending)
		for j := range p.Locals {
			p.Locals[j] = m.decSnapVal(s.vals[k])
			k++
		}
		p.Stack = p.Stack[:0]
		for j := int32(0); j < ps.nStack; j++ {
			p.Stack = append(p.Stack, m.decSnapVal(s.vals[k]))
			k++
		}
	}
	// Wait queues are only populated in queue mode, which Save rejects;
	// clear any leftovers so a restored machine is self-consistent.
	for id := range m.sendQ {
		delete(m.sendQ, id)
	}
	for id := range m.recvQ {
		delete(m.recvQ, id)
	}
}
