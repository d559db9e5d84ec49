package vm

import (
	"encoding/binary"
	"slices"
)

// SavedState is a compact, self-contained snapshot of a machine's
// semantic state: process scheduling descriptors, locals, stacks, the
// reachable heap graph (flattened into index-linked arenas), and the heap
// counters. It shares nothing with the machine that produced it, so
// restoring it into any machine of the same program is safe, and a
// SavedState can be reused (SaveKey overwrites in place) so the model
// checker's state expansion allocates only while a snapshot's arenas are
// still growing toward the program's steady-state size.
//
// The arenas hold no Go pointers (types are stored by ID, references by
// snapshot index), so saving and restoring pay no write barriers and the
// garbage collector never scans a snapshot's contents. They fall into one
// part per process, in key-segment order (see segSnap), so a SaveKey can
// copy the part of a process a transition did not touch.
//
// Save requires the bit-mask blocking mode (Config.UseWaitQueues off):
// wait queues are derivable state the snapshot does not carry.
type SavedState struct {
	procs   []procSnap
	vals    snapVals // per process: locals, then stack, concatenated
	objs    []objSnap
	objVals snapVals  // object elements, blocked per object
	segs    []segSnap // where each process's part of the arenas begins
	ready   []int
	key     []byte  // the key the last SaveKey appended
	keyEnds []int32 // see KeySegments
	copied  []bool  // see Copied

	// version counts the SaveKeys into this snapshot. A machine records
	// it when it restores the snapshot as its base, so a base saved into
	// since is noticed.
	version uint64
	// from is the base the last SaveKey copied segments from while their
	// arenas are still to be copied (see Complete), and fromVersion its
	// version then; from is nil once the snapshot is complete.
	from        *SavedState
	fromVersion uint64

	live         int
	nextID       int
	allocs       int64
	frees        int64
	commitTarget int
	commitArm    int
	flt          *Fault
}

// snapVal is a Value inside a snapshot: a scalar in v, or (ref set) the
// target object's segment (high 32 bits) and index within the segment's
// objects (low 32 bits) in v, -1 for a nil reference.
type snapVal struct {
	v   int64
	ref bool
}

func refSnap(seg, idx int32) snapVal {
	return snapVal{v: int64(seg)<<32 | int64(idx), ref: true}
}

// snapVals is an arena of snapshot values kept as two parallel slices,
// so a value costs 9 bytes instead of a padded 16-byte snapVal.
type snapVals struct {
	v   []int64
	ref []bool
}

func (a *snapVals) len() int             { return len(a.v) }
func (a *snapVals) at(i int) snapVal     { return snapVal{v: a.v[i], ref: a.ref[i]} }
func (a *snapVals) set(i int, x snapVal) { a.v[i], a.ref[i] = x.v, x.ref }

func (a *snapVals) add(x snapVal) {
	a.v = append(a.v, x.v)
	a.ref = append(a.ref, x.ref)
}

func (a *snapVals) reset() { a.v, a.ref = a.v[:0], a.ref[:0] }

// extend lengthens the arena by n values for the caller to fill in.
func (a *snapVals) extend(n int) {
	a.v = extend(a.v, n)
	a.ref = extend(a.ref, n)
}

// copyRange copies b's values [from, to) to the arena from index dst.
func (a *snapVals) copyRange(dst int, b *snapVals, from, to int) {
	copy(a.v[dst:], b.v[from:to])
	copy(a.ref[dst:], b.ref[from:to])
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
	off   int32 // first element, counted from the segment's first in objVals
	n     int32 // element count
	freed bool
}

// segSnap is where one process's part of each arena begins: its values
// (locals, then stack), the objects first reached from it, and their
// elements. A snapshot holds one more segSnap than it has processes, the
// arena lengths, so process k's part spans segs[k] to segs[k+1]. Inside
// a part, element offsets count from the part's first element and a
// reference names its target by (segment, index), so a part reads the
// same at any position: SaveKey and Complete copy an unchanged process's
// part verbatim.
type segSnap struct {
	val, obj, elem int32
	// shared is set when the walk emitted a back-reference from this
	// process's segment into another's or from another's into this one:
	// the two processes reach a common object.
	shared bool
}

// Visited-state key format. SaveKey appends one canonical key per state:
// two states have equal keys iff they are behaviorally identical. Every
// integer field is a num — one byte when it lies in [0, keyInt), else
// keyInt and a zigzag varint — and every value is a num or starts with
// one of the escape bytes below. Heap objects appear inline at their
// first visit, so object identities assigned at different allocation
// times do not distinguish states (the objectId canonicalization of
// §5.2). Object IDs, nextID, the allocation counters, the ready list, and
// the commit pin are not part of the key.
//
// The key falls into segments (see KeySegments): the live-object count,
// then one segment per process holding its fields, locals, stack,
// pending value, and the heap objects first reached from it. Objects are
// numbered in first-visit order within the segment that first reaches
// them: a back-reference inside the segment is keyBack num(index), one
// to an object of an earlier process k's segment is keyBack num(-1-k)
// num(index). A segment's bytes thus depend on its own process alone
// unless the process shares an object with another. Every value is
// self-delimiting, so the boundaries are a function of the key's bytes:
// two keys are equal iff their segments are pairwise equal.
const (
	keyInt   = 0xfb // an integer outside [0, keyInt): zigzag varint follows
	keyNil   = 0xfc // a nil reference
	keyBack  = 0xfd // a reference to an object already in the key: [num(-1-segment)] num(index) follows
	keyObj   = 0xfe // a first-visit live object: num(type), num(RC), num(Tag), num(len), elements
	keyFreed = 0xff // the same for a freed object
)

// saver is one SaveKey traversal: it fills the snapshot arenas and the key
// in the same walk.
type saver struct {
	s   *SavedState
	kb  []byte
	gen int64
	// seg is the process whose segment is being walked; obj0 and elem0
	// are where its part of objs and objVals begins.
	seg         int32
	obj0, elem0 int
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
	return w.obj(v.Ref)
}

// obj records o (and, recursively, everything it references), returning
// its snapshot reference: its segment and its first-visit index there.
func (w *saver) obj(o *Object) snapVal {
	if o.mark == w.gen {
		w.kb = append(w.kb, keyBack)
		if o.markSeg != w.seg {
			w.num(int64(-1 - o.markSeg))
			w.s.segs[o.markSeg].shared = true
			w.s.segs[w.seg].shared = true
		}
		w.num(int64(o.markIdx))
		return refSnap(o.markSeg, o.markIdx)
	}
	s := w.s
	idx := int32(len(s.objs) - w.obj0)
	o.mark, o.markSeg, o.markIdx = w.gen, w.seg, idx
	off, n := s.objVals.len(), len(o.Elems)
	s.objVals.extend(n)
	s.objs = append(s.objs, objSnap{
		typ: int32(o.Type.ID()), id: int32(o.ID), rc: int32(o.RC), tag: int32(o.Tag),
		off: int32(off - w.elem0), n: int32(n), freed: o.Freed,
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
		s.objVals.set(off+i, v)
	}
	return refSnap(w.seg, idx)
}

// proc walks process k's segment: its fields, values, and the objects
// first reached from it.
func (w *saver) proc(k int, p *ProcInst) {
	s := w.s
	w.seg, w.obj0, w.elem0 = int32(k), len(s.objs), s.objVals.len()
	w.num(int64(p.Status))
	w.num(int64(p.PC))
	w.num(int64(p.WaitChan + 1))
	w.num(int64(p.WaitPort + 1))
	w.num(int64(p.AltIdx + 1))
	w.num(int64(p.ResumePC + 1))
	for _, v := range p.Locals {
		s.vals.add(w.val(v))
	}
	w.num(int64(len(p.Stack)))
	for _, v := range p.Stack {
		s.vals.add(w.val(v))
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
	s.procs[k] = ps
}

// SaveKey captures the machine's semantic state into dst, reusing its
// buffers (a nil dst allocates a fresh SavedState), and appends the
// state's visited-set key (see keyInt) to kb — one traversal of the
// processes and the reachable heap produces both. Statistics and the
// cycle meter are not captured: RestoreState leaves the target
// machine's own counters running.
//
// The traversal skips every process that is unchanged since the
// machine's base, the snapshot it last restored (see RestoreState and
// unchanged): its segment is copied from the base, the key bytes at once
// and the arenas by Complete; Copied reports which. It walks every
// process when there is no base, when dst is the base, and when the
// base has been saved into since.
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
	b := m.base
	if b == s || b != nil && b.version != m.baseVersion {
		b = nil
	}
	s.version++
	s.from = nil
	n := len(m.Procs)
	s.procs = slices.Grow(s.procs[:0], n)[:n]
	s.segs = slices.Grow(s.segs[:0], n+1)[:n+1]
	s.copied = slices.Grow(s.copied[:0], n+1)[:n+1]
	s.vals.reset()
	s.objs = s.objs[:0]
	s.objVals.reset()
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
	start := len(kb)
	// The live-object count is part of the state: leaked objects are
	// unreachable from the roots but still occupy objectIds, and it is
	// exactly their accumulation that the verifier's fixed-size table
	// catches (§5.2).
	w.num(int64(m.heap.live))
	s.keyEnds = append(s.keyEnds[:0], int32(len(w.kb)-start))
	s.copied[0] = false
	copied := 0
	for k, p := range m.Procs {
		g := &s.segs[k]
		*g = segSnap{val: int32(s.vals.len()), obj: int32(len(s.objs)), elem: int32(s.objVals.len())}
		clean := b != nil && m.unchanged(b, k)
		s.copied[k+1] = clean
		if clean {
			from, to := &b.segs[k], &b.segs[k+1]
			w.kb = append(w.kb, b.key[b.keyEnds[k]:b.keyEnds[k+1]]...)
			s.vals.extend(int(to.val - from.val))
			s.objs = extend(s.objs, int(to.obj-from.obj))
			s.objVals.extend(int(to.elem - from.elem))
			copied++
		} else {
			w.proc(k, p)
		}
		s.keyEnds = append(s.keyEnds, int32(len(w.kb)-start))
	}
	s.segs[n] = segSnap{val: int32(s.vals.len()), obj: int32(len(s.objs)), elem: int32(s.objVals.len())}
	s.key = append(s.key[:0], w.kb[start:]...)
	if copied > 0 {
		s.from, s.fromVersion = b, b.version
		m.copiedSegs += int64(copied)
	}
	return s, w.kb
}

// extend lengthens a by n elements for the caller to fill in.
func extend[T any](a []T, n int) []T { return slices.Grow(a, n)[:len(a)+n] }

// unchanged reports whether process k and the objects first reached
// from it are still as the machine's base b holds them, b not having
// been saved into since it was restored: k is not dirty and shares no
// object with another process in b.
//
// A process can reach only three kinds of object: what its locals, stack
// and pending value reach, what it allocates, and what a partner sends
// it. A process that neither ran nor was a partner is not dirty (see
// unblock), so it holds what it held in b. If it shared nothing in b, no
// other process could reach its objects then, nor since: a process that
// received one would have been its partner. A shared process is rebuilt
// and walked whether dirty or not; that is the only fallback.
func (m *Machine) unchanged(b *SavedState, k int) bool {
	if m.dirty[k] {
		return false
	}
	if b.segs[k].shared {
		m.sharedProcs++
		return false
	}
	return true
}

// KeySegments returns where each segment of the key that the last
// SaveKey into s appended ends, as offsets from the key's first byte:
// one entry for the live-object count, then one per process (see
// keyInt). The slice is s's own and is overwritten by the next SaveKey.
func (s *SavedState) KeySegments() []int32 { return s.keyEnds }

// Copied reports, for each key segment the last SaveKey into s appended
// (see KeySegments), whether it was copied from the machine's base
// instead of walked; a copied segment's bytes are the base's. The slice
// is s's own and is overwritten by the next SaveKey.
func (s *SavedState) Copied() []bool { return s.copied }

// Complete copies into s the arenas of the segments the last SaveKey
// into s copied from the machine's base (see Copied); it is a no-op on a
// complete snapshot. RestoreState completes a snapshot itself, but one
// that must outlive its base — handed to another goroutine, or kept
// while the base is saved into — must be completed first. Complete
// panics if the base has been saved into since.
func (s *SavedState) Complete() {
	b := s.from
	if b == nil {
		return
	}
	if b.version != s.fromVersion {
		panic("vm: Complete after the snapshot's base was saved into")
	}
	// Copy each run of consecutive copied processes at once: the run is
	// contiguous in both snapshots' arenas.
	n := len(s.procs)
	for k := 0; k < n; {
		if !s.copied[k+1] {
			k++
			continue
		}
		j := k + 1
		for j < n && s.copied[j+1] {
			j++
		}
		copy(s.procs[k:j], b.procs[k:j])
		s.vals.copyRange(int(s.segs[k].val), &b.vals, int(b.segs[k].val), int(b.segs[j].val))
		copy(s.objs[s.segs[k].obj:s.segs[j].obj], b.objs[b.segs[k].obj:b.segs[j].obj])
		s.objVals.copyRange(int(s.segs[k].elem), &b.objVals, int(b.segs[k].elem), int(b.segs[j].elem))
		k = j
	}
	s.from = nil
}

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
		vals:    snapVals{v: make([]int64, 0, vals), ref: make([]bool, 0, vals)},
		objs:    make([]objSnap, 0, m.heap.live),
		segs:    make([]segSnap, 0, 1+len(m.Procs)),
		keyEnds: make([]int32, 0, 1+len(m.Procs)),
		copied:  make([]bool, 0, 1+len(m.Procs)),
	}
}

// Save is SaveKey without the key. The snapshot it returns is complete.
func (m *Machine) Save(dst *SavedState) *SavedState {
	s, kb := m.SaveKey(dst, m.encBuf[:0])
	m.encBuf = kb
	s.Complete()
	return s
}

// EncodeState returns the machine's visited-set key (see SaveKey) as a
// string, saving into a machine-owned scratch snapshot.
func (m *Machine) EncodeState() string {
	m.encSnap, m.encBuf = m.SaveKey(m.encSnap, m.encBuf[:0])
	return string(m.encBuf)
}

// decSnapVal translates a value of snapshot s back into a live value over
// the machine's restored object pool, where object (segment, index)
// lives at the segment's first object plus the index.
func (m *Machine) decSnapVal(s *SavedState, v snapVal) Value {
	if !v.ref {
		return Value{Int: v.v}
	}
	if v.v < 0 {
		return Value{IsRef: true}
	}
	return Value{IsRef: true, Ref: m.objPool[s.segs[v.v>>32].obj+int32(v.v)]}
}

// RestoreState overwrites the machine's semantic state with s, which must
// come from a machine of the same program; it completes s first (see
// Complete). Heap objects are rebuilt into a pool private to this
// machine, reused across restores, so a restore in steady state performs
// no allocation. (The pool is deliberately NOT the execution heap's free
// list — Heap.Alloc never reuses objects, the §5.2 use-after-free
// property; only state replacement may recycle them, because it retires
// every reference to the objects it rebuilds.)
//
// A Manual machine remembers the quiescent snapshot it restores as its
// base, and from then on marks every process it unblocks as dirty.
// Restoring the base again, while it has not been saved into since,
// rebuilds only the processes that are not unchanged (see unchanged):
// for the next sibling transition, just the processes the previous one
// touched.
func (m *Machine) RestoreState(s *SavedState) {
	s.Complete()
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
	// Test s against the base before reading its version: the machine's
	// previous base may belong to another goroutine by now.
	intact := s == m.base && s.version == m.baseVersion
	for k := range m.Procs {
		if intact && m.unchanged(s, k) {
			m.keptProcs++
			continue
		}
		m.restoreProc(s, k)
	}
	// Wait queues are only populated in queue mode, which Save rejects;
	// clear any leftovers so a restored machine is self-consistent.
	for id := range m.sendQ {
		delete(m.sendQ, id)
	}
	for id := range m.recvQ {
		delete(m.recvQ, id)
	}
	// Only a quiescent state can be a base: a process ready in it would
	// run without passing through unblock.
	m.base = nil
	if m.Config.Manual && !m.Config.UseWaitQueues && len(s.ready) == 0 {
		m.base, m.baseVersion = s, s.version
		if m.dirty == nil {
			m.dirty = make([]bool, len(m.Procs))
		}
		clear(m.dirty)
	}
}

// restoreProc rebuilds process k of s and the objects first reached from
// it, in the pool slots s's layout gives them. A reference decodes to
// its target's pool slot whether or not that object is rebuilt yet.
func (m *Machine) restoreProc(s *SavedState, k int) {
	g, next := &s.segs[k], &s.segs[k+1]
	u := m.Prog.Universe
	for i := g.obj; i < next.obj; i++ {
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
		for j := range o.Elems {
			o.Elems[j] = m.decSnapVal(s, s.objVals.at(int(g.elem+os.off)+j))
		}
	}

	p := m.Procs[k]
	ps := &s.procs[k]
	p.Status = ps.status
	p.PC = int(ps.pc)
	p.WaitChan = int(ps.waitChan)
	p.WaitPort = int(ps.waitPort)
	p.AltIdx = int(ps.altIdx)
	p.ResumePC = int(ps.resumePC)
	p.PendingFlags = int(ps.pendingFlags)
	p.Pending = m.decSnapVal(s, ps.pending)
	j := int(g.val)
	for i := range p.Locals {
		p.Locals[i] = m.decSnapVal(s, s.vals.at(j))
		j++
	}
	p.Stack = p.Stack[:0]
	for ; j < int(next.val); j++ {
		p.Stack = append(p.Stack, m.decSnapVal(s, s.vals.at(j)))
	}
}
