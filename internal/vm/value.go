// Package vm executes compiled ESP programs.
//
// The machine realizes the runtime described in §6.1 of the paper:
// processes are stack-less state machines (a context switch saves only a
// program counter), channels are synchronous rendezvous points with
// pattern dispatch, blocking is tracked per process (bit-mask style by
// default, wait-queue style behind a config switch for the ablation), and
// message transfer is a semantic deep copy implemented as reference-count
// manipulation (§6.2).
//
// The same machine serves three masters: the firmware runtime (auto mode,
// driven by external channel bindings and a cost meter), the model checker
// (manual mode, where communication choices are enumerated and fired
// explicitly), and the benchmarks (cycle accounting).
package vm

import (
	"fmt"

	"esplang/internal/types"
)

// Value is a runtime value: a scalar (int/bool, in Int) or a heap
// reference.
type Value struct {
	IsRef bool
	Int   int64
	Ref   *Object
}

// IntVal returns an int value.
func IntVal(v int64) Value { return Value{Int: v} }

// BoolVal returns a bool value (encoded 0/1).
func BoolVal(b bool) Value {
	if b {
		return Value{Int: 1}
	}
	return Value{Int: 0}
}

// RefVal returns a reference value.
func RefVal(o *Object) Value { return Value{IsRef: true, Ref: o} }

// Bool interprets the value as a boolean.
func (v Value) Bool() bool { return v.Int != 0 }

// String renders the value for diagnostics.
func (v Value) String() string {
	if !v.IsRef {
		return fmt.Sprintf("%d", v.Int)
	}
	if v.Ref == nil {
		return "<nil ref>"
	}
	return v.Ref.String()
}

// Object is a heap object: a record, union, or array.
type Object struct {
	ID    int
	Type  *types.Type
	RC    int
	Freed bool
	Tag   int     // union: valid field index
	Elems []Value // record fields / union payload (len 1) / array elements

	// mark/markSeg/markIdx implement generation-stamped graph traversal
	// for the snapshotter (see savedstate.go): an object is "visited this
	// traversal" iff mark equals the machine's current generation, and
	// markSeg and markIdx are the key segment that first reached it and
	// its index there. Objects are never shared between machines
	// (RestoreState rebuilds into a per-machine pool), so a per-machine
	// generation counter suffices.
	mark    int64
	markSeg int32
	markIdx int32
}

// String renders the object shallowly.
func (o *Object) String() string {
	if o == nil {
		return "<nil>"
	}
	state := ""
	if o.Freed {
		state = " FREED"
	}
	switch o.Type.Kind {
	case types.Union:
		return fmt.Sprintf("obj%d %s{tag=%d rc=%d%s}", o.ID, o.Type, o.Tag, o.RC, state)
	default:
		return fmt.Sprintf("obj%d %s{n=%d rc=%d%s}", o.ID, o.Type, len(o.Elems), o.RC, state)
	}
}

// Heap is the object store of one machine. Objects are never reused;
// freed objects keep their contents so use-after-free is detectable, the
// property the verifier checks exhaustively (§5.2). Object shells are
// carved from per-heap slabs of shellChunk, so the hot
// allocate-send-free cycle pays one Go allocation per chunk rather than
// one per ESP object; a carved shell is never handed out again, so a
// freed shell survives as a permanent tombstone with its original ID,
// type, and Freed flag, and a dangling reference in a buggy program
// faults with exactly the same message on every engine. (Recycling whole
// shells would let a stale reference observe a *different, possibly
// live* object — the engines would diverge on use-after-free programs,
// which the differential fuzzer caught.) Auto-mode fused machines
// additionally recycle the element storage of freed objects (see
// Machine.New): it goes on a free list and Alloc reuses it.
// Recycling stays off in Manual (model checker) machines, whose snapshot
// machinery owns object lifetimes.
type Heap struct {
	// MaxLive, when positive, bounds the number of simultaneously live
	// objects. Exceeding it faults — the paper's way of catching leaks
	// during verification (§5.2: "a memory leak can cause the system to
	// run out of objectIds").
	MaxLive int

	nextID int
	live   int
	allocs int64
	frees  int64

	// onFree, when set, is called after each free (with the live count
	// already decremented). The owning machine installs it to keep
	// Stats.Frees and the observability layer in step (see
	// Machine.hookHeap).
	onFree func()

	// shells is the unused tail of the current shell slab.
	shells []Object

	// recycle enables the free list; pool holds the element storage of
	// freed objects awaiting reuse. Only the backing arrays are pooled —
	// freed Object shells persist as tombstones (see the type comment).
	recycle bool
	pool    [][]Value
}

// shellChunk is the number of Object shells one slab allocation carves.
const shellChunk = 64

// MaxAllocElems bounds the element count of any single object — the
// Go-VM counterpart of the C runtime's ESP_MAX_ELEMS. ESP targets
// firmware-scale object tables; without a bound, a dynamic array size
// like "#{ 9223372036854775807 -> 0 }" (a one-step fuzzer mutation of
// any array literal) asks the host allocator for petabytes instead of
// faulting. Exceeding it is an out-of-objects fault, the paper's
// memory-exhaustion class (§5.2).
const MaxAllocElems = 1 << 16

// Live returns the number of currently live objects.
func (h *Heap) Live() int { return h.live }

// Allocs returns the total number of allocations.
func (h *Heap) Allocs() int64 { return h.allocs }

// Frees returns the total number of frees.
func (h *Heap) Frees() int64 { return h.frees }

// Alloc creates a new object with reference count 1. It returns nil if
// the live-object bound is exceeded (the caller faults). With recycling
// on, a freed object's element storage is reused when available; the
// Object shell itself is always an unused slab slot, so freed shells
// keep tombstoning their old identity. Contract: every caller stores
// into all n elements before the object becomes reachable (records pop
// every field, arrays store init into every slot), so reused stale
// elements are never observed and need no zeroing.
func (h *Heap) Alloc(t *types.Type, n int) *Object {
	if h.MaxLive > 0 && h.live >= h.MaxLive {
		return nil
	}
	elems := []Value(nil)
	if k := len(h.pool); k > 0 && cap(h.pool[k-1]) >= n {
		elems = h.pool[k-1][:n]
		h.pool[k-1] = nil
		h.pool = h.pool[:k-1]
	} else {
		elems = make([]Value, n)
	}
	if len(h.shells) == 0 {
		h.shells = make([]Object, shellChunk)
	}
	o := &h.shells[0]
	h.shells = h.shells[1:]
	o.ID, o.Type, o.RC, o.Elems = h.nextID, t, 1, elems
	h.nextID++
	h.live++
	h.allocs++
	return o
}

// free marks o freed and recursively unlinks its children (§4.4). It
// reports the first fault encountered, if any.
func (h *Heap) free(o *Object) *Fault {
	if o.Freed {
		return &Fault{Kind: FaultDoubleFree, Msg: fmt.Sprintf("double free of %s", o)}
	}
	o.Freed = true
	h.live--
	h.frees++
	if h.onFree != nil {
		h.onFree()
	}
	for _, e := range o.Elems {
		if e.IsRef {
			if f := h.Unlink(e.Ref); f != nil {
				return f
			}
		}
	}
	if h.recycle && cap(o.Elems) > 0 {
		// Donate the backing array to the pool but keep the slice header
		// on the tombstone: faults on dangling references still print the
		// original element count, and freed elements are never read (every
		// access checks Freed first), so sharing the storage is safe.
		h.pool = append(h.pool, o.Elems)
	}
	return nil
}

// Link increments the reference count.
func (h *Heap) Link(o *Object) *Fault {
	if o == nil {
		return &Fault{Kind: FaultInternal, Msg: "link of nil reference"}
	}
	if o.Freed {
		return &Fault{Kind: FaultUseAfterFree, Msg: fmt.Sprintf("link of freed object %s", o)}
	}
	o.RC++
	return nil
}

// Unlink decrements the reference count, freeing the object (and
// recursively unlinking its children) when it reaches zero.
func (h *Heap) Unlink(o *Object) *Fault {
	if o == nil {
		return &Fault{Kind: FaultInternal, Msg: "unlink of nil reference"}
	}
	if o.Freed {
		return &Fault{Kind: FaultDoubleFree, Msg: fmt.Sprintf("unlink of freed object %s", o)}
	}
	o.RC--
	if o.RC < 0 {
		return &Fault{Kind: FaultNegativeRC, Msg: fmt.Sprintf("reference count of %s fell below zero", o)}
	}
	if o.RC == 0 {
		return h.free(o)
	}
	return nil
}
