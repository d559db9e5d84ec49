package vm_test

import (
	"fmt"
	"testing"

	"esplang/internal/opt"
	"esplang/internal/types"
	"esplang/internal/vm"
)

// mcSrc is a small manual-mode workload with a heap graph flowing
// through a rendezvous — the shape the model checker snapshots.
const mcSrc = `
type dataT = array of int
type msgT = record of { tag: int, data: dataT }
channel c: msgT
process producer {
    $n = 0;
    while (n < 3) {
        $d: dataT = { 2 -> n};
        out( c, { n, d});
        unlink( d);
        n = n + 1;
    }
}
process consumer {
    $n = 0;
    while (n < 3) {
        in( c, { $tag, $data});
        assert( data[0] >= 0);
        unlink( data);
        n = n + 1;
    }
}
`

func snapMachine(t *testing.T, src string) *vm.Machine {
	t.Helper()
	m := newMachine(t, src, vm.Config{Manual: true, MaxLiveObjects: 16})
	m.Cost = vm.ZeroCostModel()
	m.Settle()
	if f := m.Fault(); f != nil {
		t.Fatalf("settle fault: %v", f)
	}
	return m
}

// TestSavedStateRoundTrip: Save, mutate, RestoreState — the canonical
// encoding must come back bit-identical, transition after transition.
func TestSavedStateRoundTrip(t *testing.T) {
	m := snapMachine(t, mcSrc)
	var snap vm.SavedState
	for depth := 0; depth < 10; depth++ {
		comms := m.EnabledComms()
		if len(comms) == 0 {
			break
		}
		before := m.EncodeState()
		m.Save(&snap)

		m.FireComm(comms[0])
		if f := m.Fault(); f != nil {
			t.Fatalf("depth %d: fault: %v", depth, f)
		}
		after := m.EncodeState()
		if after == before {
			t.Fatalf("depth %d: transition did not change the encoded state", depth)
		}

		m.RestoreState(&snap)
		if got := m.EncodeState(); got != before {
			t.Fatalf("depth %d: restore does not round-trip:\nbefore %q\nafter  %q", depth, before, got)
		}
		// Advance for the next iteration.
		m.FireComm(comms[0])
	}
}

// TestSavedStateRestoreIntoSibling: a snapshot is self-contained, so
// restoring it into a different machine of the same program reproduces
// the state — the model checker's workers rely on exactly this.
func TestSavedStateRestoreIntoSibling(t *testing.T) {
	m1 := snapMachine(t, mcSrc)
	for i := 0; i < 3; i++ {
		comms := m1.EnabledComms()
		if len(comms) == 0 {
			break
		}
		m1.FireComm(comms[0])
	}
	snap := m1.Save(nil)
	want := m1.EncodeState()

	m2 := snapMachine(t, mcSrc)
	m2.RestoreState(snap)
	if got := m2.EncodeState(); got != want {
		t.Fatalf("sibling restore diverges:\nwant %q\ngot  %q", want, got)
	}
	// The sibling must be able to continue executing from the restored
	// state with identical behavior.
	c1, c2 := m1.EnabledComms(), m2.EnabledComms()
	if len(c1) != len(c2) {
		t.Fatalf("enabled comms diverge: %d vs %d", len(c1), len(c2))
	}
	if len(c1) > 0 {
		m1.FireComm(c1[0])
		m2.FireComm(c2[0])
		if m1.EncodeState() != m2.EncodeState() {
			t.Fatal("post-restore transitions diverge")
		}
	}
}

// TestSavedStateMatchesClone: restoring a snapshot reproduces the same
// semantic state as the (allocation-heavy) Clone it replaces.
func TestSavedStateMatchesClone(t *testing.T) {
	m := snapMachine(t, mcSrc)
	for i := 0; i < 2; i++ {
		if comms := m.EnabledComms(); len(comms) > 0 {
			m.FireComm(comms[0])
		}
	}
	clone := m.Clone()
	snap := m.Save(nil)

	m2 := snapMachine(t, mcSrc)
	m2.RestoreState(snap)
	if clone.EncodeState() != m2.EncodeState() {
		t.Fatal("Clone and Save/RestoreState disagree on the semantic state")
	}
}

// TestSavedStateSteadyStateAllocFree: once the snapshot arenas, the key
// buffer, and the restore pool have grown to the workload's size, Save or
// SaveKey into an existing snapshot and RestoreState allocate nothing.
func TestSavedStateSteadyStateAllocFree(t *testing.T) {
	m := snapMachine(t, mcSrc)
	var snap vm.SavedState
	m.Save(&snap)
	m.RestoreState(&snap) // warm the object pool
	allocs := testing.AllocsPerRun(100, func() {
		m.Save(&snap)
		m.RestoreState(&snap)
	})
	if allocs > 0 {
		t.Errorf("steady-state Save+RestoreState allocates %.1f objects per cycle, want 0", allocs)
	}
	_, kb := m.SaveKey(&snap, nil)
	allocs = testing.AllocsPerRun(100, func() {
		_, kb = m.SaveKey(&snap, kb[:0])
		m.RestoreState(&snap)
	})
	if allocs > 0 {
		t.Errorf("steady-state SaveKey+RestoreState allocates %.1f objects per cycle, want 0", allocs)
	}
}

// keyMachine returns mcSrc settled (producer blocked sending, consumer
// blocked receiving) with a two-object graph hung off the consumer's
// locals: locals 0 and 1 reference arrays a and b, and a's first element
// references b as well. The consumer also holds one stack slot. With bFirst the two arrays are allocated in the
// opposite order, so their object IDs differ but the heap is isomorphic.
// mutate, when non-nil, edits the state before it is returned.
func keyMachine(t *testing.T, bFirst bool, mutate func(m *vm.Machine, a, b *vm.Object)) *vm.Machine {
	t.Helper()
	m := snapMachine(t, mcSrc)
	var arr *types.Type
	for _, ty := range m.Prog.Universe.All() {
		if ty.Kind == types.Array {
			arr = ty
		}
	}
	var a, b *vm.Object
	if bFirst {
		b = m.Heap().Alloc(arr, 2)
		a = m.Heap().Alloc(arr, 2)
	} else {
		a = m.Heap().Alloc(arr, 2)
		b = m.Heap().Alloc(arr, 2)
	}
	a.Elems[0], a.Elems[1] = vm.RefVal(b), vm.IntVal(-3)
	b.Elems[0], b.Elems[1] = vm.IntVal(300), vm.IntVal(4)
	b.RC = 2
	cons := m.Procs[1]
	cons.Locals[0], cons.Locals[1] = vm.RefVal(a), vm.RefVal(b)
	cons.Stack = append(cons.Stack, vm.IntVal(9))
	if mutate != nil {
		mutate(m, a, b)
	}
	return m
}

func saveKey(m *vm.Machine) string {
	_, kb := m.SaveKey(nil, nil)
	return string(kb)
}

// TestSaveKeyCanonicalObjectIDs: heaps that differ only in allocation
// order — hence in object IDs — have equal keys.
func TestSaveKeyCanonicalObjectIDs(t *testing.T) {
	m1, m2 := keyMachine(t, false, nil), keyMachine(t, true, nil)
	if m1.Procs[1].Locals[0].Ref.ID == m2.Procs[1].Locals[0].Ref.ID {
		t.Fatal("test setup: object IDs should differ between the two machines")
	}
	if saveKey(m1) != saveKey(m2) {
		t.Error("isomorphic heaps with different object IDs have different keys")
	}
}

// TestSaveKeyDistinguishesStates: changing exactly one semantic field
// changes the key; a stale Pending on a process that is not blocked
// sending does not.
func TestSaveKeyDistinguishesStates(t *testing.T) {
	base := saveKey(keyMachine(t, false, nil))
	for _, tc := range []struct {
		name   string
		mutate func(m *vm.Machine, a, b *vm.Object)
	}{
		{"local", func(m *vm.Machine, a, b *vm.Object) { m.Procs[1].Locals[0] = vm.RefVal(b) }},
		{"stack slot", func(m *vm.Machine, a, b *vm.Object) { m.Procs[1].Stack[0] = vm.IntVal(10) }},
		{"heap element", func(m *vm.Machine, a, b *vm.Object) { a.Elems[1] = vm.IntVal(-4) }},
		{"large heap element", func(m *vm.Machine, a, b *vm.Object) { b.Elems[0] = vm.IntVal(301) }},
		{"RC", func(m *vm.Machine, a, b *vm.Object) { b.RC = 3 }},
		{"Freed", func(m *vm.Machine, a, b *vm.Object) { b.Freed = true }},
		{"Tag", func(m *vm.Machine, a, b *vm.Object) { a.Tag = 1 }},
		{"blocked sender's Pending", func(m *vm.Machine, a, b *vm.Object) {
			if m.Procs[0].Status != vm.PBlockedSend {
				t.Fatalf("test setup: producer is %v, want blocked(send)", m.Procs[0].Status)
			}
			m.Procs[0].Pending = vm.RefVal(b)
		}},
	} {
		if saveKey(keyMachine(t, false, tc.mutate)) == base {
			t.Errorf("%s: key unchanged", tc.name)
		}
	}
	stale := keyMachine(t, false, func(m *vm.Machine, a, b *vm.Object) {
		m.Procs[1].Pending = vm.RefVal(a)
	})
	if saveKey(stale) != base {
		t.Error("a stale Pending on a receiving process changed the key")
	}
}

// TestSaveKeyRoundTrip: restoring a snapshot into a sibling reproduces
// the key exactly, and EncodeState is the same key as a string.
func TestSaveKeyRoundTrip(t *testing.T) {
	m := keyMachine(t, true, nil)
	snap, kb := m.SaveKey(nil, nil)
	if got := m.EncodeState(); got != string(kb) {
		t.Fatalf("EncodeState differs from SaveKey:\n%x\n%x", got, kb)
	}
	m2 := snapMachine(t, mcSrc)
	m2.RestoreState(snap)
	if _, kb2 := m2.SaveKey(nil, nil); string(kb2) != string(kb) {
		t.Fatalf("key changed across Save/RestoreState:\n%x\n%x", kb, kb2)
	}
}

// TestSaveKeySegments: the key splits into the live-object count and one
// segment per process, with offsets relative to the key's first byte;
// the segments tile the key, and a change confined to one process
// changes only that process's segment.
func TestSaveKeySegments(t *testing.T) {
	segments := func(m *vm.Machine) []string {
		const prefix = "prefix"
		snap, kb := m.SaveKey(nil, []byte(prefix))
		key, ends := kb[len(prefix):], snap.KeySegments()
		if len(ends) != 1+len(m.Procs) {
			t.Fatalf("%d segments for %d processes", len(ends), len(m.Procs))
		}
		var segs []string
		start := int32(0)
		for _, end := range ends {
			if end <= start {
				t.Fatalf("segment ends %v not increasing", ends)
			}
			segs = append(segs, string(key[start:end]))
			start = end
		}
		if int(start) != len(key) {
			t.Fatalf("segments cover %d of %d key bytes", start, len(key))
		}
		return segs
	}
	base := segments(keyMachine(t, false, nil))
	for _, tc := range []struct {
		name    string
		changed int // the one segment that must differ
		mutate  func(m *vm.Machine, a, b *vm.Object)
	}{
		{"live count", 0, func(m *vm.Machine, a, b *vm.Object) { m.Heap().Alloc(a.Type, 1) }},
		{"producer PC", 1, func(m *vm.Machine, a, b *vm.Object) { m.Procs[0].PC++ }},
		{"consumer stack slot", 2, func(m *vm.Machine, a, b *vm.Object) { m.Procs[1].Stack[0] = vm.IntVal(10) }},
		{"object reached from consumer", 2, func(m *vm.Machine, a, b *vm.Object) { b.Elems[1] = vm.IntVal(5) }},
	} {
		got := segments(keyMachine(t, false, tc.mutate))
		for i := range got {
			if (got[i] != base[i]) != (i == tc.changed) {
				t.Errorf("%s: segment %d changed = %v", tc.name, i, got[i] != base[i])
			}
		}
	}
}

// TestSaveRejectsWaitQueueMode: wait queues are derivable state the
// snapshot does not carry, so Save must refuse rather than silently
// drop them.
func TestSaveRejectsWaitQueueMode(t *testing.T) {
	m := newMachine(t, mcSrc, vm.Config{Manual: true, UseWaitQueues: true})
	defer func() {
		if recover() == nil {
			t.Fatal("Save in wait-queue mode did not panic")
		}
	}()
	m.Save(nil)
}

// countSrc builds a scalar rendezvous loop: two processes meeting n
// times. Execution of this program must not allocate per operation —
// the guard for the interpreter's closure-free hot path.
func countSrc(n int) string {
	return fmt.Sprintf(`
channel c: int
channel doneC: int external reader
process ping {
    $i = 0;
    while (i < %d) {
        out( c, i);
        i = i + 1;
    }
}
process pong {
    $i = 0;
    while (i < %d) {
        in( c, $v);
        i = i + 1;
    }
    out( doneC, 1);
}
`, n, n)
}

// recordSrc is countSrc with a freshly allocated record per message: the
// consumer's receive frees it, so every iteration is one allocate-send-
// free cycle.
func recordSrc(n int) string {
	return fmt.Sprintf(`
type pair = record of { a: int, b: int }
channel c: pair
channel doneC: int external reader
process ping {
    $i = 0;
    while (i < %d) {
        out( c, { i, i + 1});
        i = i + 1;
    }
}
process pong {
    $i = 0;
    while (i < %d) {
        in( c, { $a, $b});
        i = i + 1;
    }
    out( doneC, 1);
}
`, n, n)
}

// TestExecAllocsIndependentOfWorkload: the interpreter loops (both
// engines) perform no per-instruction or per-context-switch heap
// allocation: total Go allocations for a 10x longer scalar workload must
// not grow with it. With one ESP record allocated per message, an
// optimized program on an auto fused machine (the firmware
// configuration: static schedule, element-storage recycling) may grow
// only by the object-shell slabs — far less than one Go allocation per
// ESP allocation.
func TestExecAllocsIndependentOfWorkload(t *testing.T) {
	run := func(t *testing.T, src string, optimize bool, engine vm.Engine) float64 {
		prog := compileSrc(t, src)
		if optimize {
			if _, err := opt.Run(prog, opt.All()); err != nil {
				t.Fatalf("opt: %v", err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			m := vm.New(prog, vm.Config{Engine: engine})
			if err := m.BindReader("doneC", &vm.CollectReader{}); err != nil {
				t.Fatal(err)
			}
			if res := m.Run(); res != vm.RunHalted {
				t.Fatalf("run: %v (fault %v)", res, m.Fault())
			}
		})
	}
	for _, engine := range []vm.Engine{vm.EngineBaseline, vm.EngineFused} {
		t.Run(engine.String(), func(t *testing.T) {
			short, long := run(t, countSrc(50), false, engine), run(t, countSrc(500), false, engine)
			// Machine construction allocates a fixed amount; the 10x longer
			// run may only add scheduling-slice noise, not O(n) closures.
			if long > short+8 {
				t.Errorf("allocations scale with workload: %d iters -> %.0f allocs, %d iters -> %.0f allocs",
					50, short, 500, long)
			}
		})
	}
	t.Run("fused-records", func(t *testing.T) {
		short, long := run(t, recordSrc(50), true, vm.EngineFused), run(t, recordSrc(500), true, vm.EngineFused)
		if limit := short + (450+31)/32; long > limit {
			t.Errorf("record allocations cost Go allocations: %d iters -> %.0f allocs, %d iters -> %.0f allocs (limit %.0f)",
				50, short, 500, long, limit)
		}
	})
}

// BenchmarkExecAllocs reports allocs/op for the scalar rendezvous loop
// under both engines — the benchmark-time guard that the hot path stays
// allocation-free (check the allocs/op column).
func BenchmarkExecAllocs(b *testing.B) {
	for _, engine := range []vm.Engine{vm.EngineBaseline, vm.EngineFused} {
		b.Run(engine.String(), func(b *testing.B) {
			prog, err := compileBench(countSrc(200))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := vm.New(prog, vm.Config{Engine: engine})
				if err := m.BindReader("doneC", &vm.CollectReader{}); err != nil {
					b.Fatal(err)
				}
				if res := m.Run(); res != vm.RunHalted {
					b.Fatalf("run: %v", res)
				}
			}
		})
	}
}

// BenchmarkSaveRestore measures the model checker's per-transition state
// capture: Save into a reused snapshot plus RestoreState.
func BenchmarkSaveRestore(b *testing.B) {
	prog, err := compileBench(mcSrc)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(prog, vm.Config{Manual: true, MaxLiveObjects: 16})
	m.Cost = vm.ZeroCostModel()
	m.Settle()
	var snap vm.SavedState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Save(&snap)
		m.RestoreState(&snap)
	}
}
