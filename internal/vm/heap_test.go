package vm_test

import (
	"fmt"
	"strings"
	"testing"

	"esplang/internal/types"
	"esplang/internal/vm"
)

// TestHeapShellsAreUniqueTombstones: Alloc carves object shells from
// fixed-size slabs, so it must never hand out a shell twice. Across
// several slab boundaries, every freed object keeps its identity — ID,
// type, Freed flag — and a dangling reference faults naming exactly that
// object, on a recycling heap (auto fused machine) as on a plain one
// (baseline machine).
func TestHeapShellsAreUniqueTombstones(t *testing.T) {
	for _, eng := range []vm.Engine{vm.EngineBaseline, vm.EngineFused} {
		t.Run(eng.String(), func(t *testing.T) {
			prog := compileSrc(t, "type arr = array of int\nprocess p { $a: arr = { 2 -> 0}; unlink( a); }")
			var arr *types.Type
			for _, ty := range prog.Universe.All() {
				if ty.Kind == types.Array {
					arr = ty
				}
			}
			h := vm.New(prog, vm.Config{Engine: eng}).Heap()
			seen := map[*vm.Object]bool{}
			alloc := func() *vm.Object {
				o := h.Alloc(arr, 2)
				if seen[o] {
					t.Fatalf("Alloc returned shell obj%d a second time", o.ID)
				}
				seen[o] = true
				o.Elems[0], o.Elems[1] = vm.IntVal(int64(o.ID)), vm.IntVal(7)
				return o
			}
			var objs, freed []*vm.Object
			for i := 0; i < 150; i++ {
				objs = append(objs, alloc())
			}
			for i, o := range objs {
				if i%3 == 0 {
					if f := h.Unlink(o); f != nil {
						t.Fatalf("unlink obj%d: %v", o.ID, f)
					}
					freed = append(freed, o)
				}
			}
			for i := 0; i < 150; i++ {
				objs = append(objs, alloc())
			}
			for i, o := range objs {
				if o.ID != i || o.Type != arr {
					t.Errorf("shell %d reads obj%d of type %v after later allocations", i, o.ID, o.Type)
				}
				if o.Freed != (i < 150 && i%3 == 0) {
					t.Errorf("obj%d: Freed = %v", o.ID, o.Freed)
				}
			}
			for _, o := range freed {
				name := fmt.Sprintf("obj%d %s{n=2 rc=0 FREED}", o.ID, arr)
				f := h.Link(o)
				if f == nil || f.Kind != vm.FaultUseAfterFree || !strings.Contains(f.Msg, name) {
					t.Errorf("link of dangling obj%d: fault %v, want use-after-free naming %q", o.ID, f, name)
				}
				f = h.Unlink(o)
				if f == nil || f.Kind != vm.FaultDoubleFree || !strings.Contains(f.Msg, name) {
					t.Errorf("unlink of dangling obj%d: fault %v, want double free naming %q", o.ID, f, name)
				}
			}
			if want := 300 - len(freed); h.Live() != want {
				t.Errorf("live = %d, want %d", h.Live(), want)
			}
		})
	}
}
