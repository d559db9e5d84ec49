package esplang_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	esplang "esplang"
	"esplang/internal/fuzz"
	"esplang/internal/ir"
	"esplang/internal/nic"
	"esplang/internal/vm"
	"esplang/internal/vmmc"
)

// replayModel is one closed program for TestSnapshotReplayStateSpace,
// with the heap bound its checker runs use.
type replayModel struct {
	name    string
	prog    *ir.Program
	maxLive int
}

// replayCorpus compiles every closed program of the sample, vet and fuzz
// corpora, the first 200 generated fuzz programs, and four §5.3 models.
func replayCorpus(t *testing.T) []replayModel {
	t.Helper()
	var out []replayModel
	add := func(name, src string, maxLive int) {
		prog, err := esplang.Compile(src, esplang.CompileOptions{Name: name})
		if err != nil {
			return // the fuzz corpus also holds programs the frontend must reject
		}
		for _, ch := range prog.IR.Channels {
			if ch.Ext != ir.ExtNone {
				return
			}
		}
		out = append(out, replayModel{name, prog.IR, maxLive})
	}
	for _, pat := range []string{"testdata/*.esp", "testdata/vet/*.esp", "testdata/fuzz/*.esp"} {
		files, err := filepath.Glob(pat)
		if err != nil || len(files) == 0 {
			t.Fatalf("no programs match %s: %v", pat, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			add(f, string(src), 4096)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		g := fuzz.Generate(seed)
		add(g.Name(), g.Source, 4096)
	}
	cfg := nic.DefaultConfig()
	add("firmware/msgs=2", vmmc.FirmwareModel(cfg, 2), 64)
	add("two-node/msgs=2", vmmc.TwoNodeModel(cfg, 2), 64)
	add("memsafety/none", vmmc.MemSafetyModel(vmmc.BugNone), 8)
	add("retrans/2x3", vmmc.RetransModel(2, 3, false), 4096)
	return out
}

// replayStateBound caps the states explored per program, so the whole
// corpus runs in about a second.
const replayStateBound = 2000

// TestSnapshotReplayStateSpace: on both engines, every state the model
// checker's expansion reaches — restore a snapshot, fire one
// communication, save — is the state a fresh machine reaches by replaying
// that state's choice path from the initial state, which is how the
// checker rebuilds counterexamples. A breadth-first search over each
// program's state space checks every admitted state's key and heap
// counters against the replay, and every faulting transition's fault
// (kind, message, position): object IDs are not part of the key but do
// appear in fault messages.
func TestSnapshotReplayStateSpace(t *testing.T) {
	corpus := replayCorpus(t)
	for _, engine := range []vm.Engine{vm.EngineBaseline, vm.EngineFused} {
		t.Run(engine.String(), func(t *testing.T) {
			states := 0
			for _, md := range corpus {
				states += replayStateSpace(t, md, engine)
			}
			t.Logf("%d programs, %d states", len(corpus), states)
		})
	}
}

// replayStateSpace searches one program and returns the number of
// states it admitted.
func replayStateSpace(t *testing.T, md replayModel, engine vm.Engine) int {
	fresh := func() *vm.Machine {
		m := vm.New(md.prog, vm.Config{Manual: true, MaxLiveObjects: md.maxLive, StepBudget: 200_000, Engine: engine})
		m.Cost = vm.ZeroCostModel()
		m.Settle()
		return m
	}
	m := fresh()
	if m.Fault() != nil {
		return 0
	}
	type entry struct {
		snap *vm.SavedState
		path []vm.CommChoice
	}
	snap, kb := m.SaveKey(nil, nil)
	seen := map[string]bool{string(kb): true}
	queue := []entry{{snap: snap}}
	for len(queue) > 0 && len(seen) < replayStateBound {
		e := queue[0]
		queue = queue[1:]
		m.RestoreState(e.snap)
		for _, c := range m.EnabledComms() {
			m.RestoreState(e.snap)
			m.FireComm(c)
			path := append(e.path[:len(e.path):len(e.path)], c)
			if f := m.Fault(); f != nil {
				rf := fresh().ReplayComms(path)
				if rf == nil || f.Kind != rf.Kind || f.Msg != rf.Msg || f.Pos != rf.Pos {
					t.Errorf("%s: after %v: restored fault %v, replayed fault %v", md.name, path, f, rf)
				}
				continue
			}
			s2, kb := m.SaveKey(nil, nil)
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
			r := fresh()
			if rf := r.ReplayComms(path); rf != nil {
				t.Errorf("%s: after %v: replay faults (%v), the restored machine does not", md.name, path, rf)
				continue
			}
			if err := sameState(m, r, kb); err != nil {
				t.Errorf("%s: after %v: %v", md.name, path, err)
				continue
			}
			queue = append(queue, entry{s2, path})
		}
	}
	return len(seen)
}

// sameState compares the restored machine m, whose key is kb, with the
// replayed machine r.
func sameState(m, r *vm.Machine, kb []byte) error {
	if _, rkb := r.SaveKey(nil, nil); string(rkb) != string(kb) {
		return fmt.Errorf("keys differ:\nrestored %x\nreplayed %x", kb, rkb)
	}
	h, rh := m.Heap(), r.Heap()
	if h.Live() != rh.Live() || h.Allocs() != rh.Allocs() || h.Frees() != rh.Frees() {
		return fmt.Errorf("heap counters differ: restored live=%d allocs=%d frees=%d, replayed live=%d allocs=%d frees=%d",
			h.Live(), h.Allocs(), h.Frees(), rh.Live(), rh.Allocs(), rh.Frees())
	}
	return nil
}
