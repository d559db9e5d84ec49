package esplang_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/fuzz"
	"esplang/internal/ir"
	"esplang/internal/mc"
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
				states += replayStateSpace(t, md, engine).states
			}
			t.Logf("%d programs, %d states", len(corpus), states)
		})
	}
}

// replayGraph is the state graph one replayStateSpace search explored:
// its states, numbered in admission order from the initial state's 0, and
// the transitions between them that did not fault.
type replayGraph struct {
	states int
	edges  []replayEdge
	// complete is set when the search expanded every state it admitted
	// and no transition faulted.
	complete bool
}

// replayEdge is one transition of a replayGraph and the channel it
// communicates on.
type replayEdge struct{ from, to, ch int }

// replayStateSpace searches one program and returns the graph it
// explored.
func replayStateSpace(t *testing.T, md replayModel, engine vm.Engine) replayGraph {
	fresh := func() *vm.Machine {
		m := vm.New(md.prog, vm.Config{Manual: true, MaxLiveObjects: md.maxLive, StepBudget: 200_000, Engine: engine})
		m.Cost = vm.ZeroCostModel()
		m.Settle()
		return m
	}
	m := fresh()
	if m.Fault() != nil {
		return replayGraph{}
	}
	type entry struct {
		snap *vm.SavedState
		path []vm.CommChoice
		id   int
	}
	snap, kb := m.SaveKey(nil, nil)
	seen := map[string]int{string(kb): 0}
	queue := []entry{{snap: snap}}
	var g replayGraph
	faulted := false
	for len(queue) > 0 && len(seen) < replayStateBound {
		e := queue[0]
		queue = queue[1:]
		m.RestoreState(e.snap)
		for _, c := range m.EnabledComms() {
			m.RestoreState(e.snap)
			m.FireComm(c)
			path := append(e.path[:len(e.path):len(e.path)], c)
			if f := m.Fault(); f != nil {
				faulted = true
				rf := fresh().ReplayComms(path)
				if rf == nil || f.Kind != rf.Kind || f.Msg != rf.Msg || f.Pos != rf.Pos {
					t.Errorf("%s: after %v: restored fault %v, replayed fault %v", md.name, path, f, rf)
				}
				continue
			}
			s2, kb := m.SaveKey(nil, nil)
			if id, ok := seen[string(kb)]; ok {
				g.edges = append(g.edges, replayEdge{e.id, id, c.Chan})
				continue
			}
			id := len(seen)
			seen[string(kb)] = id
			g.edges = append(g.edges, replayEdge{e.id, id, c.Chan})
			r := fresh()
			if rf := r.ReplayComms(path); rf != nil {
				t.Errorf("%s: after %v: replay faults (%v), the restored machine does not", md.name, path, rf)
				continue
			}
			if err := sameState(m, r, kb); err != nil {
				t.Errorf("%s: after %v: %v", md.name, path, err)
				continue
			}
			queue = append(queue, entry{s2, path, id})
		}
	}
	g.states = len(seen)
	g.complete = len(queue) == 0 && !faulted
	return g
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

// TestProgressCorpus: on both engines, for every program of the replay
// corpus and every progress set — none, each channel, all channels — the
// progress search
//   - gives the same verdict, states and transitions at Workers 1 and 4
//     when it completes without a fault;
//   - reports only cycles that replay from a fresh machine back to the
//     state marked "(cycle starts)", through steps that are all off the
//     progress channels and all carry a source position;
//   - reports a cycle, where replayStateSpace's own search completes
//     without a fault, exactly when a depth-first search over that
//     search's non-progress edges finds one.
func TestProgressCorpus(t *testing.T) {
	corpus := replayCorpus(t)
	for _, engine := range []vm.Engine{vm.EngineBaseline, vm.EngineFused} {
		t.Run(engine.String(), func(t *testing.T) {
			runs, cycles := 0, 0
			for _, md := range corpus {
				g := replayStateSpace(t, md, engine)
				var all []string
				sets := [][]string{nil}
				for _, ch := range md.prog.Channels {
					sets = append(sets, []string{ch.Name})
					all = append(all, ch.Name)
				}
				for _, set := range append(sets, all) {
					progress := make([]bool, len(md.prog.Channels))
					for _, name := range set {
						progress[md.prog.ChannelByName(name).ID] = true
					}
					opts := mc.Options{Workers: 1, MaxStates: replayStateBound, MaxLiveObjects: md.maxLive, StepBudget: 200_000, Engine: engine}
					res := mc.CheckProgress(md.prog, set, opts)
					opts.Workers = 4
					res4 := mc.CheckProgress(md.prog, set, opts)
					runs++
					name := fmt.Sprintf("%s, progress %v", md.name, set)
					v, v4 := progressVerdict(res), progressVerdict(res4)
					if v == "cycle" {
						cycles++
						checkCycle(t, name, md, engine, progress, res.Violation.Trace)
					}
					if v4 == "cycle" {
						checkCycle(t, name+", 4 workers", md, engine, progress, res4.Violation.Trace)
					}
					if !res.Truncated && v != "fault" && (v4 != v || res4.States != res.States || res4.Transitions != res.Transitions) {
						t.Errorf("%s: Workers 1: %s, %d states, %d transitions; Workers 4: %s, %d, %d",
							name, v, res.States, res.Transitions, v4, res4.States, res4.Transitions)
					}
					if g.complete {
						if res.Truncated || res.States != g.states || res.Transitions != len(g.edges) {
							t.Errorf("%s: %d states, %d transitions, truncated %v; the replay search saw %d states, %d transitions",
								name, res.States, res.Transitions, res.Truncated, g.states, len(g.edges))
						}
						want := "pass"
						if g.hasCycle(progress) {
							want = "cycle"
						}
						if v != want {
							t.Errorf("%s: %s (%v), want %s", name, v, res.Violation, want)
						}
					}
				}
			}
			t.Logf("%d programs, %d progress searches, %d cycles", len(corpus), runs, cycles)
		})
	}
}

// progressVerdict classifies a progress search's result as "pass",
// "cycle" (a non-progress cycle) or "fault".
func progressVerdict(res *mc.Result) string {
	switch v := res.Violation; {
	case v == nil:
		return "pass"
	case v.Fault != nil && strings.HasPrefix(v.Fault.Msg, "non-progress cycle"):
		return "cycle"
	}
	return "fault"
}

// checkCycle replays a cycle counterexample from a fresh machine: every
// step must be enabled where it is taken and carry a source position, the
// cycle's steps must be off the progress channels, and the state after
// the last step must be the state at the step marked "(cycle starts)".
func checkCycle(t *testing.T, name string, md replayModel, engine vm.Engine, progress []bool, trace []mc.TraceStep) {
	t.Helper()
	m := vm.New(md.prog, vm.Config{Manual: true, MaxLiveObjects: md.maxLive, StepBudget: 200_000, Engine: engine})
	m.Cost = vm.ZeroCostModel()
	m.Settle()
	start := -1
	var startKey []byte
	for i, st := range trace {
		if strings.Contains(st.Desc, "(cycle starts)") {
			start = i
			_, startKey = m.SaveKey(nil, nil)
		}
		if start >= 0 && progress[st.Choice.Chan] {
			t.Errorf("%s: cycle step %d (%s) is on a progress channel", name, i+1, st.Desc)
		}
		if !st.Pos.IsValid() {
			t.Errorf("%s: step %d (%s) has no source position", name, i+1, st.Desc)
		}
		if !slices.Contains(m.EnabledComms(), st.Choice) {
			t.Errorf("%s: step %d (%s) is not enabled on replay", name, i+1, st.Desc)
			return
		}
		m.FireComm(st.Choice)
		if f := m.Fault(); f != nil {
			t.Errorf("%s: step %d (%s) faults on replay: %v", name, i+1, st.Desc, f)
			return
		}
	}
	if start < 0 || !strings.HasSuffix(trace[len(trace)-1].Desc, "(closes the cycle)") {
		t.Errorf("%s: the counterexample does not mark where its cycle starts and closes", name)
		return
	}
	if _, key := m.SaveKey(nil, nil); string(key) != string(startKey) {
		t.Errorf("%s: the cycle ends in another state than the one it starts from", name)
	}
}

// hasCycle reports whether the graph has a cycle of edges on channels
// progress does not mark, by a depth-first search from every state.
func (g replayGraph) hasCycle(progress []bool) bool {
	succ := make([][]int, g.states)
	for _, e := range g.edges {
		if !progress[e.ch] {
			succ[e.from] = append(succ[e.from], e.to)
		}
	}
	color := make([]int, g.states) // 0 unvisited, 1 on the path, 2 done
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = 1
		for _, w := range succ[v] {
			if color[w] == 1 || color[w] == 0 && visit(w) {
				return true
			}
		}
		color[v] = 2
		return false
	}
	for v := range succ {
		if color[v] == 0 && visit(v) {
			return true
		}
	}
	return false
}
