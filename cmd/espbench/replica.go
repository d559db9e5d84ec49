package main

import (
	"fmt"

	esplang "esplang"
	"esplang/internal/vm"
)

// replicaBFS explores prog's state space with the same public vm calls,
// in the same order, as mc.Check's expansion loop at Workers: 1 with no
// reduction: restore the parent snapshot, fire one communication, encode
// the successor, and — for a new state — enumerate its communications
// and save it. Each call is a span, which is how the checker's time is
// split across those layers without instrumenting mc. The visited set is
// a Go map instead of mc's sharded set. It returns the number of distinct
// states (which must equal mc.Check's) and the total key bytes.
//
// The replica is for models that pass: a fault or a stuck state is an
// error here.
func replicaBFS(prog *esplang.Program, maxLive int, tr *tracer) (states int, keyBytes int64, err error) {
	newMachine := func() *vm.Machine {
		m := vm.New(prog.IR, vm.Config{Manual: true, MaxLiveObjects: maxLive})
		m.Cost = vm.ZeroCostModel()
		return m
	}
	type node struct {
		snap  *vm.SavedState
		comms []vm.CommChoice
	}

	m0 := newMachine()
	m0.Settle()
	if f := m0.Fault(); f != nil {
		return 0, 0, fmt.Errorf("initial state faults: %v", f)
	}
	key0 := m0.EncodeState()
	visited := map[string]struct{}{key0: {}}
	keyBytes = int64(len(key0))
	queue := []node{{snap: m0.Save(nil), comms: m0.EnabledComms()}}

	m := newMachine()
	var free []*vm.SavedState // snapshots of expanded states, for reuse as in mc
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		queue[head] = node{}
		for _, c := range n.comms {
			tr.begin("vm.restore")
			m.RestoreState(n.snap)
			tr.end()
			tr.begin("vm.fire")
			m.FireComm(c)
			tr.end()
			if f := m.Fault(); f != nil {
				return 0, 0, fmt.Errorf("fault: %v", f)
			}
			tr.begin("vm.encode")
			key := m.EncodeState()
			tr.end()
			if _, seen := visited[key]; seen {
				continue
			}
			visited[key] = struct{}{}
			keyBytes += int64(len(key))
			tr.begin("vm.enabled")
			comms := m.EnabledComms()
			tr.end()
			if len(comms) == 0 {
				if !m.AllHalted() && !m.AtRest() {
					return 0, 0, fmt.Errorf("deadlock")
				}
				continue
			}
			var dst *vm.SavedState
			if k := len(free); k > 0 {
				dst, free = free[k-1], free[:k-1]
			}
			tr.begin("vm.save")
			snap := m.Save(dst)
			tr.end()
			queue = append(queue, node{snap: snap, comms: comms})
		}
		free = append(free, n.snap)
	}
	return len(visited), keyBytes, nil
}
