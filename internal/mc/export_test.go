package mc

import (
	"fmt"
	"testing"

	"esplang/internal/ir"
)

// CheckCollapse runs Check's frontier search at Workers: 1 with the
// collapse store checked against a map reference on every TryAdd: the
// store must admit exactly the keys the reference admits, in the same
// order, return the first handle for every repeat, and give back each
// admitted key from its segments. It returns the search result, the
// number of keys fed, and the first disagreement.
func CheckCollapse(prog *ir.Program, opts Options) (*Result, int, error) {
	opts.Mode, opts.Workers = Exhaustive, 1
	opts.fill()
	c := &checkedSet{collapseSet: newCollapseSet(1 + len(prog.Procs)), seen: map[string]stateRef{}}
	res := &Result{Mode: opts.Mode, Workers: opts.Workers}
	searchFrontier(prog, opts, c, res)
	return res, c.keys, c.err
}

type checkedSet struct {
	*collapseSet
	seen map[string]stateRef
	keys int
	err  error
	back keyScratch
}

func (c *checkedSet) TryAdd(sc *keyScratch, key []byte, ends []int32) (stateRef, bool) {
	ref, added := c.collapseSet.TryAdd(sc, key, ends)
	c.keys++
	prev, seen := c.seen[string(key)]
	if added {
		c.seen[string(key)] = ref
		c.collapseSet.Parent(&c.back, ref)
	}
	if c.err != nil {
		return ref, added
	}
	switch {
	case added == seen:
		c.err = fmt.Errorf("key %d: store admitted %v, reference had seen it %v", c.keys, added, seen)
	case seen && ref != prev:
		c.err = fmt.Errorf("key %d: handle %#x, first admitted as %#x", c.keys, ref, prev)
	case added && string(c.back.key) != string(key):
		c.err = fmt.Errorf("key %d: segments give back a different key (%d bytes, admitted %d)",
			c.keys, len(c.back.key), len(key))
	}
	return ref, added
}

// AmpleOrderAllocs returns the allocations of one ample-set selection on
// prog's initial state once the worker's scratch is warm, with the
// ample prefix length and the number of enabled communications.
func AmpleOrderAllocs(prog *ir.Program) (allocs float64, ample, full int) {
	opts := Options{Workers: 1, Reduction: AmpleSets}
	opts.fill()
	s := &search{opts: opts, prog: prog, reduce: true, ind: independence(prog)}
	m := newMachine(prog, opts)
	m.Settle()
	comms := m.EnabledComms()
	w := &worker{}
	ample = s.ampleOrder(w, m, comms)
	allocs = testing.AllocsPerRun(100, func() { s.ampleOrder(w, m, comms) })
	return allocs, ample, len(comms)
}
