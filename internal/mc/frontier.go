package mc

import (
	"sync"
	"sync/atomic"
	"time"

	"esplang/internal/analysis"
	"esplang/internal/ir"
	"esplang/internal/obs"
	"esplang/internal/vm"
)

// Parallel frontier search — the engine behind Exhaustive and BitState
// modes and behind CheckProgress. A pool of Options.Workers goroutines
// expands a shared FIFO of unexpanded states.
//
// Each worker owns one machine for the whole search and replays frontier
// states into it with vm.RestoreState; Options.Engine only chooses that
// machine's interpreter loop. The first restore of a state is in full
// and makes its snapshot the machine's base; every sibling restore
// rebuilds only the processes the previous transition touched. Every
// successor is captured by one vm.SaveKey pass into the worker's scratch
// snapshot, which also yields its visited-set key and the key's
// per-process segments; the pass walks only the touched processes and
// copies the other segments' bytes from the base. The collapse store
// (shard.go) reuses the expanded state's segment IDs for the copied and
// the unchanged segments, interns only the changed ones, and admits the
// state as a vector of segment IDs. The scratch snapshot of an admitted
// state is completed (the copied processes' arenas are filled in from
// the base) and becomes its frontier snapshot, and an expanded node
// returns to a pool with its snapshot arenas and communication buffer.
// A discovered state thus costs one compact vm.SavedState while it sits
// on the frontier and one ID vector forever — no full key is stored.
//
// Counterexamples are kept as compact parent chains (one CommChoice and
// one pointer per state) and materialized by replaying the choices from
// the initial machine, so memory is O(frontier + visited states ×
// processes) plus the distinct segments, each stored once.
//
// With Workers: 1 the search is a deterministic breadth-first traversal:
// states are expanded in FIFO order and successors generated in
// EnabledComms order, so every counter, the verdict, and the trace are
// bit-for-bit reproducible. Any worker count visits the same state set
// and reports the same States count (the visited set's TryAdd admits each
// state exactly once); only which of several violations is reported first
// can vary. The one exception is Options.Reduction with Workers > 1: the
// cycle-proviso decision reads the racy visited set, so the reduced
// search's state count can vary slightly between runs (always a superset
// of the sequential reduced search — verdicts are unaffected).
//
// With Options.Reduction: AmpleSets each node additionally carries the
// length of its ample prefix (see por.go); expansion fires only that
// prefix unless every ample successor is already closed (its expansion
// has started), in which case the cycle proviso expands the remainder
// too. A not-yet-closed successor is a sound deferral witness: it is
// expanded strictly later, so following witnesses visits distinct states
// in increasing expansion order and must end at a state that either
// fires the deferred transitions or expands in full.

// pathNode is one link of a counterexample parent chain: the
// communication that produced a state, plus the chain that produced its
// parent. Frontier nodes share tails, so reconstruction costs one small
// node per live ancestor instead of a retained machine per search level.
type pathNode struct {
	choice vm.CommChoice
	parent *pathNode
}

// choices materializes the root-to-here choice sequence.
func (p *pathNode) choices() []vm.CommChoice {
	n := 0
	for q := p; q != nil; q = q.parent {
		n++
	}
	out := make([]vm.CommChoice, n)
	for q := p; q != nil; q = q.parent {
		n--
		out[n] = q.choice
	}
	return out
}

// node is one frontier entry: a quiescent state's snapshot, its enabled
// communications (computed once, at discovery), the parent chain that
// reached it, and its depth in transitions from the initial state.
type node struct {
	snap  *vm.SavedState
	comms []vm.CommChoice
	path  *pathNode
	depth int
	// ample is the length of the ample prefix of comms (== len(comms)
	// when the state is expanded in full; see por.go).
	ample int
	// ref is the state's visited-set handle: expansion marks it closed
	// for the cycle proviso and loads its segments to compare successors
	// against.
	ref stateRef
}

// frontier is the shared work queue: a FIFO of unexpanded nodes plus an
// in-flight count for termination detection. pop blocks until a node is
// available, every node has been fully expanded (pending == 0), or the
// search was shut down early (violation found or state bound reached).
//
// The search is level-synchronous: pop hands out a node one level deeper
// only when no node of the current level is still expanding. Every
// state is then first admitted from a parent at the least depth, so its
// depth, Result.MaxDepth and the states a MaxDepth bound cuts do not
// depend on how the workers interleave. With one worker the FIFO order
// is already breadth-first.
type frontier struct {
	mu        sync.Mutex
	cond      sync.Cond
	queue     []*node
	head      int
	pending   int // queued + currently-expanding nodes
	expanding int // popped nodes not yet done, all at depth level
	level     int
	closed    bool
}

func (f *frontier) push(n *node) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.pending++
	f.queue = append(f.queue, n)
	f.mu.Unlock()
	f.cond.Signal()
}

func (f *frontier) pop() *node {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil
		}
		if f.head < len(f.queue) && (f.expanding == 0 || f.queue[f.head].depth == f.level) {
			n := f.queue[f.head]
			f.queue[f.head] = nil
			f.head++
			if f.head > 64 && f.head*2 >= len(f.queue) {
				f.queue = append(f.queue[:0], f.queue[f.head:]...)
				f.head = 0
			}
			f.level = n.depth
			f.expanding++
			return n
		}
		if f.pending == 0 {
			return nil
		}
		f.cond.Wait()
	}
}

// done marks one popped node fully expanded. The last node of a level
// releases the workers waiting to start the next.
func (f *frontier) done() {
	f.mu.Lock()
	f.pending--
	f.expanding--
	wake := f.pending == 0 || f.expanding == 0
	f.mu.Unlock()
	if wake {
		f.cond.Broadcast()
	}
}

func (f *frontier) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// size returns the number of queued (unexpanded) nodes.
func (f *frontier) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue) - f.head
}

// foundViolation is the compact record of the first violation: the parent
// chain plus the final choice, replayed into a full trace after the
// workers stop.
type foundViolation struct {
	parent   *pathNode
	last     vm.CommChoice
	fault    *vm.Fault
	deadlock bool
}

// search is the shared state of one frontier search.
type search struct {
	opts    Options
	prog    *ir.Program
	visited visitedSet
	front   frontier

	// reduce enables the ample-set partial-order reduction; ind is the
	// static independence table it selects ample sets from, computed from
	// the program's code when the search starts.
	reduce bool
	ind    *ir.Independence

	// nodePool recycles fully expanded nodes with their snapshot arenas
	// and communication buffers: in steady state a new frontier entry
	// reuses a retired one, so state discovery stops allocating.
	nodePool sync.Pool

	states      atomic.Int64
	transitions atomic.Int64
	maxDepth    atomic.Int64
	truncated   atomic.Bool
	stop        atomic.Bool

	// Reduction counters (see PORStats).
	porAmple    atomic.Int64
	porFull     atomic.Int64
	porFallback atomic.Int64
	porDeferred atomic.Int64

	vioMu sync.Mutex
	vio   *foundViolation

	// progress marks the progress channels by ID in a progress search
	// (progress.go) and is nil in a safety search. A progress search's
	// workers log every transition they fire and hand their logs over
	// in edges when they stop.
	progress []bool
	edgeMu   sync.Mutex
	edges    [][]edge
}

// newVisitedSet returns the visited set for opts.Mode: the bit array, or
// the collapse store with one slot for the live-object count and one per
// process.
func newVisitedSet(prog *ir.Program, opts Options) visitedSet {
	if opts.Mode == BitState {
		return newShardedBitSet(opts.BitstateBits)
	}
	return newCollapseSet(1 + len(prog.Procs))
}

// searchFrontier runs the Exhaustive/BitState search over visited and
// fills res. A non-nil progress makes it a progress search: after the
// search it looks for a cycle of transitions on no channel progress marks.
func searchFrontier(prog *ir.Program, opts Options, visited visitedSet, progress []bool, res *Result) {
	m0 := newMachine(prog, opts)
	m0.Settle()
	if f := m0.Fault(); f != nil {
		// Faults before any communication: replay with no choices to get
		// the postmortem of the initial settle.
		_, pm := replayTrace(prog, opts, nil)
		res.Violation = &Violation{Fault: f, Postmortem: pm}
		return
	}
	snap0, kb0 := m0.SaveKey(nil, nil)
	w0 := &worker{}
	ref0, _ := visited.TryAdd(&w0.keys, kb0, snap0.KeySegments(), nil)
	res.States = 1
	res.MemBytes = visited.MemBytes()

	comms0 := m0.EnabledComms()
	if len(comms0) == 0 {
		if stuck(m0, opts) {
			_, pm := replayTrace(prog, opts, nil)
			res.Violation = &Violation{Deadlock: true, Postmortem: pm}
		}
		return
	}

	s := &search{opts: opts, prog: prog, visited: visited, progress: progress}
	s.front.cond.L = &s.front.mu
	s.states.Store(1)
	if opts.Reduction == AmpleSets {
		s.reduce = true
		s.ind = analysis.ComputeIndependence(prog)
	}
	ample0 := s.ampleOrder(w0, m0, comms0)
	s.front.push(&node{snap: snap0, comms: comms0, ample: ample0, ref: ref0})

	// Periodic progress sampling runs beside the workers; the final sample
	// (Final: true) is taken after they stop, so it reflects the finished
	// counters. The first rate is measured from the start time and state
	// count read here, before any worker runs.
	var progDone chan struct{}
	if opts.Progress != nil || opts.Metrics != nil {
		progDone = make(chan struct{})
		go s.progressLoop(time.Now(), s.states.Load(), progDone)
	}
	var wg sync.WaitGroup
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker()
		}()
	}
	wg.Wait()
	if progDone != nil {
		progDone <- struct{}{} // request the final sample
		<-progDone             // wait until it was delivered
	}

	res.States = int(s.states.Load())
	res.Transitions = int(s.transitions.Load())
	res.MaxDepth = int(s.maxDepth.Load())
	res.Truncated = s.truncated.Load()
	res.MemBytes = visited.MemBytes()
	if s.reduce {
		res.POR = &PORStats{
			AmpleStates:         s.porAmple.Load(),
			FullStates:          s.porFull.Load(),
			ProvisoFallbacks:    s.porFallback.Load(),
			DeferredTransitions: s.porDeferred.Load(),
		}
	}
	if s.vio != nil {
		choices := append(s.vio.parent.choices(), s.vio.last)
		trace, pm := replayTrace(prog, opts, choices)
		res.Violation = &Violation{
			Fault:      s.vio.fault,
			Deadlock:   s.vio.deadlock,
			Trace:      trace,
			Postmortem: pm,
		}
	} else if progress != nil {
		res.Violation = s.nonProgressCycle()
	}
}

// progressLoop samples the search counters every ProgressInterval,
// feeding the Progress callback and the Metrics registry; start and
// startStates are the time and state count the first rate is measured
// from. A send on done requests one final sample; the loop replies on
// the same channel when it has been delivered.
func (s *search) progressLoop(start time.Time, startStates int64, done chan struct{}) {
	interval := s.opts.ProgressInterval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	var gStates, gTrans, gFront, gMem, gRate *obs.Gauge
	var gPorAmple, gPorFull, gPorFallback, gPorDeferred *obs.Gauge
	var hFront *obs.Histogram
	if reg := s.opts.Metrics; reg != nil {
		gStates = reg.Gauge("mc_states")
		gTrans = reg.Gauge("mc_transitions")
		gFront = reg.Gauge("mc_frontier")
		gMem = reg.Gauge("mc_mem_bytes")
		gRate = reg.Gauge("mc_states_per_sec")
		hFront = reg.Histogram("mc_frontier_depth")
		if s.reduce {
			gPorAmple = reg.Gauge("mc_por_ample_states")
			gPorFull = reg.Gauge("mc_por_full_states")
			gPorFallback = reg.Gauge("mc_por_proviso_fallbacks")
			gPorDeferred = reg.Gauge("mc_por_deferred_transitions")
		}
	}

	prevStates, prevT := startStates, start
	emit := func(final bool) {
		now := time.Now()
		states := s.states.Load()
		info := ProgressInfo{
			States:      states,
			Transitions: s.transitions.Load(),
			Frontier:    s.front.size(),
			MaxDepth:    s.maxDepth.Load(),
			MemBytes:    s.visited.MemBytes(),
			Elapsed:     now.Sub(start),
			MaxStates:   s.opts.MaxStates,
			Final:       final,
		}
		if dt := now.Sub(prevT).Seconds(); dt > 0 {
			info.StatesPerSec = float64(states-prevStates) / dt
		}
		prevStates, prevT = states, now
		if s.opts.Metrics != nil {
			gStates.Set(info.States)
			gTrans.Set(info.Transitions)
			gFront.Set(int64(info.Frontier))
			gMem.Set(info.MemBytes)
			gRate.Set(int64(info.StatesPerSec))
			hFront.Observe(int64(info.Frontier))
			if s.reduce {
				gPorAmple.Set(s.porAmple.Load())
				gPorFull.Set(s.porFull.Load())
				gPorFallback.Set(s.porFallback.Load())
				gPorDeferred.Set(s.porDeferred.Load())
			}
		}
		if s.opts.Progress != nil {
			s.opts.Progress(info)
		}
	}

	for {
		select {
		case <-ticker.C:
			emit(false)
		case <-done:
			emit(true)
			done <- struct{}{}
			return
		}
	}
}

// worker is one search goroutine's private state: the machine it
// replays frontier snapshots into, the scratch snapshot the next
// successor is saved into, the key and communication buffers, the
// visited set's scratch, the ample-set closure's, and in a progress
// search the transitions it fired.
type worker struct {
	m     *vm.Machine
	snap  *vm.SavedState
	kb    []byte
	comms []vm.CommChoice
	keys  keyScratch
	ample ampleScratch
	edges []edge
}

func (s *search) worker() {
	// Each worker owns one machine for the whole search — no
	// per-transition machine allocation.
	w := &worker{m: newMachine(s.prog, s.opts)}
	for {
		n := s.front.pop()
		if n == nil {
			if s.progress != nil {
				s.edgeMu.Lock()
				s.edges = append(s.edges, w.edges)
				s.edgeMu.Unlock()
			}
			return
		}
		s.expand(w, n)
		s.front.done()
	}
}

// noteAmple starts a node's expansion under reduction: it normalizes the
// ample prefix, counts it toward the reduction statistics, and marks the
// state closed — from here on it can no longer serve as another ample
// set's deferral witness (see the cycle proviso in expand). The second
// result seeds the expansion's witness counter. A prefix covering every
// communication means the state is expanded in full.
func (s *search) noteAmple(n *node) (limit, witness int) {
	limit = n.ample
	if limit <= 0 || limit > len(n.comms) {
		limit = len(n.comms)
	}
	if s.reduce {
		s.visited.MarkClosed(n.ref)
		if limit < len(n.comms) {
			s.porAmple.Add(1)
		} else {
			s.porFull.Add(1)
		}
	}
	return limit, 0
}

// expand fires every enabled communication of n, recording newly
// discovered states and enqueueing them for expansion. Each transition
// starts from n's state, restored from its snapshot into the worker's
// machine.
func (s *search) expand(w *worker, n *node) {
	limit, witness := s.noteAmple(n)
	s.visited.Parent(&w.keys, n.ref)
	for i, c := range n.comms {
		if i == limit {
			if witness > 0 {
				s.porDeferred.Add(int64(len(n.comms) - limit))
				break
			}
			// Cycle proviso: every ample successor was already closed
			// (expanded or expanding); expand the deferred remainder too
			// so no transition is ignored forever around a cycle.
			s.porFallback.Add(1)
		}
		if s.stop.Load() {
			return
		}
		m := w.m
		m.RestoreState(n.snap)
		m.FireComm(c)
		s.transitions.Add(1)

		if f := m.Fault(); f != nil {
			// The faulting transition was encountered even though its target
			// state is never admitted — count it toward MaxDepth so the
			// reported depth matches simulation mode on the same path.
			s.observeDepth(n.depth + 1)
			s.violate(n.path, c, f, false)
			return
		}
		// One pass saves the successor into the scratch snapshot and
		// builds its key, walking only the processes the transition
		// touched; only its ID vector is stored, and only if the state is
		// new.
		w.snap, w.kb = m.SaveKey(w.snap, w.kb[:0])
		ref, added := s.visited.TryAdd(&w.keys, w.kb, w.snap.KeySegments(), w.snap.Copied())
		if s.progress != nil {
			w.edges = append(w.edges, edge{from: n.ref, to: ref, comm: uint32(i), progress: s.progress[c.Chan], tree: added})
		}
		if !added {
			if s.reduce && i < limit && !s.visited.Closed(ref) {
				witness++
			}
			continue
		}
		witness++
		// Reserve a slot under the state bound before counting the state;
		// the instant the bound is reached the whole search shuts down —
		// it does not keep firing transitions into states it will never
		// record.
		if got := s.states.Add(1); got > int64(s.opts.MaxStates) {
			s.states.Add(-1)
			s.truncated.Store(true)
			s.shutdown()
			return
		}
		d := n.depth + 1
		s.observeDepth(d)

		// Enumerate into the worker's buffer; only a frontier node keeps
		// a copy.
		w.comms = m.AppendEnabledComms(w.comms[:0])
		if len(w.comms) == 0 {
			if stuck(m, s.opts) {
				s.violate(n.path, c, nil, true)
				return
			}
			continue
		}
		if d >= s.opts.MaxDepth {
			s.truncated.Store(true)
			continue
		}
		n2, _ := s.nodePool.Get().(*node)
		if n2 == nil {
			n2 = &node{}
		}
		n2.comms = append(n2.comms[:0], w.comms...)
		n2.path = &pathNode{choice: c, parent: n.path}
		n2.depth = d
		n2.ample = s.ampleOrder(w, m, n2.comms)
		n2.ref = ref
		// The scratch snapshot becomes the frontier snapshot; the next
		// successor saves into the recycled node's. It is completed
		// first: another worker may pop it, and n's snapshot, which its
		// untouched processes are copied from, is recycled once n is
		// expanded.
		w.snap.Complete()
		n2.snap, w.snap = w.snap, n2.snap
		s.front.push(n2)
	}
	// Every communication was fired from n's state; recycle the node.
	// (The early returns above skip this — a shutting-down search doesn't
	// need the pool, and the GC reclaims those nodes.)
	n.path = nil
	s.nodePool.Put(n)
}

// violate records the violation (first writer wins) and shuts the search
// down.
func (s *search) violate(parent *pathNode, c vm.CommChoice, f *vm.Fault, deadlock bool) {
	s.vioMu.Lock()
	if s.vio == nil {
		s.vio = &foundViolation{parent: parent, last: c, fault: f, deadlock: deadlock}
	}
	s.vioMu.Unlock()
	s.shutdown()
}

func (s *search) shutdown() {
	s.stop.Store(true)
	s.front.close()
}

func (s *search) observeDepth(d int) {
	for {
		cur := s.maxDepth.Load()
		if int64(d) <= cur || s.maxDepth.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// replayTrace rebuilds a counterexample by replaying the recorded choice
// sequence from a fresh initial machine — execution between blocking
// points is deterministic, so the replay passes through exactly the
// states the search saw (vm.Machine.ReplayComms is the same loop without
// the per-step bookkeeping).
// A flight recorder rides along on the replay machine, so every
// counterexample comes with a postmortem of the events leading into the
// violation — the search itself stays recorder-free.
func replayTrace(prog *ir.Program, opts Options, choices []vm.CommChoice) ([]TraceStep, string) {
	m := newMachine(prog, opts)
	m.SetRecorder(obs.NewFlightRecorder(0))
	m.Settle()
	steps := make([]TraceStep, 0, len(choices))
	for _, c := range choices {
		steps = append(steps, newStep(m, prog, c))
		m.FireComm(c)
	}
	return steps, m.Postmortem(obs.PostmortemEvents)
}
