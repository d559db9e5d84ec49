package main

import (
	"fmt"
	"time"

	esplang "esplang"
	"esplang/internal/vm"
	"esplang/internal/vmmc"
)

// A verifyCheck is one model-checker run with a known answer: the exact
// state and transition counts (deterministic at Workers: 1) and the
// verdict (vm.FaultNone for a pass).
type verifyCheck struct {
	name        string
	run         func(esplang.VerifyOptions) (*esplang.VerifyResult, error)
	states      int
	transitions int
	fault       vm.FaultKind
	// src and maxLive rebuild the model for the checker replica; only the
	// §5.3 firmware models (main) are replicated.
	src     func() string
	maxLive int
	main    bool
}

// vmmcMaxLive is the heap bound vmmc.VerifyFirmware and VerifyTwoNode
// apply when the options leave it zero.
const vmmcMaxLive = 64

func firmwareCheck(msgs, states, transitions int) verifyCheck {
	return verifyCheck{
		name: fmt.Sprintf("firmware/msgs=%d", msgs),
		run: func(o esplang.VerifyOptions) (*esplang.VerifyResult, error) {
			return vmmc.VerifyFirmware(fig5Cfg, msgs, o)
		},
		states: states, transitions: transitions,
		src:     func() string { return vmmc.FirmwareModel(fig5Cfg, msgs) },
		maxLive: vmmcMaxLive, main: true,
	}
}

func twoNodeCheck(msgs, states, transitions int) verifyCheck {
	return verifyCheck{
		name: fmt.Sprintf("two-node/msgs=%d", msgs),
		run: func(o esplang.VerifyOptions) (*esplang.VerifyResult, error) {
			return vmmc.VerifyTwoNode(fig5Cfg, msgs, o)
		},
		states: states, transitions: transitions,
		src:     func() string { return vmmc.TwoNodeModel(fig5Cfg, msgs) },
		maxLive: vmmcMaxLive, main: true,
	}
}

func memCheck(bug vmmc.MemBug, states, transitions int, fault vm.FaultKind) verifyCheck {
	return verifyCheck{
		name: "memsafety/" + bug.String(),
		run: func(o esplang.VerifyOptions) (*esplang.VerifyResult, error) {
			return vmmc.VerifyMemSafety(bug, o)
		},
		states: states, transitions: transitions, fault: fault,
		src: func() string { return vmmc.MemSafetyModel(bug) },
	}
}

func retransCheck(buggy bool, states, transitions int, fault vm.FaultKind) verifyCheck {
	name := "retrans/clean"
	if buggy {
		name = "retrans/buggy"
	}
	return verifyCheck{
		name: name,
		run: func(o esplang.VerifyOptions) (*esplang.VerifyResult, error) {
			return vmmc.VerifyRetrans(2, 3, buggy, o)
		},
		states: states, transitions: transitions, fault: fault,
		src: func() string { return vmmc.RetransModel(2, 3, buggy) },
	}
}

// verdictChecks are the known-verdict checks: the clean data-path and
// retransmission models pass, and every seeded memory bug and the buggy
// retransmission protocol are found (§5.3). The reduction leaves these
// small models' counts unchanged.
func verdictChecks() []verifyCheck {
	return []verifyCheck{
		memCheck(vmmc.BugNone, 161, 200, vm.FaultNone),
		memCheck(vmmc.BugLeak, 27, 29, vm.FaultOutOfObjects),
		memCheck(vmmc.BugUseAfterFree, 3, 3, vm.FaultUseAfterFree),
		memCheck(vmmc.BugDoubleFree, 3, 3, vm.FaultDoubleFree),
		retransCheck(false, 83, 126, vm.FaultNone),
		retransCheck(true, 13, 14, vm.FaultAssert),
	}
}

type verifyBench struct {
	seed    int64
	opts    esplang.VerifyOptions
	checks  []verifyCheck
	replica bool
	progs   []*esplang.Program // compiled models, parallel to checks

	// Totals over the traced operations.
	states, transitions, memBytes int64
	maxDepth                      int
	checkNs, mainCheckNs          int64
	por                           esplang.PORStats
}

// Workers: 1 throughout: the search is then deterministic, so state and
// transition counts are exact (at Workers: 2 the reduced search's count
// varies from run to run).
func setupVerifyFull(e env) (bench, error) {
	checks := append([]verifyCheck{
		firmwareCheck(3, 16550, 39290),
		twoNodeCheck(3, 5482, 15328),
	}, verdictChecks()...)
	return newVerifyBench(e, esplang.VerifyOptions{Workers: 1}, checks, true)
}

func setupVerifyPOR(e env) (bench, error) {
	checks := append([]verifyCheck{
		firmwareCheck(4, 30625, 41072),
		twoNodeCheck(6, 3568, 5592),
	}, verdictChecks()...)
	return newVerifyBench(e, esplang.VerifyOptions{Workers: 1, Reduction: esplang.AmpleSets}, checks, false)
}

// newVerifyBench compiles every model from source — what vmmc's Verify*
// functions do on their first call in a process, before their model
// cache takes over — and keeps the programs for the checker replica.
func newVerifyBench(e env, opts esplang.VerifyOptions, checks []verifyCheck, replica bool) (*verifyBench, error) {
	b := &verifyBench{seed: e.seed, opts: opts, checks: checks, replica: replica}
	for _, c := range checks {
		p, err := esplang.Compile(c.src(), esplang.CompileOptions{Name: c.name})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		b.progs = append(b.progs, p)
	}
	return b, nil
}

func (b *verifyBench) op(k int, tr *tracer, parts partTimes) error {
	for _, i := range opOrder(b.seed, k, len(b.checks)) {
		c := b.checks[i]
		t0 := time.Now()
		tr.begin("mc.check")
		res, err := c.run(b.opts)
		dur := tr.end()
		parts.done(c.name, t0)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if err := c.verify(res); err != nil {
			return err
		}
		if tr == nil {
			continue
		}
		b.states += int64(res.States)
		b.transitions += int64(res.Transitions)
		b.memBytes += res.MemBytes
		b.maxDepth = max(b.maxDepth, res.MaxDepth)
		b.checkNs += dur
		if c.main {
			b.mainCheckNs += dur
		}
		if p := res.POR; p != nil {
			b.por.AmpleStates += p.AmpleStates
			b.por.FullStates += p.FullStates
			b.por.ProvisoFallbacks += p.ProvisoFallbacks
			b.por.DeferredTransitions += p.DeferredTransitions
		}
	}
	return nil
}

// verify compares a result with the check's known answer.
func (c verifyCheck) verify(res *esplang.VerifyResult) error {
	got := vm.FaultNone
	if v := res.Violation; v != nil {
		if v.Fault == nil {
			return fmt.Errorf("%s: unexpected deadlock", c.name)
		}
		got = v.Fault.Kind
	}
	switch {
	case got != c.fault:
		return fmt.Errorf("%s: verdict %v, want %v", c.name, got, c.fault)
	case res.Truncated:
		return fmt.Errorf("%s: search truncated", c.name)
	case res.States != c.states:
		return fmt.Errorf("%s: %d states, want %d", c.name, res.States, c.states)
	case res.Transitions != c.transitions:
		return fmt.Errorf("%s: %d transitions, want %d", c.name, res.Transitions, c.transitions)
	}
	return nil
}

func (b *verifyBench) layers(tr *tracer, tracedOps int) (map[string]float64, error) {
	if tracedOps == 0 || b.states == 0 {
		return nil, fmt.Errorf("no traced checks")
	}
	ops := float64(tracedOps)
	states := float64(b.states)
	m := map[string]float64{
		"mc.states":                states / ops,
		"mc.transitions":           float64(b.transitions) / ops,
		"mc.max_depth":             float64(b.maxDepth),
		"mc.mem_bytes":             float64(b.memBytes) / ops,
		"mc.ns_per_state":          float64(b.checkNs) / states,
		"mc.bytes_per_state":       float64(b.memBytes) / states,
		"mc.por_ample_states":      float64(b.por.AmpleStates) / ops,
		"mc.por_full_states":       float64(b.por.FullStates) / ops,
		"mc.por_proviso_fallbacks": float64(b.por.ProvisoFallbacks) / ops,
		"mc.por_deferred":          float64(b.por.DeferredTransitions) / ops,
		"mc.por_hit_rate":          b.por.HitRate(),
	}
	if !b.replica {
		return m, nil
	}

	// The replica runs once, outside the operations, over the main models.
	var mainStates int
	var keyBytes int64
	for i, c := range b.checks {
		if !c.main {
			continue
		}
		tr.begin("bench.replica")
		n, kb, err := replicaBFS(b.progs[i], c.maxLive, tr)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("replica %s: %w", c.name, err)
		}
		if n != c.states {
			return nil, fmt.Errorf("replica %s: %d states, mc.Check %d", c.name, n, c.states)
		}
		mainStates += n
		keyBytes += kb
	}
	var vmNs int64
	for _, call := range []string{"restore", "fire", "encode", "enabled", "save"} {
		a := tr.agg("vm." + call)
		vmNs += a.totalNs
		if a.count > 0 {
			m["vm."+call+"_ns"] = float64(a.totalNs) / float64(a.count)
		}
	}
	m["vm.encode_bytes"] = float64(keyBytes) / float64(mainStates)
	m["mc.self_ns_per_state"] = (float64(b.mainCheckNs)/ops - float64(vmNs)) / float64(mainStates)
	return m, nil
}
