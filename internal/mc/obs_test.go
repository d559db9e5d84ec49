package mc_test

import (
	"os"
	"testing"
	"time"

	"esplang/internal/mc"
	"esplang/internal/obs"
)

const pipelineSrc = `
channel c: int
process producer { $i = 0; while (i < 4) { out( c, i); i = i + 1; } }
process consumer { $n = 0; while (n < 4) { in( c, $v); assert( v == n); n = n + 1; } }
`

// TestProgressCallback checks the periodic-progress plumbing: the search
// always delivers a final sample reflecting the finished counters, and
// the metrics registry carries the same numbers.
func TestProgressCallback(t *testing.T) {
	prog := compileSrc(t, pipelineSrc)
	reg := obs.NewMetrics()
	var samples []mc.ProgressInfo
	opts := mc.Options{
		Workers:          1,
		Progress:         func(info mc.ProgressInfo) { samples = append(samples, info) },
		ProgressInterval: time.Millisecond,
		Metrics:          reg,
	}
	res := mc.Check(prog, opts)
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if len(samples) == 0 {
		t.Fatal("no progress samples delivered")
	}
	last := samples[len(samples)-1]
	if !last.Final {
		t.Error("last sample not marked final")
	}
	if int(last.States) != res.States {
		t.Errorf("final sample reports %d states, result says %d", last.States, res.States)
	}
	if int(last.Transitions) != res.Transitions {
		t.Errorf("final sample reports %d transitions, result says %d", last.Transitions, res.Transitions)
	}
	if last.Frontier != 0 {
		t.Errorf("final sample reports frontier %d, want 0", last.Frontier)
	}
	if s := last.String(); s == "" {
		t.Error("empty progress string")
	}

	snap := reg.Snapshot()
	if snap.Gauges["mc_states"] != last.States {
		t.Errorf("mc_states gauge %d, want %d", snap.Gauges["mc_states"], last.States)
	}
	if snap.Gauges["mc_transitions"] != last.Transitions {
		t.Errorf("mc_transitions gauge %d, want %d", snap.Gauges["mc_transitions"], last.Transitions)
	}
	if snap.Histograms["mc_frontier_depth"].Count == 0 {
		t.Error("mc_frontier_depth histogram empty")
	}
}

// TestProgressSimulationMode checks the synthetic final sample emitted by
// simulation mode.
func TestProgressSimulationMode(t *testing.T) {
	prog := compileSrc(t, pipelineSrc)
	var samples []mc.ProgressInfo
	res := mc.Check(prog, mc.Options{
		Mode:     mc.Simulation,
		SimRuns:  5,
		Progress: func(info mc.ProgressInfo) { samples = append(samples, info) },
	})
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if len(samples) != 1 || !samples[0].Final {
		t.Fatalf("want exactly one final sample, got %d", len(samples))
	}
	if int(samples[0].States) != res.States {
		t.Errorf("sample reports %d states, result says %d", samples[0].States, res.States)
	}
}

// TestProgressDoesNotChangeResult checks observation independence on the
// checker: the same search with and without progress/metrics attached
// visits the same states (Workers: 1 is fully deterministic).
func TestProgressDoesNotChangeResult(t *testing.T) {
	prog := compileSrc(t, pipelineSrc)
	plain := mc.Check(prog, mc.Options{Workers: 1})
	observed := mc.Check(prog, mc.Options{
		Workers:          1,
		Progress:         func(mc.ProgressInfo) {},
		ProgressInterval: time.Millisecond,
		Metrics:          obs.NewMetrics(),
	})
	if plain.States != observed.States || plain.Transitions != observed.Transitions ||
		plain.MaxDepth != observed.MaxDepth {
		t.Errorf("search differs under observation: %d/%d/%d plain, %d/%d/%d observed",
			plain.States, plain.Transitions, plain.MaxDepth,
			observed.States, observed.Transitions, observed.MaxDepth)
	}
}

// TestFinalProgressSampleRate: the final sample's rate counts every
// state the search admitted after the initial one, even when the search
// ends before the sampler goroutine gets to run.
func TestFinalProgressSampleRate(t *testing.T) {
	src, err := os.ReadFile("../../testdata/pipeline.esp")
	if err != nil {
		t.Fatal(err)
	}
	prog := compileSrc(t, string(src))
	for run := 0; run < 20; run++ {
		var final *mc.ProgressInfo
		res := mc.Check(prog, mc.Options{
			Workers:          1,
			EndRecvOK:        true,
			ProgressInterval: time.Hour,
			Progress: func(info mc.ProgressInfo) {
				if info.Final {
					final = &info
				}
			},
		})
		if res.Violation != nil || res.States < 2 {
			t.Fatalf("verdict %v with %d states, want a pass over more than one state", res.Violation, res.States)
		}
		if final == nil {
			t.Fatal("no final sample")
		}
		if final.StatesPerSec <= 0 {
			t.Fatalf("run %d: final sample reads %v states/s after %d states", run, final.StatesPerSec, final.States)
		}
	}
}
