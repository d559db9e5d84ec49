package vmmc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"esplang/internal/nic"
	"esplang/internal/obs"
)

// TestTracePingPongEquivalence checks the observability layer's core
// contract on the full testbed: attaching the tracer, profiler, and
// metrics must not change what the simulation computes.
func TestTracePingPongEquivalence(t *testing.T) {
	for _, flavor := range []Flavor{ESP, Orig} {
		plain, err := PingPong(flavor, nic.DefaultConfig(), 1024, 4)
		if err != nil {
			t.Fatalf("%s: plain: %v", flavor, err)
		}
		traced, _, _, _, err := TracePingPong(flavor, nic.DefaultConfig(), 1024, 4)
		if err != nil {
			t.Fatalf("%s: traced: %v", flavor, err)
		}
		if plain != traced {
			t.Errorf("%s: latency changed under tracing: %v ns plain, %v ns traced",
				flavor, plain, traced)
		}
	}
}

// TestTracePingPongTrace checks the trace itself: valid Chrome JSON,
// hardware tracks for both NICs, and (ESP flavor) process tracks and
// rendezvous events from both firmware VMs without track collisions.
func TestTracePingPongTrace(t *testing.T) {
	_, tr, prof, reg, err := TracePingPong(ESP, nic.DefaultConfig(), 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	// Hardware spans, process spans, rendezvous, polls, heap counters and
	// track-name metadata of both NICs at 1024 B × 4 rounds.
	if n != 1416 {
		t.Errorf("trace has %d events, want 1416", n)
	}
	for _, want := range []string{"nic0 hostDMA", "nic1 sendDMA", "recvDMA", "vmmcESP run"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace missing %q", want)
		}
	}

	// Each firmware VM's heap has its own live-object series. Merged into
	// one, the two heaps' samples interleave into steps no single heap
	// can take; per machine, every alloc or free moves the count by one.
	var f struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args struct{ Live int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	series := map[string][]int{}
	for _, e := range f.TraceEvents {
		if e.Ph == "C" {
			series[e.Name] = append(series[e.Name], e.Args.Live)
		}
	}
	if n := len(series["heap live objects"]); n != 0 {
		t.Errorf("trace has %d samples of an unprefixed heap series shared by both machines", n)
	}
	for _, name := range []string{"nic0 heap live objects", "nic1 heap live objects"} {
		s := series[name]
		if len(s) == 0 {
			t.Errorf("trace has no %q series", name)
		}
		for i := 1; i < len(s); i++ {
			if d := s[i] - s[i-1]; d != 1 && d != -1 {
				t.Errorf("%s: sample %d steps %d -> %d, want a step of 1", name, i, s[i-1], s[i])
				break
			}
		}
	}

	if prof.TotalCycles() == 0 {
		t.Error("profiler recorded no cycles")
	}
	snap := reg.Snapshot()
	if snap.Counters["sim_events_total"] == 0 {
		t.Error("sim_events_total not collected")
	}
	if len(snap.Counters) == 0 {
		t.Error("no VM counters collected")
	}
}
