package vmmc

import (
	"testing"

	esplang "esplang"
	"esplang/internal/nic"
)

// TestCheckerCountsPinned pins the checker's exact state and transition
// counts on the §5.3 models. At Workers: 1 the search is deterministic,
// so any change to the visited-state key, the POR closure, or the search
// order that alters what counts as a distinct state shows up here.
func TestCheckerCountsPinned(t *testing.T) {
	cfg := nic.DefaultConfig()
	full := esplang.VerifyOptions{Workers: 1}
	por := esplang.VerifyOptions{Workers: 1, Reduction: esplang.AmpleSets}
	for _, tc := range []struct {
		name                string
		run                 func() (*esplang.VerifyResult, error)
		states, transitions int
	}{
		{"firmware/msgs=3", func() (*esplang.VerifyResult, error) { return VerifyFirmware(cfg, 3, full) }, 16550, 39290},
		{"two-node/msgs=3", func() (*esplang.VerifyResult, error) { return VerifyTwoNode(cfg, 3, full) }, 5482, 15328},
		{"firmware/msgs=4/por", func() (*esplang.VerifyResult, error) { return VerifyFirmware(cfg, 4, por) }, 30625, 41072},
		{"two-node/msgs=6/por", func() (*esplang.VerifyResult, error) { return VerifyTwoNode(cfg, 6, por) }, 3568, 5592},
	} {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Violation != nil || res.Truncated {
			t.Errorf("%s: violation %v, truncated %v; want a complete pass", tc.name, res.Violation, res.Truncated)
		}
		if res.States != tc.states || res.Transitions != tc.transitions {
			t.Errorf("%s: %d states / %d transitions, want %d / %d",
				tc.name, res.States, res.Transitions, tc.states, tc.transitions)
		}
	}
}

// TestBitstateDeterministic: a bit-state search at Workers: 1 with a
// table small enough to collide reports the same counts on every run,
// so the visited-key hash carries no per-process seed or map order.
func TestBitstateDeterministic(t *testing.T) {
	opts := esplang.VerifyOptions{Workers: 1, Mode: esplang.BitState, BitstateBits: 14}
	var first *esplang.VerifyResult
	for run := 0; run < 2; run++ {
		res, err := VerifyFirmware(nic.DefaultConfig(), 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("bitstate run violates: %v", res.Violation)
		}
		if res.States <= 0 || res.States > 16550 {
			t.Fatalf("bitstate run found %d states; the exhaustive search finds 16550", res.States)
		}
		if first == nil {
			first = res
		} else if res.States != first.States || res.Transitions != first.Transitions {
			t.Errorf("run 2: %d states / %d transitions, run 1: %d / %d",
				res.States, res.Transitions, first.States, first.Transitions)
		}
	}
}
