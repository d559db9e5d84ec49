package mc_test

import (
	"path/filepath"
	"testing"

	esplang "esplang"
	"esplang/internal/ir"
	"esplang/internal/mc"
	"esplang/internal/nic"
	"esplang/internal/vmmc"
)

// TestCollapseLossless: on every testdata program, the vet corpus, and
// the four §5.3 vmmc models, the collapse store admits exactly the keys a
// map of full keys admits, in the same order (mc.CheckCollapse checks
// every TryAdd of a Workers: 1 search).
func TestCollapseLossless(t *testing.T) {
	type model struct {
		name string
		prog *ir.Program
		opts mc.Options
	}
	var models []model
	files, _ := filepath.Glob("../../testdata/*.esp")
	vet, _ := filepath.Glob("../../testdata/vet/*.esp")
	if len(files) == 0 || len(vet) == 0 {
		t.Fatal("no testdata programs found")
	}
	for _, f := range append(files, vet...) {
		models = append(models, model{f, compileFileSrc(t, f),
			mc.Options{EndRecvOK: true, NoDeadlockCheck: true, MaxStates: 50_000}})
	}
	cfg := nic.DefaultConfig()
	for _, v := range []struct {
		name string
		src  string
		red  mc.Reduction
	}{
		{"firmware/msgs=3", vmmc.FirmwareModel(cfg, 3), mc.NoReduction},
		{"two-node/msgs=3", vmmc.TwoNodeModel(cfg, 3), mc.NoReduction},
		{"firmware/msgs=4/por", vmmc.FirmwareModel(cfg, 4), mc.AmpleSets},
		{"two-node/msgs=6/por", vmmc.TwoNodeModel(cfg, 6), mc.AmpleSets},
	} {
		p, err := esplang.Compile(v.src, esplang.CompileOptions{Name: v.name})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		models = append(models, model{v.name, p.IR,
			mc.Options{EndRecvOK: true, MaxLiveObjects: 64, Reduction: v.red}})
	}
	for _, md := range models {
		res, keys, err := mc.CheckCollapse(md.prog, md.opts)
		if err != nil {
			t.Errorf("%s: %v", md.name, err)
			continue
		}
		if keys < res.States {
			t.Errorf("%s: %d keys fed for %d states", md.name, keys, res.States)
		}
	}
}

// TestCollapseMemBytesPerState guards the collapse store's footprint on
// the §5.3 models: MemBytes per state, against 337 and 488 B for the map
// of full keys it replaced.
func TestCollapseMemBytesPerState(t *testing.T) {
	cfg := nic.DefaultConfig()
	opts := esplang.VerifyOptions{Workers: 1}
	for _, tc := range []struct {
		name  string
		run   func() (*esplang.VerifyResult, error)
		limit float64
	}{
		{"firmware/msgs=3", func() (*esplang.VerifyResult, error) { return vmmc.VerifyFirmware(cfg, 3, opts) }, 110},
		{"two-node/msgs=3", func() (*esplang.VerifyResult, error) { return vmmc.VerifyTwoNode(cfg, 3, opts) }, 160},
	} {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perState := float64(res.MemBytes) / float64(res.States)
		t.Logf("%s: %d states, %d B, %.1f B/state", tc.name, res.States, res.MemBytes, perState)
		if perState > tc.limit {
			t.Errorf("%s: %.1f B/state, want ≤ %.0f", tc.name, perState, tc.limit)
		}
	}
}
