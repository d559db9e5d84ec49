package esplang_test

import (
	"testing"

	esplang "esplang"
	"esplang/internal/nic"
	"esplang/internal/vmmc"
)

// TestCompilerOutputAllocs guards the allocation counts of the compiler's
// text outputs and of IR verification on the VMMC firmware, compiled with
// a file name so the C carries #line directives and the Promela location
// comments. The emitters append into one buffer sized from the program,
// and a verified compile re-checks only the process each per-process
// pass rewrote. Each limit is the count this code reaches plus 10%
// (docs/PERFORMANCE.md has the counts before).
func TestCompilerOutputAllocs(t *testing.T) {
	src := vmmc.ESPSource(nic.DefaultConfig())
	opts := esplang.CompileOptions{Name: "vmmcESP", File: "vmmcESP"}
	prog, err := esplang.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(f func()) float64 { return testing.AllocsPerRun(20, f) }
	compile := func(verify bool) func() {
		o := opts
		o.VerifyIR = verify
		return func() {
			if _, err := esplang.Compile(src, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name       string
		got, limit float64
	}{
		{"C", allocs(func() { _ = prog.C(esplang.COptions{}) }), 3 * 1.1},
		{"Promela", allocs(func() { _ = prog.Promela(esplang.PromelaOptions{}) }), 53 * 1.1},
		{"Disasm", allocs(func() { _ = prog.Disasm() }), 12 * 1.1},
		{"DisasmFused", allocs(func() { _ = prog.DisasmFused() }), 13 * 1.1},
		{"VerifyIR overhead", allocs(compile(true)) - allocs(compile(false)), 168 * 1.1},
	} {
		t.Logf("%s: %.0f allocations", c.name, c.got)
		if c.got > c.limit {
			t.Errorf("%s allocates %.0f times, limit %.1f", c.name, c.got, c.limit)
		}
	}
}
