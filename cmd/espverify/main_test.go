package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-execute the test binary as espverify itself:
// with ESPVERIFY_AS_MAIN set, the process runs main on the remaining
// arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ESPVERIFY_AS_MAIN") == "1" {
		os.Args = append([]string{"espverify"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// espverify runs the command in a fresh directory and returns its
// combined output and exit status.
func espverify(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), "ESPVERIFY_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// testdata returns the absolute path of a repository sample program.
func testdata(t *testing.T, name string) string {
	t.Helper()
	p, err := filepath.Abs(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTelemetryWithoutMetricsFile: -telemetry alone serves the live
// registry but writes no metrics file, so the run ends with its verdict
// instead of failing to create a file with an empty name.
func TestTelemetryWithoutMetricsFile(t *testing.T) {
	out, code := espverify(t, "-telemetry", "127.0.0.1:0", "-end-recv-ok", testdata(t, "pipeline.esp"))
	if code != 0 || !strings.Contains(out, "pass — 11 states") {
		t.Fatalf("exit %d, want 0 with the verdict; output:\n%s", code, out)
	}
}

// TestRejectsBadBounds: a negative bound or worker count, a bit array
// larger than MaxBitstateBits, a sampling interval that is not positive,
// a flag a progress search would ignore, and a progress channel the
// program lacks are usage errors naming the flag (exit 2) — and the
// channel, where there is one — not a silently partial search, a
// disabled leak check, an index-out-of-range panic, an out-of-memory
// crash, a default silently put in, or a verification failure.
func TestRejectsBadBounds(t *testing.T) {
	prog := testdata(t, "pipeline.esp")
	for _, c := range []struct {
		flag string
		args []string
		also string
	}{
		{"-max-states", []string{"-max-states", "-5"}, ""},
		{"-max-depth", []string{"-max-depth", "-1"}, ""},
		{"-runs", []string{"-mode", "simulation", "-runs", "-3"}, ""},
		{"-max-objects", []string{"-max-objects", "-1"}, ""},
		{"-bits", []string{"-mode", "bitstate", "-bits", "64"}, ""},
		{"-bits", []string{"-mode", "bitstate", "-bits", "33"}, ""},
		{"-workers", []string{"-workers", "-3"}, ""},
		{"-progress-interval", []string{"-progress", "-progress-interval", "0"}, ""},
		{"-progress-interval", []string{"-progress-interval", "-1s"}, ""},
		{"-por", []string{"-progress-channels", "c", "-por"}, ""},
		{"-por-stats", []string{"-progress-channels", "c", "-por-stats"}, ""},
		{"-mode", []string{"-progress-channels", "c", "-mode", "bitstate"}, ""},
		{"-mode", []string{"-progress-channels", "c", "-mode", "simulation"}, ""},
		{"-progress-channels", []string{"-progress-channels", "nosuch"}, `"nosuch"`},
		{"-progress-channels", []string{"-progress-channels", "c,"}, `""`},
	} {
		out, code := espverify(t, append(c.args, "-end-recv-ok", prog)...)
		if want := "espverify: " + c.flag + " must"; code != 2 || !strings.Contains(out, want) || !strings.Contains(out, c.also) {
			t.Errorf("espverify %s: exit %d, want 2 with %q and %q; output:\n%s",
				strings.Join(c.args, " "), code, want, c.also, out)
		}
	}
}

// TestProgressModeReportsLikeSafety: -progress-channels reports what the
// safety search reports — a fault's counterexample with its source line,
// the real search depth, and a depth bound's partial-search verdict.
func TestProgressModeReportsLikeSafety(t *testing.T) {
	dir := t.TempDir()
	pf := filepath.Join(dir, "pf.esp")
	src := "type t = array of int\nchannel c: int\nchannel d: int\n" +
		"process p { $a: t = { 4 -> 1}; out( c, 1); unlink( a); unlink( a); out( d, 2); }\n" +
		"process q { in( c, $x); in( d, $y); }\n"
	if err := os.WriteFile(pf, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pipeline := testdata(t, "pipeline.esp")
	for _, c := range []struct {
		args []string
		code int
		want []string
	}{
		{[]string{"-progress-channels", "d", pf}, 1,
			[]string{"(after 1 transitions)", "depth 1,", "1. p --c--> q (" + pf + ":4)"}},
		{[]string{"-workers", "1", "-end-recv-ok", "-progress-channels", "c", pipeline}, 0,
			[]string{"pass — 11 states", "depth 10,"}},
		{[]string{"-workers", "1", "-end-recv-ok", "-max-depth", "3", "-progress-channels", "c", pipeline}, 0,
			[]string{"pass (partial search) — 4 states", "depth 3,"}},
	} {
		out, code := espverify(t, c.args...)
		if code != c.code {
			t.Errorf("espverify %s: exit %d, want %d; output:\n%s", strings.Join(c.args, " "), code, c.code, out)
		}
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("espverify %s: output lacks %q:\n%s", strings.Join(c.args, " "), w, out)
			}
		}
	}
}
