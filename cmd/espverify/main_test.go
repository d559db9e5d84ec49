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

// TestRejectsBadBounds: a negative bound and a bit array larger than
// MaxBitstateBits are usage errors naming the flag (exit 2), not a
// silently partial search, a disabled leak check, an index-out-of-range
// panic or an out-of-memory crash.
func TestRejectsBadBounds(t *testing.T) {
	prog := testdata(t, "pipeline.esp")
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-max-states", []string{"-max-states", "-5"}},
		{"-max-depth", []string{"-max-depth", "-1"}},
		{"-runs", []string{"-mode", "simulation", "-runs", "-3"}},
		{"-max-objects", []string{"-max-objects", "-1"}},
		{"-bits", []string{"-mode", "bitstate", "-bits", "64"}},
		{"-bits", []string{"-mode", "bitstate", "-bits", "33"}},
	} {
		out, code := espverify(t, append(c.args, "-end-recv-ok", prog)...)
		if want := "espverify: " + c.flag + " must"; code != 2 || !strings.Contains(out, want) {
			t.Errorf("espverify %s: exit %d, want 2 with %q; output:\n%s",
				strings.Join(c.args, " "), code, want, out)
		}
	}
}
