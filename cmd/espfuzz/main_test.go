package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute the test binary as espfuzz itself:
// with ESPFUZZ_AS_MAIN set, the process runs main on the remaining
// arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ESPFUZZ_AS_MAIN") == "1" {
		os.Args = append([]string{"espfuzz"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// espfuzz runs the command in a fresh directory and returns its combined
// output and exit status.
func espfuzz(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), "ESPFUZZ_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestRejectsBadBounds: a campaign that would check nothing — no failure
// allowed before stopping, a negative count, or a negative model-checker
// bound — or would never print its progress line is a usage error naming
// the flag (exit 2), not a pass.
func TestRejectsBadBounds(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-max-failures", []string{"-n", "50", "-max-failures", "0"}},
		{"-max-failures", []string{"-n", "0", "-max-failures", "-1"}},
		{"-n", []string{"-n", "-1"}},
		{"-mutants", []string{"-n", "0", "-mutants", "-1"}},
		{"-minimize", []string{"-n", "0", "-minimize", "-1"}},
		{"-mc-states", []string{"-n", "0", "-mc-states", "-5"}},
		{"-progress-interval", []string{"-n", "0", "-progress", "-progress-interval", "0"}},
		{"-progress-interval", []string{"-n", "0", "-progress-interval", "-1s"}},
	} {
		out, code := espfuzz(t, c.args...)
		if want := "espfuzz: " + c.flag + " must"; code != 2 || !strings.Contains(out, want) {
			t.Errorf("espfuzz %s: exit %d, want 2 with %q; output:\n%s",
				strings.Join(c.args, " "), code, want, out)
		}
	}
}

// TestZeroCountAndDefaultBound: -n 0 (a corpus-only run) and -mc-states 0
// (the oracle's default bound) stay valid.
func TestZeroCountAndDefaultBound(t *testing.T) {
	out, code := espfuzz(t, "-n", "0", "-mc-states", "0")
	if code != 0 || !strings.Contains(out, "espfuzz: no divergences, no crashes") {
		t.Errorf("exit %d, want 0 with a clean summary; output:\n%s", code, out)
	}
}
