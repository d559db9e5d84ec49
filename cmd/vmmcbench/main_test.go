package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"esplang/internal/obs"
)

// TestMain lets a test re-execute the test binary as vmmcbench itself:
// with VMMCBENCH_AS_MAIN set, the process runs main on the remaining
// arguments.
func TestMain(m *testing.M) {
	if os.Getenv("VMMCBENCH_AS_MAIN") == "1" {
		os.Args = append([]string{"vmmcbench"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// vmmcbench runs the command in dir and returns its combined output and
// exit status.
func vmmcbench(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "VMMCBENCH_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestRejectsNonPositiveSizes: a message size, round count or message
// count below 1, or a negative worker count, is a usage error naming the
// flag (exit 2), not an infinite latency, a table of zeros, a stalled
// simulation, or a silent single worker.
func TestRejectsNonPositiveSizes(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
		must string
	}{
		{"-rounds", []string{"-trace", "t.json", "-rounds", "0"}, "be at least 1"},
		{"-rounds", []string{"-fig", "5a", "-rounds", "-1"}, "be at least 1"},
		{"-count", []string{"-fig", "5b", "-count", "0"}, "be at least 1"},
		{"-count", []string{"-fig", "5c", "-count", "-3"}, "be at least 1"},
		{"-trace-size", []string{"-trace", "t.json", "-trace-size", "0"}, "be at least 1"},
		{"-trace-size", []string{"-profile", "-trace-size", "-5"}, "be at least 1"},
		{"-mc-workers", []string{"-table", "verify", "-mc-workers", "-2"}, "not be negative"},
	} {
		out, code := vmmcbench(t, t.TempDir(), c.args...)
		if want := "vmmcbench: " + c.flag + " must " + c.must; code != 2 || !strings.Contains(out, want) {
			t.Errorf("vmmcbench %s: exit %d, want 2 with %q; output:\n%s",
				strings.Join(c.args, " "), code, want, out)
		}
	}
}

// TestFig5cSingleMessage: -count 1 still sends a message each way, so
// Figure 5c reports a bandwidth rather than zeros.
func TestFig5cSingleMessage(t *testing.T) {
	out, code := vmmcbench(t, t.TempDir(), "-fig", "5c", "-count", "1")
	if code != 0 {
		t.Fatalf("exit %d; output:\n%s", code, out)
	}
	if strings.Contains(out, " 0.0") {
		t.Errorf("Figure 5c with -count 1 reports a zero bandwidth:\n%s", out)
	}
}

// TestTraceRendersCluster: -trace writes one valid Chrome trace holding
// both NICs' hardware tracks and both firmware VMs' process tracks, and
// reports its event count.
func TestTraceRendersCluster(t *testing.T) {
	dir := t.TempDir()
	out, code := vmmcbench(t, dir, "-trace", "t.json", "-rounds", "2")
	if code != 0 {
		t.Fatalf("exit %d; output:\n%s", code, out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	if want := fmt.Sprintf("wrote %d trace events to t.json", n); !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
	for _, want := range []string{`"nic0 cpu"`, `"nic1 recvDMA"`, `"nic0 heap live objects"`, `"nic1 heap live objects"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace lacks %s", want)
		}
	}
}
