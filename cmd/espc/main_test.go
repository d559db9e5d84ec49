package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-execute the test binary as espc itself: with
// ESPC_AS_MAIN set, the process runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ESPC_AS_MAIN") == "1" {
		os.Args = append([]string{"espc"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// espc runs the command in dir and returns its combined output and exit
// status.
func espc(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "ESPC_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// pipelineDir returns a fresh directory holding a copy of the pipeline
// sample program, so the targets espc writes beside it land there.
func pipelineDir(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "pipeline.esp"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pipeline.esp"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRejectsBadBounds: a negative heap size or objectId bound, and fewer
// than one Promela instance, are usage errors naming the flag (exit 2),
// not targets silently emitted with the defaults.
func TestRejectsBadBounds(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-max-objects", []string{"-max-objects", "-1"}},
		{"-bound", []string{"-bound", "-1"}},
		{"-instances", []string{"-instances", "0"}},
		{"-instances", []string{"-instances", "-1"}},
	} {
		dir := pipelineDir(t)
		out, code := espc(t, dir, append(c.args, "pipeline.esp")...)
		if want := "espc: " + c.flag + " must"; code != 2 || !strings.Contains(out, want) {
			t.Errorf("espc %s: exit %d, want 2 with %q; output:\n%s",
				strings.Join(c.args, " "), code, want, out)
		}
		if _, err := os.Stat(filepath.Join(dir, "pipeline.c")); err == nil {
			t.Errorf("espc %s: wrote the C target", strings.Join(c.args, " "))
		}
	}
}

// TestZeroSizesPickDefaults: -max-objects 0 and -bound 0 emit the targets
// the default sizes emit.
func TestZeroSizesPickDefaults(t *testing.T) {
	targets := func(args ...string) (string, string) {
		dir := pipelineDir(t)
		if out, code := espc(t, dir, append(args, "pipeline.esp")...); code != 0 {
			t.Fatalf("espc %s: exit %d; output:\n%s", strings.Join(args, " "), code, out)
		}
		c, err := os.ReadFile(filepath.Join(dir, "pipeline.c"))
		if err != nil {
			t.Fatal(err)
		}
		pml, err := os.ReadFile(filepath.Join(dir, "pipeline.pml"))
		if err != nil {
			t.Fatal(err)
		}
		return string(c), string(pml)
	}
	c, pml := targets()
	c0, pml0 := targets("-max-objects", "0", "-bound", "0")
	if c0 != c || pml0 != pml {
		t.Error("-max-objects 0 -bound 0 emit other targets than the defaults")
	}
}
