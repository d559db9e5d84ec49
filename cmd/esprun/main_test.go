package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	esplang "esplang"
	"esplang/internal/obs"
	"esplang/internal/vm"
)

// TestMain lets a test re-execute the test binary as esprun itself: with
// ESPRUN_AS_MAIN set, the process runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ESPRUN_AS_MAIN") == "1" {
		os.Args = append([]string{"esprun"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDefaultCycleBudgetStopsPingPong: with no -max-cycles flag, a
// producer/consumer pair that rendezvouses forever must not hang — the
// default budget ends the run with the cycle-budget fault and a non-zero
// exit.
func TestDefaultCycleBudgetStopsPingPong(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a billion-cycle program")
	}
	path := filepath.Join(t.TempDir(), "pingpong.esp")
	src := `
channel c: int
process spin { while (true) { out( c, 1); } }
process drain { while (true) { in( c, $v); } }
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-flight", "0", path)
	cmd.Env = append(os.Environ(), "ESPRUN_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("esprun exited with %v, want a non-zero exit; output:\n%s", err, out)
	}
	if want := "cycle budget exhausted: machine exceeded 1000000000 cycles"; !strings.Contains(string(out), want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}

// TestRejectsBadBounds: a negative -max-cycles, -max-objects or -flight
// is a usage error naming the flag (exit 2), not an unbounded run, a
// disabled leak bound or a dropped fault postmortem.
func TestRejectsBadBounds(t *testing.T) {
	prog := filepath.Join("..", "..", "testdata", "pipeline.esp")
	for _, name := range []string{"-max-cycles", "-max-objects", "-flight"} {
		cmd := exec.Command(os.Args[0], name, "-1", prog)
		cmd.Env = append(os.Environ(), "ESPRUN_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if want := "esprun: " + name + " must not be negative"; !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), want) {
			t.Errorf("esprun %s -1: %v, want exit status 2 with %q; output:\n%s", name, err, want, out)
		}
	}
}

// TestTraceGolden pins the exact bytes of `esprun -trace` on two sample
// programs fed "1 10 37", and the event count esprun reports for them on
// stderr. Regenerate with ESP_UPDATE_GOLDEN=1.
func TestTraceGolden(t *testing.T) {
	for _, name := range []string{"add5", "pipeline"} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace.json")
			cmd := exec.Command(os.Args[0], "-trace", out, filepath.Join("..", "..", "testdata", name+".esp"))
			cmd.Env = append(os.Environ(), "ESPRUN_AS_MAIN=1")
			cmd.Stdin = strings.NewReader("1 10 37\n")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("esprun -trace: %v\n%s", err, stderr.String())
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", name+".trace.json")
			if os.Getenv("ESP_UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with ESP_UPDATE_GOLDEN=1 to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace differs from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
			n, err := obs.ValidateChromeTrace(got)
			if err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if line := fmt.Sprintf("trace: wrote %d events to %s\n", n, out); !strings.Contains(stderr.String(), line) {
				t.Errorf("stderr lacks %q:\n%s", line, stderr.String())
			}
		})
	}
}

func TestDistributeInputsRoundRobin(t *testing.T) {
	got := distributeInputs([]int64{1, 2, 3, 4, 5}, 2)
	want := [][]int64{{1, 3, 5}, {2, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distributeInputs = %v, want %v", got, want)
	}
	if got := distributeInputs(nil, 3); len(got) != 3 {
		t.Errorf("empty inputs must still produce one (empty) feed per channel, got %v", got)
	}
}

func TestHasExtWriter(t *testing.T) {
	closed := esplang.MustCompile(`
channel c: int
process p { out( c, 1); }
process q { in( c, $v); }
`, esplang.CompileOptions{})
	if hasExtWriter(closed) {
		t.Error("closed program reported an external writer; esprun would block on stdin")
	}
	open := esplang.MustCompile(`
channel inC: int external writer
interface feed( out inC) { Put( $v) }
process p { in( inC, $v); }
`, esplang.CompileOptions{})
	if !hasExtWriter(open) {
		t.Error("external-writer program not detected")
	}
}

// TestBindChannelsRoundRobin runs a two-writer program end to end through
// the same binding path main uses: stdin integers must be dealt
// round-robin across the writer channels in declaration order, as the
// command documentation promises.
func TestBindChannelsRoundRobin(t *testing.T) {
	prog := esplang.MustCompile(`
channel aC: int external writer
channel bC: int external writer
channel outC: int external reader
interface feedA( out aC) { PutA( $v) }
interface feedB( out bC) { PutB( $v) }

process sum {
    $n = 0;
    while (n < 2) {
        in( aC, $x);
        in( bC, $y);
        out( outC, x * 100 + y);
        n = n + 1;
    }
}
`, esplang.CompileOptions{})
	m := prog.Machine(esplang.MachineConfig{})
	collect := &esplang.CollectReader{}
	err := bindChannels(prog, m, []int64{1, 2, 3, 4}, func(string) vm.ExternalReader { return collect })
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res != vm.RunHalted {
		t.Fatalf("run: %v (fault: %v)", res, m.Fault())
	}
	// Round-robin: aC gets 1,3 and bC gets 2,4 — so sum emits 102, 304.
	var got []int64
	for _, v := range collect.Values {
		got = append(got, v.Int())
	}
	if want := []int64{102, 304}; !reflect.DeepEqual(got, want) {
		t.Errorf("outputs %v, want %v (inputs not dealt round-robin)", got, want)
	}
}

// TestBindChannelsRejectsCompositeWriter keeps the stdin contract honest:
// a writer channel whose interface case is not a single scalar cannot be
// fed integers.
func TestBindChannelsRejectsCompositeWriter(t *testing.T) {
	prog := esplang.MustCompile(`
type pair = record of { a: int, b: int }
channel inC: pair external writer
interface feed( out inC) { Put( {$a, $b}) }
process p { in( inC, {$a, $b}); }
`, esplang.CompileOptions{})
	m := prog.Machine(esplang.MachineConfig{})
	err := bindChannels(prog, m, nil, func(string) vm.ExternalReader { return &esplang.CollectReader{} })
	if err == nil {
		t.Error("composite-payload writer channel accepted for stdin feeding")
	}
}
