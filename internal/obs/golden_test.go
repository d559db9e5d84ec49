package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestChromeTraceGolden locks down the exact JSON the exporter emits for
// a fixed event script. Perfetto and chrome://tracing are external
// consumers, so the encoding (phase letters, scope letters, counter
// series, metadata records, field order) must not drift silently.
// Regenerate with: go test ./internal/obs -run Golden -update
func TestChromeTraceGolden(t *testing.T) {
	tr := NewChromeTracer(1)
	tr.procStart(10, 0, "producer")
	tr.rendezvous(14, "c", 0, 1)
	tr.counterLive(16, "", 1)
	tr.procStop(20, 0, "blocked(send)")
	tr.procStart(20, 1, "consumer")
	tr.counterLive(24, "", 0)
	tr.poll(26, "inC")
	tr.fault(28, 1, "assertion failed")
	tr.procStop(30, 1, "faulted")
	tr.SetTrackName(100, "nic0 hostDMA")
	tr.Begin(100, "hostDMA 4096B", 12)
	tr.Instant(100, "lead 64B ready", 18)
	tr.End(100, 40)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("golden trace invalid: %v", err)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output drifted from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
