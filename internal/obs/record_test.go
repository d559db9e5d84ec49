package obs

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// ev records one event with its name interned, as the VM's event sites
// do with the names they intern at SetRecorder time.
func ev(r *FlightRecorder, ts int64, k EventKind, proc, arg int, name string) {
	r.Record(ts, PA(int32(proc), int32(arg)), NK(k, r.Intern(name)))
}

// fill records n synthetic events shaped like a real run — a process
// start, alternating rendezvous/allocs, and a matching stop — and
// publishes them (the writer-side Sync a Machine.Postmortem performs).
func fill(r *FlightRecorder, n int) {
	ev(r, 0, EvProcStart, 0, 0, "p")
	for i := 1; i < n-1; i++ {
		if i%2 == 0 {
			ev(r, int64(i), EvRendezvous, 0, 1, "c")
		} else {
			ev(r, int64(i), EvAlloc, 0, i, "")
		}
	}
	ev(r, int64(n-1), EvProcStop, 0, 0, "done")
	r.Sync()
}

func TestRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(8)
	if r.RingSize() != 8 {
		t.Fatalf("RingSize = %d, want 8", r.RingSize())
	}
	for i := 0; i < 100; i++ {
		ev(r, int64(i), EvPoll, -1, 0, "ext")
	}
	r.Sync()
	if r.Total() != 100 {
		t.Errorf("Total = %d, want 100", r.Total())
	}
	if r.Dropped() != 92 {
		t.Errorf("Dropped = %d, want 92", r.Dropped())
	}
	evs := r.Snapshot(0)
	if len(evs) != 8 {
		t.Fatalf("Snapshot returned %d events, want 8 (ring size)", len(evs))
	}
	// The survivors are the newest 8, in order, with global sequence
	// numbers intact.
	for i, e := range evs {
		wantSeq := uint64(92 + i)
		if e.Seq != wantSeq || e.Ts != int64(92+i) || e.Kind != EvPoll {
			t.Errorf("event %d = seq %d ts %d kind %v, want seq %d ts %d poll",
				i, e.Seq, e.Ts, e.Kind, wantSeq, wantSeq)
		}
	}
	// last= caps the window from the new end.
	if got := r.Snapshot(3); len(got) != 3 || got[0].Seq != 97 {
		t.Errorf("Snapshot(3) = %d events starting at seq %d, want 3 from 97", len(got), got[0].Seq)
	}
}

func TestRecorderDumpRoundTrip(t *testing.T) {
	r := NewFlightRecorder(0)
	fill(r, 20)
	r.Fault(20, 0, "boom")
	r.Sync()

	var buf bytes.Buffer
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	n, err := ValidatePostmortem(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidatePostmortem: %v\ndump:\n%s", err, buf.String())
	}
	if n != 21 {
		t.Errorf("validated %d events, want 21", n)
	}
	// The raw recorder doesn't know the machine's fault object (the VM's
	// Postmortem fills the header); the fault event itself is recorded.
	if !strings.Contains(buf.String(), "fault=1") || !strings.Contains(buf.String(), "\tfault\t") {
		t.Errorf("dump missing fault event:\n%s", buf.String())
	}
}

// TestRecorderDumpAfterWrap checks a dump whose window starts mid-stream
// still validates: sequence numbers open at recorded-shown and an
// unmatched stop is forgiven exactly because events were dropped.
func TestRecorderDumpAfterWrap(t *testing.T) {
	r := NewFlightRecorder(8)
	fill(r, 100) // start and most of the stream fall out of the ring
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	n, err := ValidatePostmortem(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidatePostmortem after wrap: %v\ndump:\n%s", err, buf.String())
	}
	if n != 8 {
		t.Errorf("validated %d events, want 8", n)
	}
}

func TestValidatePostmortemRejectsCorruption(t *testing.T) {
	r := NewFlightRecorder(0)
	fill(r, 10)
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	corrupt := []struct {
		name string
		mod  func(string) string
	}{
		{"bad version", func(s string) string {
			return strings.Replace(s, "recorder v1", "recorder v9", 1)
		}},
		{"shown exceeds recorded", func(s string) string {
			return strings.Replace(s, "recorded=10", "recorded=3", 1)
		}},
		{"non-monotonic ts", func(s string) string {
			return strings.Replace(s, "\n5\t5\t", "\n5\t1\t", 1)
		}},
		{"seq gap", func(s string) string {
			return strings.Replace(s, "\n5\t5\t", "\n7\t5\t", 1)
		}},
		{"kind count mismatch", func(s string) string {
			return strings.Replace(s, "alloc=4", "alloc=5", 1)
		}},
		{"unknown kind", func(s string) string {
			return strings.Replace(s, "\talloc\t", "\tallocx\t", 1)
		}},
		{"truncated events", func(s string) string {
			i := strings.LastIndexByte(strings.TrimRight(s, "\n"), '\n')
			return s[:i+1]
		}},
	}
	for _, c := range corrupt {
		bad := c.mod(good)
		if bad == good {
			t.Fatalf("%s: corruption did not change the dump", c.name)
		}
		if _, err := ValidatePostmortem([]byte(bad)); err == nil {
			t.Errorf("%s: corrupted dump validated\n%s", c.name, bad)
		}
	}
}

func TestValidatePostmortemRejectsSpanViolations(t *testing.T) {
	// A start with no stop by the end of the dump is an unclosed span.
	r := NewFlightRecorder(0)
	ev(r, 0, EvProcStart, 0, 0, "p")
	r.Sync()
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePostmortem(buf.Bytes()); err == nil {
		t.Error("dump with unclosed span validated")
	}

	// A stop without a start is only legal when the ring dropped events;
	// with dropped=0 it must be rejected.
	r = NewFlightRecorder(0)
	ev(r, 0, EvProcStop, 0, 0, "done")
	r.Sync()
	buf.Reset()
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePostmortem(buf.Bytes()); err == nil {
		t.Error("dump with orphan stop and no drops validated")
	}

	// Double start without an intervening stop.
	r = NewFlightRecorder(0)
	ev(r, 0, EvProcStart, 0, 0, "p")
	ev(r, 1, EvProcStart, 0, 0, "p")
	ev(r, 2, EvProcStop, 0, 0, "done")
	ev(r, 3, EvProcStop, 0, 0, "done")
	r.Sync()
	buf.Reset()
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePostmortem(buf.Bytes()); err == nil {
		t.Error("dump with double start validated")
	}
}

func TestRecorderChargeLines(t *testing.T) {
	r := NewFlightRecorder(0)
	fill(r, 6)
	d := r.Dump(0)
	d.ChargeCycles[KindInstr] = 120
	d.ChargeCounts[KindInstr] = 60
	d.ChargeCycles[KindRendezvous] = 16
	d.ChargeCounts[KindRendezvous] = 2
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# charge instr cycles=120 count=60", "# charge rendezvous cycles=16 count=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if _, err := ValidatePostmortem(buf.Bytes()); err != nil {
		t.Fatalf("dump with charge lines does not validate: %v", err)
	}
	// A duplicated charge class must be rejected.
	dup := strings.Replace(out, "# charge rendezvous cycles=16 count=2",
		"# charge instr cycles=1 count=1", 1)
	if _, err := ValidatePostmortem([]byte(dup)); err == nil {
		t.Error("duplicate charge class validated")
	}
}

func TestRecorderWriteChromeBalances(t *testing.T) {
	// A window that opens mid-run (wrapped ring) has stops without starts
	// and starts without stops; the Chrome rendering must still balance.
	r := NewFlightRecorder(4)
	ev(r, 0, EvProcStart, 0, 0, "a")
	ev(r, 1, EvRendezvous, 0, 1, "c")
	ev(r, 2, EvProcStop, 0, 0, "done") // start falls out of the window below
	ev(r, 3, EvProcStart, 1, 0, "b")   // never stopped
	ev(r, 4, EvRendezvous, 1, 0, "c")  // keeps the window busy
	r.Sync()
	var buf bytes.Buffer
	if _, err := r.WriteChrome(&buf, 3); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("WriteChrome output invalid: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Error("WriteChrome produced no events")
	}
}

func TestRecorderConcurrentRecording(t *testing.T) {
	// The recorder is shared with the telemetry server's /trace handler;
	// concurrent record and snapshot must be race-clean (run with -race).
	r := NewFlightRecorder(16)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			ev(r, int64(i), EvRendezvous, 0, 1, "c")
		}
		r.Sync() // writer-side publish, like Machine.Postmortem
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			var buf bytes.Buffer
			_ = r.WriteDump(&buf, 8)
		}
	}()
	wg.Wait()
	if r.Total() != 500 {
		t.Errorf("Total = %d, want 500", r.Total())
	}
}

func TestRecorderZeroAllocSteadyState(t *testing.T) {
	r := NewFlightRecorder(32)
	// Warm up so every Name string the ring retains is already in place.
	for i := 0; i < 64; i++ {
		ev(r, int64(i), EvRendezvous, 0, 1, "chan")
	}
	avg := testing.AllocsPerRun(500, func() {
		ev(r, 1, EvRendezvous, 0, 1, "chan")
		ev(r, 2, EvAlloc, 0, 3, "")
		ev(r, 3, EvFree, 0, 2, "")
	})
	if avg != 0 {
		t.Errorf("steady-state recording allocates %.2f objects/op, want 0", avg)
	}
}

// TestEventLogRecordsEverything: NewEventLog's ring doubles in Sync
// instead of wrapping, so thousands of events survive many doublings in
// order and none is dropped.
func TestEventLogRecordsEverything(t *testing.T) {
	r := NewEventLog()
	const n = 10000
	for i := 0; i < n; i++ {
		ev(r, int64(i), EvRendezvous, i%7, i, "c")
	}
	r.Sync()
	if r.Total() != n || r.Dropped() != 0 {
		t.Fatalf("Total = %d, Dropped = %d; want %d, 0", r.Total(), r.Dropped(), n)
	}
	if r.RingSize() != 16384 {
		t.Errorf("RingSize = %d, want 16384 (%d doubled six times)", r.RingSize(), DefaultRingSize)
	}
	evs := r.Snapshot(0)
	if len(evs) != n {
		t.Fatalf("Snapshot returned %d events, want %d", len(evs), n)
	}
	for i, e := range evs {
		want := Event{Seq: uint64(i), Ts: int64(i), Kind: EvRendezvous, Proc: i % 7, Arg: i, Name: "c"}
		if e != want {
			t.Fatalf("event %d = %+v, want %+v", i, e, want)
		}
	}
}

// TestEventLogSnapshotDuringGrowth: the ring doubles under the mutex in
// Sync, so a snapshot taken while the writer grows it sees an in-order
// prefix of the stream, never a half-copied ring (run with -race).
func TestEventLogSnapshotDuringGrowth(t *testing.T) {
	r := NewEventLog()
	const n = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			ev(r, int64(i), EvPoll, -1, 0, "ext")
			if i%stageSize == 0 {
				runtime.Gosched()
			}
		}
		r.Sync()
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		evs := r.Snapshot(0)
		for i, e := range evs {
			if e.Seq != uint64(i) || e.Ts != int64(i) || e.Kind != EvPoll || e.Name != "ext" {
				t.Fatalf("snapshot of %d events: event %d = %+v", len(evs), i, e)
			}
		}
		if finished && len(evs) != n {
			t.Fatalf("final snapshot has %d events, want %d", len(evs), n)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 7, Ts: 42, Kind: EvRendezvous, Proc: 1, Arg: 2, Name: "reqC"}
	if got, want := e.String(), "7\t42\trendezvous\t1\t2\treqC"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestParseEventKind(t *testing.T) {
	for k := EventKind(0); k < NumEventKinds; k++ {
		got, ok := parseEventKind(k.String())
		if !ok || got != k {
			t.Errorf("parseEventKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := parseEventKind("bogus"); ok {
		t.Error("parseEventKind accepted bogus kind")
	}
}

func TestDumpHeaderShape(t *testing.T) {
	r := NewFlightRecorder(0)
	fill(r, 5)
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if lines[0] != dumpVersion {
		t.Errorf("first line = %q, want %q", lines[0], dumpVersion)
	}
	want := fmt.Sprintf("# recorded=5 dropped=0 ring=%d shown=5", DefaultRingSize)
	if lines[1] != want {
		t.Errorf("totals line = %q, want %q", lines[1], want)
	}
	if lines[2] != "# fault: none" {
		t.Errorf("fault line = %q, want %q", lines[2], "# fault: none")
	}
}
