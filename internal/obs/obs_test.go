package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestChromeTracerWritesValidTrace(t *testing.T) {
	tr := NewChromeTracer(1)
	tr.procStart(0, 0, "producer")
	tr.rendezvous(3, "c", 0, 1)
	tr.counterLive(4, "", 2)
	tr.procStop(10, 0, "blocked")
	tr.procStart(10, 1, "consumer")
	tr.counterLive(12, "", 1)
	tr.procStop(20, 1, "halted")
	tr.poll(25, "inC")
	tr.fault(30, 1, "nil deref")
	tr.SetTrackName(100, "nic0 hostDMA")
	tr.Begin(100, "dma 64B", 30)
	tr.Instant(100, "pkt arrive", 40)
	tr.End(100, 50)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChromeTrace: %v\n%s", err, buf.String())
	}
	if n != tr.Len() {
		t.Fatalf("validated %d events, tracer recorded %d", n, tr.Len())
	}
	out := buf.String()
	for _, want := range []string{
		`"producer"`, `"consumer"`, `"rendezvous c"`, `"heap live objects"`,
		`"poll inC"`, `"FAULT"`, `"nic0 hostDMA"`, `"thread_name"`,
		`"traceEvents"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}
}

func TestChromeTracerScale(t *testing.T) {
	tr := NewChromeTracer(0.001) // ns clock → µs timestamps
	tr.procStart(2500, 0, "p")
	tr.procStop(4500, 0, "halted")
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, e := range f.TraceEvents {
		if e.Ph == "B" || e.Ph == "E" {
			got = append(got, e.Ts)
		}
	}
	if len(got) != 2 || got[0] != 2.5 || got[1] != 4.5 {
		t.Fatalf("scaled timestamps = %v, want [2.5 4.5]", got)
	}
}

func TestValidateChromeTraceRejectsBroken(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents": [}`,
		"no array":      `{"displayTimeUnit": "ms"}`,
		"missing phase": `{"traceEvents": [{"tid": 1}]}`,
		"unbalanced":    `{"traceEvents": [{"ph": "B", "tid": 1, "name": "x"}]}`,
		"stray end":     `{"traceEvents": [{"ph": "E", "tid": 1}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: ValidateChromeTrace accepted invalid trace", name)
		}
	}
	if n, err := ValidateChromeTrace([]byte(`{"traceEvents": []}`)); err != nil || n != 0 {
		t.Errorf("empty trace: got n=%d err=%v", n, err)
	}
}

func TestProfilerReportAndKinds(t *testing.T) {
	p := NewProfiler("probe.esp")
	// Line 5 is the hot rendezvous line, line 3 a cheap loop header.
	for i := 0; i < 10; i++ {
		p.Add(5, KindRendezvous, 8)
		p.Add(5, KindAlloc, 8)
		p.Add(5, KindInstr, 2)
		p.Add(3, KindInstr, 2)
	}
	p.Add(0, KindPoll, 1)

	if got := p.TotalCycles(); got != 10*(8+8+2+2)+1 {
		t.Fatalf("TotalCycles = %d", got)
	}
	line, cyc := p.Top()
	if line != 5 || cyc != 180 {
		t.Fatalf("Top = (%d, %d), want (5, 180)", line, cyc)
	}
	if d := p.lines[5].Dominant(); d != KindRendezvous && d != KindAlloc {
		t.Fatalf("Dominant(line 5) = %v", d)
	}

	src := "proc a\nproc b\nloop {\n  x = 1;\n  out( c, {n, n});\n}\n"
	rep := p.Report(src, 10)
	if !strings.Contains(rep, "probe.esp:5") || !strings.Contains(rep, "out( c, {n, n});") {
		t.Fatalf("report missing hot line:\n%s", rep)
	}
	if !strings.Contains(rep, "<runtime>") {
		t.Fatalf("report missing runtime bucket:\n%s", rep)
	}
	// Hottest line first.
	lines := strings.Split(rep, "\n")
	if len(lines) < 3 || !strings.Contains(lines[2], "probe.esp:5") {
		t.Fatalf("hot line not first in report:\n%s", rep)
	}

	kt := p.KindTable()
	for _, want := range []string{"rendezvous", "alloc", "instr", "poll"} {
		if !strings.Contains(kt, want) {
			t.Fatalf("kind table missing %s:\n%s", want, kt)
		}
	}
	cycles, counts := p.KindTotals()
	if cycles[KindRendezvous] != 80 || counts[KindRendezvous] != 10 {
		t.Fatalf("rendezvous totals = %d cycles / %d events", cycles[KindRendezvous], counts[KindRendezvous])
	}
}

func TestProfilerEmpty(t *testing.T) {
	p := NewProfiler("x.esp")
	if line, cyc := p.Top(); line != 0 || cyc != 0 {
		t.Fatalf("Top on empty profile = (%d, %d)", line, cyc)
	}
	if got := p.Report("", 5); !strings.Contains(got, "no cycles") {
		t.Fatalf("empty report = %q", got)
	}
}

func TestMetricsSnapshotRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Counter("rendezvous_total").Add(42)
	m.Counter("rendezvous{c}").Add(40)
	m.Counter("rendezvous{dataC}").Add(2)
	m.Gauge("frontier_depth").Set(17)
	h := m.Histogram("ready_queue_depth")
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 9, 100} {
		h.Observe(v)
	}

	if h.Count() != 8 || h.Sum() != 120 {
		t.Fatalf("histogram count/sum = %d/%d", h.Count(), h.Sum())
	}
	if m := h.Mean(); m != 15 {
		t.Fatalf("histogram mean = %v", m)
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s1, err := ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(m.Snapshot()) {
		t.Fatalf("snapshot round-trip mismatch:\n%s", buf.String())
	}
	if s1.Counters["rendezvous_total"] != 42 || s1.Gauges["frontier_depth"] != 17 {
		t.Fatalf("snapshot values wrong: %+v", s1)
	}
	if s1.Histograms["ready_queue_depth"].Count != 8 {
		t.Fatalf("snapshot histogram wrong: %+v", s1.Histograms)
	}

	// Re-encoding must be byte-identical (Go sorts JSON map keys).
	var buf2 bytes.Buffer
	enc := json.NewEncoder(&buf2)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s1); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("re-encoded snapshot differs:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

func TestMetricsPrometheus(t *testing.T) {
	m := NewMetrics()
	m.Counter("rendezvous{c}").Add(7)
	m.Counter("mc_states_total").Add(100)
	m.Gauge("mc_frontier").Set(5)
	m.Histogram("ready_queue_depth").Observe(3)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rendezvous counter",
		`rendezvous{chan="c"} 7`,
		"mc_states_total 100",
		"# TYPE mc_frontier gauge",
		"mc_frontier 5",
		"# TYPE ready_queue_depth histogram",
		`ready_queue_depth_bucket{le="4"} 1`,
		`ready_queue_depth_bucket{le="+Inf"} 1`,
		"ready_queue_depth_sum 3",
		"ready_queue_depth_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := map[int64]string{
		-5: "1", 0: "1", 1: "1", 2: "2", 3: "4", 4: "4", 5: "8", 8: "8", 9: "16",
		1 << 40: "1099511627776",
	}
	for v, want := range cases {
		if got := bucketLabel(bucketOf(v)); got != want {
			t.Errorf("bucketOf(%d) → label %s, want %s", v, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindRendezvous.String() != "rendezvous" || Kind(200).String() != "kind?" {
		t.Fatal("Kind.String broken")
	}
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}
