package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// tracer records host-time spans around the calls the benchmark makes
// into each layer. A span is named "<layer>.<what>"; spans nest on a
// stack (the benchmark drives everything from one goroutine), so a span's
// parent is the span open when it began. Self time — a span's duration
// minus the time its child spans cover — is aggregated per span name as
// spans close, so the per-layer numbers cover every traced operation,
// while only the first maxStoredSpans spans are kept for the Chrome trace.
//
// A nil *tracer is valid and records nothing: untraced operations pay
// one nil check per call site.
type tracer struct {
	epoch time.Time
	op    int // id of the operation spans currently belong to

	stack []frame
	aggs  map[string]*spanAgg

	spans []span
}

// maxStoredSpans bounds the spans kept for the trace file (~48 B each in
// memory, ~120 B as JSON); aggregation is not bounded.
const maxStoredSpans = 40000

type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int   // index into spans, -1 for a root span
	op         int
}

type frame struct {
	name    string
	start   int64
	childNs int64
	stored  int // index into spans, -1 when past the storage bound
}

// spanAgg totals the spans of one name.
type spanAgg struct {
	count   int64
	totalNs int64
	selfNs  int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), aggs: map[string]*spanAgg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; every begin is paired with an end on the same
// goroutine.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	f := frame{name: name, stored: -1}
	if len(t.spans) < maxStoredSpans {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].stored
		}
		f.stored = len(t.spans)
		t.spans = append(t.spans, span{name: name, parent: parent, op: t.op})
	}
	f.start = t.now()
	t.stack = append(t.stack, f)
}

// end closes the innermost open span and returns its duration in ns.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	now := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - f.start
	if n > 0 {
		t.stack[n-1].childNs += dur
	}
	a := t.aggs[f.name]
	if a == nil {
		a = &spanAgg{}
		t.aggs[f.name] = a
	}
	a.count++
	a.totalNs += dur
	a.selfNs += dur - f.childNs
	if f.stored >= 0 {
		t.spans[f.stored].start = f.start
		t.spans[f.stored].end = now
	}
	return dur
}

// agg returns the totals for one span name (zero when it never closed).
func (t *tracer) agg(name string) spanAgg {
	if a := t.aggs[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// layerSelf is one row of the self-time table.
type layerSelf struct {
	Layer  string  `json:"layer"`
	Spans  int64   `json:"spans"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// selfTable sums self time per layer (the span-name prefix before the
// first dot), largest first.
func (t *tracer) selfTable() []layerSelf {
	by := map[string]*layerSelf{}
	var total float64
	for name, a := range t.aggs {
		layer, _, _ := strings.Cut(name, ".")
		r := by[layer]
		if r == nil {
			r = &layerSelf{Layer: layer}
			by[layer] = r
		}
		r.Spans += a.count
		r.SelfMs += float64(a.selfNs) / 1e6
		total += float64(a.selfNs) / 1e6
	}
	rows := make([]layerSelf, 0, len(by))
	for _, r := range by {
		if total > 0 {
			r.Share = r.SelfMs / total
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows
}

func printSelfTable(w io.Writer, workload string, rows []layerSelf, ops int) {
	fmt.Fprintf(w, "self time per layer, %s (%d traced ops):\n", workload, ops)
	fmt.Fprintf(w, "  %-10s %10s %12s %12s %7s\n", "layer", "spans", "self ms", "ms/op", "share")
	for _, r := range rows {
		perOp := 0.0
		if ops > 0 {
			perOp = r.SelfMs / float64(ops)
		}
		fmt.Fprintf(w, "  %-10s %10d %12.3f %12.4f %6.1f%%\n", r.Layer, r.Spans, r.SelfMs, perOp, 100*r.Share)
	}
}

// chromeEvent and chromeFile are the Chrome trace-event JSON layout that
// chrome://tracing, Perfetto, and obscheck -trace read.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeEvents renders the stored spans as balanced B/E pairs on one
// track of process pid. Spans are stored in begin order, so a parent
// always precedes its children and closing back to the parent's frame
// before each begin yields a properly nested sequence.
func (t *tracer) chromeEvents(pid int, process string) []chromeEvent {
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: pid, Tid: 1, Args: map[string]any{"name": process}},
		{Name: "thread_name", Ph: "M", Pid: pid, Tid: 1, Args: map[string]any{"name": "driver"}},
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var open []int
	closeTo := func(parent int) {
		for len(open) > 0 && open[len(open)-1] != parent {
			top := open[len(open)-1]
			open = open[:len(open)-1]
			evs = append(evs, chromeEvent{Ph: "E", Pid: pid, Tid: 1, Ts: us(t.spans[top].end)})
		}
	}
	for i, s := range t.spans {
		closeTo(s.parent)
		evs = append(evs, chromeEvent{Name: s.name, Ph: "B", Pid: pid, Tid: 1, Ts: us(s.start),
			Args: map[string]any{"op": s.op}})
		open = append(open, i)
	}
	closeTo(-1)
	return evs
}

func writeChrome(w io.Writer, evs []chromeEvent) error {
	return json.NewEncoder(w).Encode(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
