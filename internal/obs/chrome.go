package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeTracer records events in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// the JSON that chrome://tracing and Perfetto load directly. AddEvents
// renders a flight recorder's VM events: each ESP process becomes a
// named thread track; rendezvous, faults, and polls are instant events;
// the live-object count is a counter series. NIC DMA engines add
// hardware tracks through the span methods (SetTrackName, Begin, End,
// Instant).
//
// It is not safe for concurrent use; the sim kernel that emits spans is
// single-threaded, and recorded events are rendered after the fact.
type ChromeTracer struct {
	// Scale converts clock timestamps to the format's microseconds
	// (events are emitted at ts×Scale µs). Leave 1 for the VM cycle
	// clock (1 cycle renders as 1 µs); use 0.001 for the sim kernel's
	// nanosecond clock.
	Scale float64

	events []chromeEvent
	named  map[int64]bool
}

// NewChromeTracer returns a tracer using the given timestamp scale
// (µs per clock unit); 0 means 1.
func NewChromeTracer(scale float64) *ChromeTracer {
	if scale == 0 {
		scale = 1
	}
	return &ChromeTracer{Scale: scale, named: make(map[int64]bool)}
}

// chromeEvent is one trace-event record.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

func (t *ChromeTracer) ts(v int64) float64 { return float64(v) * t.Scale }

func (t *ChromeTracer) add(e chromeEvent) { t.events = append(t.events, e) }

// Len returns the number of recorded events.
func (t *ChromeTracer) Len() int { return len(t.events) }

// ensureName emits the thread_name metadata record once per track.
func (t *ChromeTracer) ensureName(tid int64, name string) {
	if t.named == nil {
		t.named = make(map[int64]bool)
	}
	if t.named[tid] {
		return
	}
	t.named[tid] = true
	t.add(chromeEvent{Name: "thread_name", Ph: "M", Tid: tid,
		Args: map[string]any{"name": name}})
}

// --- VM events ---

// AddEvents renders recorded VM events. trackOff shifts every process
// track id and prefix is prepended to process, channel, fault, and
// counter names, so several machines can share one trace (vmmc gives
// each NIC's firmware its own offset and a "nic<i> " prefix); esprun
// passes 0 and "". Spans cut by a recorder's window are repaired: a stop whose start
// fell off the ring gets a synthetic start at the first event's
// timestamp, and a span still open at the last event is closed there, so
// live snapshots of a running machine still balance.
func (t *ChromeTracer) AddEvents(evs []Event, trackOff int, prefix string) {
	track := func(proc int) int {
		if proc < 0 {
			return proc // -1 = external environment or no process
		}
		return proc + trackOff
	}
	depth := map[int]int{}
	for _, e := range evs {
		p := track(e.Proc)
		switch e.Kind {
		case EvProcStart:
			t.procStart(e.Ts, p, prefix+e.Name)
			depth[p]++
		case EvProcStop:
			if depth[p] == 0 {
				t.procStart(evs[0].Ts, p, fmt.Sprintf("%sproc%d", prefix, e.Proc))
				depth[p]++
			}
			t.procStop(e.Ts, p, e.Name)
			depth[p]--
		case EvRendezvous:
			t.rendezvous(e.Ts, prefix+e.Name, p, track(e.Arg))
		case EvAlloc, EvFree:
			t.counterLive(e.Ts, prefix, e.Arg)
		case EvFault:
			t.fault(e.Ts, p, prefix+e.Name)
		case EvPoll:
			t.poll(e.Ts, prefix+e.Name)
		}
	}
	if n := len(evs); n > 0 {
		for p, d := range depth {
			for ; d > 0; d-- {
				t.procStop(evs[n-1].Ts, p, "(snapshot)")
			}
		}
	}
}

func (t *ChromeTracer) procStart(ts int64, proc int, name string) {
	tid := int64(proc)
	t.ensureName(tid, name)
	t.add(chromeEvent{Name: name, Ph: "B", Tid: tid, Ts: t.ts(ts)})
}

func (t *ChromeTracer) procStop(ts int64, proc int, status string) {
	t.add(chromeEvent{Ph: "E", Tid: int64(proc), Ts: t.ts(ts),
		Args: map[string]any{"status": status}})
}

func (t *ChromeTracer) rendezvous(ts int64, ch string, sender, receiver int) {
	tid := int64(sender)
	if sender < 0 {
		tid = int64(receiver)
	}
	t.add(chromeEvent{Name: "rendezvous " + ch, Ph: "i", S: "t", Tid: tid, Ts: t.ts(ts),
		Args: map[string]any{"chan": ch, "sender": sender, "receiver": receiver}})
}

// counterLive adds one sample of a machine's live-object series; each
// prefix names its own series, since two heaps' counts do not add up
// to one meaningful step.
func (t *ChromeTracer) counterLive(ts int64, prefix string, live int) {
	t.add(chromeEvent{Name: prefix + "heap live objects", Ph: "C", Ts: t.ts(ts),
		Args: map[string]any{"live": live}})
}

func (t *ChromeTracer) fault(ts int64, proc int, msg string) {
	tid := int64(proc)
	if proc < 0 {
		tid = runtimeTid
	}
	t.add(chromeEvent{Name: "FAULT", Ph: "i", S: "g", Tid: tid, Ts: t.ts(ts),
		Args: map[string]any{"msg": msg}})
}

// runtimeTid is the track for events with no process context (the idle
// loop's external polls, unattributed faults).
const runtimeTid = 999

func (t *ChromeTracer) poll(ts int64, ch string) {
	t.ensureName(runtimeTid, "runtime (idle loop)")
	t.add(chromeEvent{Name: "poll " + ch, Ph: "i", S: "t", Tid: runtimeTid, Ts: t.ts(ts)})
}

// --- Hardware / generic tracks ---
//
// Tracks are identified by a caller-chosen tid that must not collide
// with the VM's process tracks (the NIC uses 100 and up).

// SetTrackName labels a track.
func (t *ChromeTracer) SetTrackName(tid int64, name string) { t.ensureName(tid, name) }

// Begin opens a duration span on the track.
func (t *ChromeTracer) Begin(tid int64, name string, ts int64) {
	t.add(chromeEvent{Name: name, Ph: "B", Tid: tid, Ts: t.ts(ts)})
}

// End closes the innermost open span on the track.
func (t *ChromeTracer) End(tid int64, ts int64) {
	t.add(chromeEvent{Ph: "E", Tid: tid, Ts: t.ts(ts)})
}

// Instant records a point event on the track.
func (t *ChromeTracer) Instant(tid int64, name string, ts int64) {
	t.add(chromeEvent{Name: name, Ph: "i", S: "t", Tid: tid, Ts: t.ts(ts)})
}

// --- Export ---

// chromeFile is the top-level JSON object format.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Write writes the trace as Chrome trace-event JSON.
func (t *ChromeTracer) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	events := t.events
	if events == nil {
		events = []chromeEvent{}
	}
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidateChromeTrace parses data as Chrome trace-event JSON and checks
// the minimal structural invariants a viewer relies on: a traceEvents
// array whose every record has a phase, and whose B/E pairs balance per
// track. It returns the number of events.
func ValidateChromeTrace(data []byte) (int, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("trace JSON does not parse: %w", err)
	}
	if f.TraceEvents == nil {
		return 0, fmt.Errorf("trace JSON has no traceEvents array")
	}
	depth := map[int64]int{}
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "":
			return 0, fmt.Errorf("event %d has no phase", i)
		case "B":
			depth[e.Tid]++
		case "E":
			depth[e.Tid]--
			if depth[e.Tid] < 0 {
				return 0, fmt.Errorf("event %d: E without matching B on track %d", i, e.Tid)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			return 0, fmt.Errorf("track %d has %d unclosed span(s)", tid, d)
		}
	}
	return len(f.TraceEvents), nil
}
