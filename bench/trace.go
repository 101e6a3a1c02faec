package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are Unix microseconds so spans from
// child processes and from the parent share one clock.
type span struct {
	Name   string         `json:"name"`
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	TID    int            `json:"tid"`
	Key    string         `json:"key,omitempty"` // cell or job id
	Start  int64          `json:"start_us"`
	End    int64          `json:"end_us"`
	Args   map[string]any `json:"args,omitempty"`
}

// tracer keeps a pass's spans in memory until the pass ends. A nil tracer
// is tracing off: begin returns nil and nothing is recorded.
type tracer struct {
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{}
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span under parent (nil for a root span) on lane tid.
func (t *tracer) begin(name string, parent *openSpan, tid int, key string) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := span{Name: name, ID: id, TID: tid, Key: key, Start: time.Now().UnixMicro()}
	if parent != nil {
		s.Parent = parent.s.ID
	}
	return &openSpan{t: t, s: s}
}

// end closes the span now, with its counts as args.
func (o *openSpan) end(args map[string]any) { o.endAt(time.Now(), args) }

// endAt closes the span at a time the caller measured.
func (o *openSpan) endAt(t time.Time, args map[string]any) {
	if o == nil {
		return
	}
	o.s.End = t.UnixMicro()
	o.s.Args = args
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// record adds a completed span whose times the caller already measured.
func (t *tracer) record(name string, parent *openSpan, tid int, key string, start, end time.Time, args map[string]any) {
	if o := t.begin(name, parent, tid, key); o != nil {
		o.s.Start = start.UnixMicro()
		o.endAt(end, args)
	}
}

// collected returns the recorded spans in start order.
func (t *tracer) collected() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// traceEvent is one Chrome trace-event record ("X" complete events plus
// "M" metadata naming each pass), the format Perfetto and chrome://tracing
// open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the traced passes' spans, one process per pass,
// with timestamps relative to the first span of the run.
func writeChromeTrace(path string, ps []*passResult) error {
	var epoch int64
	for _, p := range ps {
		for _, s := range p.Spans {
			if epoch == 0 || s.Start < epoch {
				epoch = s.Start
			}
		}
	}
	events := []traceEvent{}
	for i, p := range ps {
		if len(p.Spans) == 0 {
			continue
		}
		pid := i + 1
		events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": fmt.Sprintf("pass %d", pid)}})
		for _, s := range p.Spans {
			args := map[string]any{"id": s.ID, "parent": s.Parent}
			if s.Key != "" {
				args["key"] = s.Key
			}
			for k, v := range s.Args {
				args[k] = v
			}
			cat, _, _ := strings.Cut(s.Name, ".")
			events = append(events, traceEvent{Name: s.Name, Cat: cat, Ph: "X",
				TS: s.Start - epoch, Dur: s.End - s.Start, PID: pid, TID: s.TID, Args: args})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
