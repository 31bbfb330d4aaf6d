package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program, or a phase
// derived from a callback the program made back (a campaign's replay
// window, reported through OnReport).
type span struct {
	ID, Parent int // Parent 0 is the root
	Op         int // the operation (pass or request) the span belongs to
	Lane       int // the client or worker that made the call
	Name       string
	Start, End time.Duration // since the tracer's epoch
	// Mallocs and Bytes are runtime.MemStats deltas around the call. They
	// are process-wide, so under two concurrent rmtd clients they include
	// the other client's allocations.
	Mallocs, Bytes uint64
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// call runs fn as a span named name under parent and returns fn's error.
// fn receives the new span's id to parent its own calls.
func (t *tracer) call(name string, parent, op, lane int, fn func(id int) error) error {
	if t == nil {
		return fn(0)
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Lane: lane, Name: name})
	t.mu.Unlock()
	start := time.Since(t.epoch)
	d, mallocs, bytes, err := timed(func() error { return fn(id) })
	t.mu.Lock()
	s := &t.spans[id-1]
	s.Start, s.End = start, start+d
	s.Mallocs, s.Bytes = mallocs, bytes
	t.mu.Unlock()
	return err
}

// add records a span whose bounds were observed rather than wrapped.
func (t *tracer) add(name string, parent, op, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Lane: lane, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, timestamps in microseconds), loadable in Perfetto.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op,
				"mallocs": s.Mallocs, "bytes": s.Bytes},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
