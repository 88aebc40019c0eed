package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval of the benchmark's own work around a call into a
// layer. Times are Unix nanoseconds so that spans recorded by child
// processes merge onto the bench process's time line.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Req    int64  `json:"req,omitempty"` // request index of generator spans
	Proc   int    `json:"proc"`          // 0 is the bench process, 1 a fit child
	Lane   int    `json:"lane"`          // generator connection, or 0
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per span site.
type recorder struct {
	proc  int
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder(proc int) *recorder { return &recorder{proc: proc, next: int64(proc) << 32} }

// begin reserves a span id and returns it with the start time.
func (r *recorder) begin() (int64, time.Time) {
	now := time.Now()
	if r == nil {
		return 0, now
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next, now
}

// end records span id, started at start, as ending now.
func (r *recorder) end(id, parent int64, name string, start time.Time) {
	r.add(span{ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: time.Now().UnixNano()})
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	s.Proc = r.proc
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// do runs f inside a span named name, passing f the span's id.
func (r *recorder) do(parent int64, name string, f func(id int64) error) error {
	id, start := r.begin()
	err := f(id)
	r.end(id, parent, name, start)
	return err
}

// addAll records spans another process recorded.
func (r *recorder) addAll(spans []span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeChrome writes spans as a Chrome trace-event file (load it in
// chrome://tracing or ui.perfetto.dev). Each span becomes a complete ("X")
// event; its id, parent and request index are in args. Timestamps are
// microseconds since origin.
func writeChrome(path string, spans []span, origin time.Time, meta any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{
		{Name: "process_name", Ph: "M", Pid: 0, Args: map[string]any{"name": "bench"}},
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "fit child"}},
	}
	for _, s := range spans {
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Req != 0 {
			args["req"] = s.Req
		}
		events = append(events, event{
			Name: s.Name, Cat: "bench", Ph: "X",
			Ts:  float64(s.Start-origin.UnixNano()) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: s.Proc, Tid: s.Lane, Args: args,
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
