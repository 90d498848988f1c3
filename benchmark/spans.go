package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one recorded interval. Run groups the spans of one query execution
// (0 for harness phases); Parent is the span that caused this one (0 for the
// root).
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Run     int                `json:"run"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory and writes them when the benchmark ends.
// The nil recorder records nothing, so untraced rounds pay one nil check.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, run int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, StartNS: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int, attrs map[string]float64) {
	if r == nil || id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.EndNS = int64(time.Since(r.t0))
	s.Attrs = attrs
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
