package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one app (or
// one lease) share an ID.
type span struct {
	Name  string `json:"name"`
	ID    int64  `json:"id"`
	Start int64  `json:"start_ns"` // since the run's origin
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; they are written
// out and aggregated only after the timed phase. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// add records [start, end) under name.
func (t *tracer) add(name string, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addOffsets records a span given as offsets from the tracer's origin.
func (t *tracer) addOffsets(name string, id int64, start, end time.Duration) {
	if t == nil {
		return
	}
	t.add(name, id, t.t0.Add(start), t.t0.Add(end))
}

// durations returns the µs durations of every span named name.
func (t *tracer) durations(name string) *Samples {
	s := &Samples{}
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.Name == name {
			s.Add(float64(sp.End-sp.Start) / 1e3)
		}
	}
	return s
}

// write dumps the spans as JSONL in start order.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
