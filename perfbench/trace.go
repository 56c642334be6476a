package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call from the harness into a layer: its name, its
// interval, and the span that caused it (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	off   atomic.Bool // set to pause recording, for the overhead comparison
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span; End closes it. The zero spanRef (from a nil
// tracer) is inert.
type spanRef struct {
	t  *tracer
	id int
}

// Start opens a span named name under parent (0 for none).
func (t *tracer) Start(name string, parent spanRef) spanRef {
	if t == nil || t.off.Load() {
		return spanRef{}
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent.id, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return spanRef{t: t, id: id}
}

// End closes the span.
func (s spanRef) End() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// Record adds an already-measured span, for intervals timed on a hot
// path where opening a span per event would cost more than the event.
func (t *tracer) Record(name string, parent spanRef, start, end time.Time) {
	if t == nil || t.off.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent.id, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (t *tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the closed spans as JSON.
func (t *tracer) WriteFile(path string) error {
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover. Children may overlap one another
// (parallel calls) and may run past their parent; only the covered
// part of the parent's own interval is subtracted.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered := int64(0)
		curA, curB := int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

// selfSamples returns the self time of every span named name, in
// seconds, in recording order; self is selfTimes(spans).
func selfSamples(spans []Span, self map[int]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/1e9)
		}
	}
	return out
}
