package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, start and end relative
// to the tracer's origin, and the index of the span that caused it (-1
// for a root).
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// tracer keeps every span of a traced run in memory until the run
// ends. Spans are recorded by the benchmark around its own calls into
// the layers, never inside the program.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

// do runs fn inside a span and returns the span's duration. A nil
// tracer just runs fn.
func (t *tracer) do(name string, parent int, fn func()) time.Duration {
	if t == nil {
		fn()
		return 0
	}
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// durations returns the millisecond durations of every closed span
// called name, in recording order.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// spanSummary is the per-name aggregate written out when a traced run
// ends: call count, total time, and self time (total minus the part of
// each span its children cover).
type spanSummary struct {
	name          string
	count         int
	totalMs, self float64
}

func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	by := map[string]*spanSummary{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		agg := by[s.name]
		if agg == nil {
			agg = &spanSummary{name: s.name}
			by[s.name] = agg
		}
		agg.count++
		agg.totalMs += ms(s.end - s.start)
		agg.self += ms(s.end - s.start - child[i])
	}
	out := make([]spanSummary, 0, len(by))
	for _, agg := range by {
		out = append(out, *agg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeSummary prints the span table.
func (t *tracer) writeSummary(w io.Writer) {
	fmt.Fprintf(w, "%-22s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range t.summary() {
		fmt.Fprintf(w, "%-22s %7d %12.3f %12.3f\n", s.name, s.count, s.totalMs, s.self)
	}
}
