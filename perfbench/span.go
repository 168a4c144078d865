package main

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Spans of one operation share Op (a
// Decompose call index or a job ID); Parent names the enclosing span.
type Span struct {
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Op     string        `json:"op"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// NewTracer starts a tracer whose span times are offsets from now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Time runs fn, records it as a span and returns its wall time and error.
// A nil *Tracer still times fn.
func (t *Tracer) Time(layer, name, op, parent string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if t != nil {
		off := start.Sub(t.origin)
		t.mu.Lock()
		t.spans = append(t.spans, Span{Layer: layer, Name: name, Op: op, Parent: parent, Start: off, End: off + d})
		t.mu.Unlock()
	}
	return d, err
}

// Span records a span whose times were taken elsewhere (job timestamps).
func (t *Tracer) Span(layer, name, op string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Layer: layer, Name: name, Op: op,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	t.mu.Unlock()
}

// WriteJSONL writes every span, one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint median (mean of the two middle values for an
// even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
