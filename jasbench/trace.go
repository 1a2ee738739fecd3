package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch; Parent is the ID of the span that
// caused it (0 for a root); Req groups the spans of one request or job.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer is a valid, disabled tracer: every method is a no-op that reads
// no clock, so traced and untraced code paths are the same code.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Begin(name string, parent int32, req string) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// End closes the span Begin opened.
func (t *Tracer) End(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records a span whose interval was measured by the caller.
func (t *Tracer) Add(name string, parent int32, req string, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// Spans returns a copy of the spans recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the part of its interval that the union of
// its direct children covers. Children may nest (a grandchild is already
// inside its parent) or overlap one another (concurrent phases); the union
// counts each covered nanosecond once, and a child reaching outside its
// parent is clipped to the parent's interval.
func selfTimes(spans []Span) []int64 {
	index := make(map[int32]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int32][]Span)
	for _, s := range spans {
		if _, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns how many nanoseconds of [lo, hi) the union of the
// intervals in kids covers.
func covered(lo, hi int64, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// nameStats aggregates spans by name.
type nameStats struct {
	Count int
	Total int64 // summed durations, ns
	Self  int64 // summed self times, ns
	durs  []float64
}

// spanStats is spans aggregated by name.
type spanStats map[string]*nameStats

func aggregateByName(spans []Span) spanStats {
	self := selfTimes(spans)
	out := spanStats{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &nameStats{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.Dur()
		st.Self += self[i]
		st.durs = append(st.durs, float64(s.Dur()))
	}
	return out
}

// selfSeconds sums the self times of the named spans, in seconds.
func (a spanStats) selfSeconds(names ...string) float64 {
	var ns int64
	for _, n := range names {
		if st := a[n]; st != nil {
			ns += st.Self
		}
	}
	return float64(ns) / 1e9
}

// totalSeconds sums the durations of the named spans, in seconds.
func (a spanStats) totalSeconds(name string) float64 {
	if st := a[name]; st != nil {
		return float64(st.Total) / 1e9
	}
	return 0
}

func (a spanStats) count(name string) int {
	if st := a[name]; st != nil {
		return st.Count
	}
	return 0
}

// durs returns the named spans' durations in nanoseconds.
func (a spanStats) durs(name string) []float64 {
	if st := a[name]; st != nil {
		return st.durs
	}
	return nil
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readSpans reads what writeSpans wrote.
func readSpans(r io.Reader) ([]Span, error) {
	var out []Span
	dec := json.NewDecoder(r)
	for {
		var s Span
		err := dec.Decode(&s)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("span %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
}
