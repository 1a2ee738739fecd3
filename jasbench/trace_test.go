package main

import (
	"bytes"
	"reflect"
	"testing"
)

func span(id, parent int32, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimesNestedAndOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "root", 0, 100),
		span(2, 1, "a", 10, 40),   // overlaps b
		span(3, 1, "b", 30, 60),   // overlaps a
		span(4, 2, "a.x", 15, 20), // nested in a: only a loses it
		span(5, 1, "c", 90, 120),  // reaches past root: clipped to 90..100
		span(6, 0, "other", 0, 7), // unrelated root
	}
	got := selfTimes(spans)
	// root: 100 minus the union [10,60] and [90,100] = 100 - 60.
	want := []int64{40, 25, 30, 5, 30, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesIdenticalAndContainedChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "root", 0, 50),
		span(2, 1, "a", 10, 20),
		span(3, 1, "b", 10, 20), // identical to a
		span(4, 1, "c", 12, 18), // inside a and b
		span(5, 1, "d", 20, 30), // touches a's end
	}
	if got := selfTimes(spans)[0]; got != 30 {
		t.Errorf("root self = %d, want 30", got)
	}
}

func TestAggregateByName(t *testing.T) {
	spans := []Span{
		span(1, 0, "op", 0, 100),
		span(2, 1, "feed", 0, 10),
		span(3, 1, "feed", 20, 50),
	}
	agg := aggregateByName(spans)
	if f := agg["feed"]; f.Count != 2 || f.Total != 40 || f.Self != 40 {
		t.Errorf("feed = %+v", *f)
	}
	if o := agg["op"]; o.Count != 1 || o.Total != 100 || o.Self != 60 {
		t.Errorf("op = %+v", *o)
	}
}

func TestTracerRecordsParentsAndNilIsOff(t *testing.T) {
	var off *Tracer
	if id := off.Begin("x", 0, ""); id != 0 {
		t.Errorf("nil tracer Begin = %d", id)
	}
	off.End(0)
	if off.Spans() != nil {
		t.Error("nil tracer has spans")
	}

	tr := newTracer()
	root := tr.Begin("root", 0, "req-1")
	child := tr.Begin("child", root, "req-1")
	tr.End(child)
	tr.End(root)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Req != "req-1" {
		t.Fatalf("spans = %+v", s)
	}
	if s[1].Start < s[0].Start || s[1].End > s[0].End || s[0].End < s[0].Start {
		t.Errorf("child %+v not inside root %+v", s[1], s[0])
	}
}

func TestSpanDumpRoundTrip(t *testing.T) {
	in := []Span{
		{ID: 1, Parent: 0, Name: "replay", Req: "replay:0", Start: 5, End: 900},
		{ID: 2, Parent: 1, Name: "power4.feed", Start: 10, End: 20},
		{ID: 3, Parent: 1, Name: `odd "name"`, Req: "job-7", Start: 1 << 40, End: 1<<40 + 3},
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n got %+v\nwant %+v", out, in)
	}
	if _, err := readSpans(bytes.NewBufferString(`{"id":1}` + "\n{broken")); err == nil {
		t.Error("truncated dump read without error")
	}
}
