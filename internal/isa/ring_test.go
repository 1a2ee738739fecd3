package isa

import "testing"

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Send(i)
		}
		r.Close()
	}()
	for i := 0; i < 100; i++ {
		got, ok := r.Recv()
		if !ok || got != i {
			t.Fatalf("recv %d: got %d ok=%v", i, got, ok)
		}
	}
	if _, ok := r.Recv(); ok {
		t.Fatal("recv after close+drain should report !ok")
	}
	<-done
}

func TestRingMinDepth(t *testing.T) {
	r := NewRing[string](0)
	if cap(r.ch) != 1 {
		t.Fatalf("depth 0 should clamp to 1, got %d", cap(r.ch))
	}
}

func TestPoolRecycles(t *testing.T) {
	allocs := 0
	p := NewPool(2, func() *int { allocs++; v := new(int); return v })
	if allocs != 2 {
		t.Fatalf("allocs=%d", allocs)
	}
	a := p.Get()
	b := p.Get()
	p.Put(a)
	p.Put(b)
	// Round trips must reuse the same two items, never alloc again.
	for i := 0; i < 10; i++ {
		v := p.Get()
		if v != a && v != b {
			t.Fatal("pool returned a foreign item")
		}
		p.Put(v)
	}
	if allocs != 2 {
		t.Fatalf("pool allocated after construction: %d", allocs)
	}
}

// A Put beyond the pool's size is a plumbing bug: it panics at once
// instead of blocking forever on the full channel.
func TestPoolPutOverflowPanics(t *testing.T) {
	p := NewPool(1, func() int { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("Put into a full pool returned")
		}
	}()
	p.Put(1)
}

func TestAnnotatedSyncAnn(t *testing.T) {
	a := &Annotated[uint32]{Ins: make([]Instr, 0, 4), Ann: make([]uint32, 0, 4)}
	a.Ins = append(a.Ins, Instr{}, Instr{}, Instr{})
	a.SyncAnn()
	if len(a.Ann) != 3 {
		t.Fatalf("SyncAnn len = %d", len(a.Ann))
	}
	// Growth beyond the original capacity must work too.
	for i := 0; i < 10; i++ {
		a.Ins = append(a.Ins, Instr{})
	}
	a.SyncAnn()
	if len(a.Ann) != len(a.Ins) {
		t.Fatalf("SyncAnn after growth: %d vs %d", len(a.Ann), len(a.Ins))
	}
	a.Reset()
	if len(a.Ins) != 0 || len(a.Ann) != 0 {
		t.Fatal("Reset did not empty the container")
	}
}
