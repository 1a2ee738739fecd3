package isa

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func randomTrace(n int, seed int64) []Instr {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]Instr, n)
	for i := range trace {
		trace[i] = Instr{
			Class:  Class(rng.Intn(NumClasses)),
			PC:     uint64(rng.Int63()),
			EA:     uint64(rng.Int63()),
			Size:   uint8(1 << uint(rng.Intn(4))),
			Taken:  rng.Intn(2) == 0,
			Target: uint64(rng.Int63()),
			Return: rng.Intn(4) == 0,
			Kernel: rng.Intn(5) == 0,
		}
	}
	return trace
}

// TestBatcherEquivalence: streaming through a Batcher (any capacity, any
// sink kind) must be observably identical to direct per-instruction
// Consume calls.
func TestBatcherEquivalence(t *testing.T) {
	trace := randomTrace(1000, 42)

	var want CountingSink
	for i := range trace {
		want.Consume(&trace[i])
	}

	for _, capacity := range []int{1, 7, 256, 2048} {
		var got CountingSink
		b := NewBatcher(capacity)
		b.Bind(&got)
		fillSlots(b, trace)
		b.Flush()
		if got != want {
			t.Fatalf("cap %d: batched counts %+v != direct %+v", capacity, got, want)
		}
	}
}

// TestBatcherPlainSinkAdapter: a sink without ConsumeBatch must still
// receive every instruction, in order, one at a time.
func TestBatcherPlainSinkAdapter(t *testing.T) {
	trace := randomTrace(300, 7)
	var got []Instr
	b := NewBatcher(64)
	b.Bind(SinkFunc(func(ins *Instr) { got = append(got, *ins) }))
	fillSlots(b, trace)
	b.Flush()
	if !reflect.DeepEqual(got, trace) {
		t.Fatal("plain-sink adapter changed the stream")
	}
}

// TestBatcherBindFlushes: rebinding mid-stream must not drop or reorder
// buffered instructions — they flush to the old sink first.
func TestBatcherBindFlushes(t *testing.T) {
	trace := randomTrace(100, 9)
	var first, second Recorder
	b := NewBatcher(256)
	b.Bind(&first)
	fillSlots(b, trace[:60])
	b.Bind(&second) // must flush the 60 pending to first
	fillSlots(b, trace[60:])
	b.Flush()
	if len(first.Trace) != 60 || len(second.Trace) != 40 {
		t.Fatalf("split %d/%d, want 60/40", len(first.Trace), len(second.Trace))
	}
	all := append(append([]Instr(nil), first.Trace...), second.Trace...)
	if !reflect.DeepEqual(all, trace) {
		t.Fatal("rebinding perturbed the stream")
	}
}

// TestTeeConsumeBatch: every sink in the tee sees the full batch, with
// batch-aware sinks fed natively and plain sinks via the adapter loop.
func TestTeeConsumeBatch(t *testing.T) {
	trace := randomTrace(500, 3)

	var counts CountingSink
	var rec Recorder
	var plain []Instr
	tee := Tee{&counts, &rec, SinkFunc(func(ins *Instr) { plain = append(plain, *ins) })}
	Replay(trace, tee, 128)

	var want CountingSink
	for i := range trace {
		want.Consume(&trace[i])
	}
	if counts != want {
		t.Fatalf("tee counting sink diverged: %+v != %+v", counts, want)
	}
	if !reflect.DeepEqual(rec.Trace, trace) {
		t.Fatal("tee recorder diverged")
	}
	if !reflect.DeepEqual(plain, trace) {
		t.Fatal("tee plain sink diverged")
	}
}

// TestRecorderRoundTrip: record through a batcher, replay per
// instruction, and the trace survives both directions.
func TestRecorderRoundTrip(t *testing.T) {
	trace := randomTrace(700, 5)
	var rec Recorder
	b := NewBatcher(0) // default capacity
	b.Bind(&rec)
	fillSlots(b, trace)
	b.Flush()
	if !reflect.DeepEqual(rec.Trace, trace) {
		t.Fatal("recorder trace differs from input")
	}

	var back Recorder
	Replay(rec.Trace, SinkFunc(back.Consume), 0)
	if !reflect.DeepEqual(back.Trace, trace) {
		t.Fatal("replay through plain-sink path differs")
	}
}

// TestReplayContextCancellation: a cancelled context stops the replay at
// the next batch boundary (and a pre-cancelled one consumes nothing),
// while a live context replays the trace bit-identically to Replay.
func TestReplayContextCancellation(t *testing.T) {
	trace := randomTrace(4*DefaultBatchCap+7, 9)

	pre, stop := context.WithCancel(context.Background())
	stop()
	var none CountingSink
	if err := ReplayContext(pre, trace, &none, 256); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled replay = %v", err)
	}
	if none != (CountingSink{}) {
		t.Fatalf("pre-cancelled replay consumed instructions: %+v", none)
	}

	// Cancel from inside the sink: the plain-sink path re-checks every
	// DefaultBatchCap instructions, so exactly one check interval runs.
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	sink := SinkFunc(func(*Instr) {
		n++
		if n == DefaultBatchCap {
			cancel()
		}
	})
	if err := ReplayContext(ctx, trace, sink, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel = %v", err)
	}
	if n != DefaultBatchCap {
		t.Fatalf("consumed %d instructions after cancel, want %d", n, DefaultBatchCap)
	}

	var direct, viaCtx CountingSink
	Replay(trace, &direct, 128)
	if err := ReplayContext(context.Background(), trace, &viaCtx, 128); err != nil {
		t.Fatal(err)
	}
	if direct != viaCtx {
		t.Fatalf("live-context replay diverged: %+v vs %+v", viaCtx, direct)
	}
}

// batchSizes records the size of every batch it receives.
type batchSizes struct {
	Recorder
	sizes []int
}

func (s *batchSizes) ConsumeBatch(b Batch) {
	s.sizes = append(s.sizes, len(b))
	s.Recorder.ConsumeBatch(b)
}

// fillSlots streams trace through b with the in-place Slot/Commit form.
func fillSlots(b *Batcher, trace []Instr) {
	for i := range trace {
		ins := b.Slot()
		*ins = trace[i]
		b.Commit()
	}
}

// TestBatcherSlotFlushAtCapacity: Commit delivers a batch exactly when the
// buffer fills, and Flush delivers the remainder.
func TestBatcherSlotFlushAtCapacity(t *testing.T) {
	trace := randomTrace(1000, 11)
	var dst batchSizes
	b := NewBatcher(256)
	b.Bind(&dst)
	fillSlots(b, trace[:512])
	if !reflect.DeepEqual(dst.sizes, []int{256, 256}) {
		t.Fatalf("batches %v after 512 commits, want [256 256]", dst.sizes)
	}
	fillSlots(b, trace[512:])
	b.Flush()
	if !reflect.DeepEqual(dst.sizes, []int{256, 256, 256, 232}) {
		t.Fatalf("batches %v, want [256 256 256 232]", dst.sizes)
	}
	if !reflect.DeepEqual(dst.Trace, trace) {
		t.Fatal("slot-filled stream differs from input")
	}
}

// TestBatcherSlotUncommitted: a slot that is never committed is not
// delivered, and the next Slot call reuses it.
func TestBatcherSlotUncommitted(t *testing.T) {
	trace := randomTrace(3, 12)
	var dst Recorder
	b := NewBatcher(8)
	b.Bind(&dst)
	*b.Slot() = trace[0]
	b.Commit()
	*b.Slot() = Instr{Class: ClassSync, PC: 0xdead} // abandoned
	fillSlots(b, trace[1:])
	b.Flush()
	if !reflect.DeepEqual(dst.Trace, trace) {
		t.Fatalf("got %+v, want %+v", dst.Trace, trace)
	}
}
