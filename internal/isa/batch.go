package isa

import "context"

// Batch is a slice of instructions delivered to a BatchSink in emission
// order. A batch is only valid for the duration of the ConsumeBatch call:
// the emitter reuses the backing array, so sinks that need to retain
// instructions must copy them out.
type Batch = []Instr

// BatchSink is a Sink that can also accept instructions a batch at a
// time. ConsumeBatch(b) must be observably equivalent to calling
// Consume(&b[i]) for i in order — batching is a dispatch optimisation,
// never a semantic one.
type BatchSink interface {
	Sink
	ConsumeBatch(b Batch)
}

// DefaultBatchCap is the batch buffer capacity used by the trace
// emitter. 256 instructions keep the buffer at ~10 KiB (well inside L1D)
// while amortising the interface dispatch and per-batch counter flush
// over enough work that neither shows up in profiles.
const DefaultBatchCap = 256

// Batcher accumulates instructions into a reusable fixed-capacity buffer
// and flushes them to the bound sink — via ConsumeBatch when the sink
// supports it, or one Consume call per instruction otherwise, so plain
// Sinks keep working unchanged. The zero Batcher is not ready for use;
// call NewBatcher.
//
// The producer fills the buffer in place: Slot hands out the next free
// entry and Commit appends it, so an instruction is written once, straight
// into the batch, with no staging copy and no interface call.
type Batcher struct {
	buf  []Instr // full capacity; buf[:n] is pending
	n    int
	dst  Sink
	bdst BatchSink // non-nil iff dst implements BatchSink
}

// NewBatcher returns a Batcher with the given buffer capacity
// (DefaultBatchCap if capacity <= 0), bound to no sink.
func NewBatcher(capacity int) *Batcher {
	if capacity <= 0 {
		capacity = DefaultBatchCap
	}
	return &Batcher{buf: make([]Instr, capacity)}
}

// Bind flushes any buffered instructions to the previously bound sink
// and redirects the batcher to dst. Binding is unconditional: sinks may
// be uncomparable (SinkFunc), so no same-sink check is attempted.
func (b *Batcher) Bind(dst Sink) {
	b.Flush()
	b.dst = dst
	b.bdst, _ = dst.(BatchSink)
}

// Slot returns the next free buffer entry. Its previous contents are
// stale: the caller overwrites every field, then calls Commit. Until
// Commit, the entry is not part of the batch, and calling Slot again
// returns the same entry.
func (b *Batcher) Slot() *Instr { return &b.buf[b.n] }

// Commit appends the entry last returned by Slot to the batch and flushes
// when the buffer reaches capacity.
func (b *Batcher) Commit() {
	b.n++
	if b.n == len(b.buf) {
		b.Flush()
	}
}

// Flush delivers all buffered instructions to the bound sink and empties
// the buffer. It is a no-op when the buffer is empty or no sink is bound.
func (b *Batcher) Flush() {
	if b.n > 0 && b.dst != nil {
		pending := b.buf[:b.n]
		if b.bdst != nil {
			b.bdst.ConsumeBatch(pending)
		} else {
			for i := range pending {
				b.dst.Consume(&pending[i])
			}
		}
	}
	b.n = 0
}

// ConsumeBatch implements BatchSink for CountingSink: class counts
// commute, so the whole batch folds into the counters in one pass.
func (c *CountingSink) ConsumeBatch(b Batch) {
	c.Total += uint64(len(b))
	for i := range b {
		c.ByKind[b[i].Class]++
		if b[i].Kernel {
			c.Kernel++
		}
	}
}

// ConsumeBatch implements BatchSink for Tee: each sink receives the full
// batch (natively when it is itself a BatchSink) before the next sink,
// matching the per-instruction Tee ordering guarantee per sink. Note the
// cross-sink interleaving differs from per-instruction Tee (sink 0 sees
// the whole batch before sink 1 sees any of it); sinks in this codebase
// are independent, so only the per-sink order is part of the contract.
func (t Tee) ConsumeBatch(b Batch) {
	for _, s := range t {
		if bs, ok := s.(BatchSink); ok {
			bs.ConsumeBatch(b)
		} else {
			for i := range b {
				s.Consume(&b[i])
			}
		}
	}
}

// Recorder retains every instruction it consumes, in order. It is the
// trace recorder used by equivalence tests and the detail-stream
// benchmark: record once, replay many times.
type Recorder struct {
	Trace []Instr
}

// Consume implements Sink.
func (r *Recorder) Consume(ins *Instr) { r.Trace = append(r.Trace, *ins) }

// ConsumeBatch implements BatchSink.
func (r *Recorder) ConsumeBatch(b Batch) { r.Trace = append(r.Trace, b...) }

// Replay streams a recorded trace into dst in fixed-size batches when
// dst is a BatchSink, or instruction by instruction otherwise.
func Replay(trace []Instr, dst Sink, batchCap int) {
	ReplayContext(context.Background(), trace, dst, batchCap)
}

// ReplayContext is Replay with a cancellation point between batches: a
// multi-million-instruction replay stops within one batch (batchCap
// instructions) of ctx being cancelled instead of running to the end of
// the trace. Returns ctx's error when aborted, nil on a complete replay.
// Batches already delivered are never unwound, so an uncancelled ctx
// yields a replay identical to Replay.
func ReplayContext(ctx context.Context, trace []Instr, dst Sink, batchCap int) error {
	if batchCap <= 0 {
		batchCap = DefaultBatchCap
	}
	if bs, ok := dst.(BatchSink); ok {
		for len(trace) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			n := batchCap
			if n > len(trace) {
				n = len(trace)
			}
			bs.ConsumeBatch(trace[:n])
			trace = trace[n:]
		}
		return nil
	}
	for i := range trace {
		if i%DefaultBatchCap == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		dst.Consume(&trace[i])
	}
	return nil
}
