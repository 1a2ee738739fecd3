package hpm

import (
	"errors"

	"jasworkload/internal/isa"
)

// StreamMux is the instruction-stream face of the multiplexer: it sits
// on the trace path as an isa.Sink/BatchSink and rotates the underlying
// Multiplexer's group every windowInstr consumed instructions, the way
// hpmcount reprograms the physical counters on a timer while the
// workload runs underneath. It performs no per-instruction work beyond
// advancing a position counter, so it is essentially free on the batched
// path: a whole batch advances the counter with one addition.
//
// Window boundaries are quantized to batch boundaries when fed through
// ConsumeBatch — a window can run up to one batch long before the
// rotation fires. That mirrors the real facility, where the counter
// reprogramming interrupt also lands at an instruction boundary only
// after the timer fires, and keeps the batch path free of per-
// instruction window checks.
//
// When the model underneath the stream is the core-sharded detail group
// (power4.ShardGroup), rotations that sample live counters must land at
// drain barriers: the group publishes counters to the cores only at
// ShardGroup.Drain. The engine already ticks its monitors once per window
// right after the barrier, and a raw StreamMux composed with a sharded
// sink must follow the same order — model batch, Drain, then advance the
// mux. TestStreamMuxShardedParity pins that composition: samples are
// byte-identical to the fused loop's at every batch size and queue depth.
type StreamMux struct {
	mux         *Multiplexer
	windowInstr uint64
	pos         uint64
	err         error // first Tick error, latched
}

// NewStreamMux wraps mux so that a group rotation fires every
// windowInstr instructions of the consumed stream.
func NewStreamMux(mux *Multiplexer, windowInstr uint64) (*StreamMux, error) {
	if mux == nil {
		return nil, errors.New("hpm: nil multiplexer")
	}
	if windowInstr == 0 {
		return nil, errors.New("hpm: zero-instruction window")
	}
	return &StreamMux{mux: mux, windowInstr: windowInstr}, nil
}

// Consume implements isa.Sink.
func (s *StreamMux) Consume(ins *isa.Instr) { s.advance(1) }

// ConsumeBatch implements isa.BatchSink.
func (s *StreamMux) ConsumeBatch(b isa.Batch) { s.advance(uint64(len(b))) }

func (s *StreamMux) advance(n uint64) {
	s.pos += n
	for s.pos >= s.windowInstr {
		s.pos -= s.windowInstr
		if _, err := s.mux.Tick(); err != nil && s.err == nil {
			s.err = err
		}
	}
}

// Mux returns the wrapped multiplexer (for sample extraction).
func (s *StreamMux) Mux() *Multiplexer { return s.mux }

// Err returns the first rotation error encountered, if any.
func (s *StreamMux) Err() error { return s.err }
