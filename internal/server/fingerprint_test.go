package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"jasworkload/internal/isa"
)

// streamSHA256 hashes every field of every instruction in order, so any
// drift in class, address, size, branch outcome or privilege changes it.
func streamSHA256(trace []isa.Instr) string {
	h := sha256.New()
	var buf [36]byte
	flag := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	for i := range trace {
		ins := &trace[i]
		buf[0] = byte(ins.Class)
		binary.LittleEndian.PutUint64(buf[1:], ins.PC)
		binary.LittleEndian.PutUint64(buf[9:], ins.EA)
		buf[17] = ins.Size
		buf[18] = flag(ins.Taken)
		binary.LittleEndian.PutUint64(buf[19:], ins.Target)
		buf[27] = flag(ins.Return)
		buf[28] = flag(ins.Kernel)
		h.Write(buf[:29])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// emitStreamFingerprint is the SHA-256 of the stream below as the emitter
// produced it before the table-driven sampler, in-place batch slots and
// cached method walk; those are pure speedups and must not move one byte.
const emitStreamFingerprint = "065b2ec9a7c8b30c463e0558abd882d724f6b35084472f6107127459b1c20f69"

// TestEmitStreamFingerprint pins the emitter's exact output. A fixed-seed
// jas2004 server first warms its JIT with request-level-only traffic, so
// the JIT segment walks compiled method bodies (and wraps inside them).
// It then runs a fixed request sequence (every request class, timestamps
// spread over the background phase cycle so the cold-phase stray, burst
// and polymorphic paths fire) with two GC stretches and one idle stretch
// in between, all into one Recorder.
func TestEmitStreamFingerprint(t *testing.T) {
	s := rig(t, 5)
	for i := 0; i < 400; i++ {
		if _, err := s.Execute(float64(i)*100, RequestType(i%NumRequestTypes), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if share := s.JIT().CompiledShare(); share < 0.3 {
		t.Fatalf("JIT compiled share %.2f after warm-up", share)
	}
	var rec isa.Recorder
	for i := 0; i < 24; i++ {
		rt := RequestType(i % NumRequestTypes)
		if _, err := s.Execute(40000+float64(i)*1700, rt, &rec, 0.15); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 7, 15:
			s.EmitGC(&rec, 20000)
		case 11:
			s.EmitIdle(&rec, 5000)
		}
	}
	if len(rec.Trace) < 200000 {
		t.Fatalf("only %d instructions recorded", len(rec.Trace))
	}
	if got := streamSHA256(rec.Trace); got != emitStreamFingerprint {
		t.Fatalf("emitter stream drifted: %d instructions, sha256 %s, want %s",
			len(rec.Trace), got, emitStreamFingerprint)
	}
}
