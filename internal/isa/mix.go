package isa

import (
	"fmt"
	"math/rand"
)

// Mix describes a dynamic instruction mix as events-per-instruction rates.
// The remainder after all the listed classes is ClassALU.
//
// The paper reports for jas2004 user-level code: one load per 3.2 retired
// instructions, one store per 4.5, a LARX about every 600 instructions, and
// roughly one branch in five instructions (typical of compiled Java code).
type Mix struct {
	LoadRate     float64 // loads per instruction (1/3.2 for jas2004)
	StoreRate    float64 // stores per instruction (1/4.5)
	CondRate     float64 // conditional branches per instruction
	IndirectRate float64 // indirect branches per instruction
	LarxRate     float64 // LARX per instruction (1/600)
	SyncRate     float64 // SYNC-family per instruction
}

// Jas2004UserMix returns the mix measured for jas2004 user-level code
// (Section 4.2.3 and 4.2.4 of the paper).
func Jas2004UserMix() Mix {
	return Mix{
		LoadRate:     1.0 / 3.2,
		StoreRate:    1.0 / 4.5,
		CondRate:     0.16,  // ~1 conditional branch per 6 instructions
		IndirectRate: 0.022, // virtual calls, returns, switch tables
		LarxRate:     1.0 / 600.0,
		SyncRate:     1.0 / 850.0,
	}
}

// GCMix returns the mix used while the garbage collector runs: tight loops
// with heavier branching, more loads (pointer chasing during mark), fewer
// stores, and far fewer SYNC/LARX (Section 4.2.4: "GC contains far fewer
// SYNC instructions").
func GCMix() Mix {
	return Mix{
		LoadRate:     1.0 / 2.8,
		StoreRate:    1.0 / 9.0,
		CondRate:     0.22,
		IndirectRate: 0.004,
		LarxRate:     1.0 / 9000.0,
		SyncRate:     1.0 / 12000.0,
	}
}

// KernelMix returns the mix for privileged (OS) code: syscall paths with
// heavy synchronization — the paper measures SYNC-in-SRQ ~7% of cycles in
// privileged code versus <1% in user code.
func KernelMix() Mix {
	return Mix{
		LoadRate:     1.0 / 3.4,
		StoreRate:    1.0 / 4.8,
		CondRate:     0.17,
		IndirectRate: 0.012,
		LarxRate:     1.0 / 300.0,
		SyncRate:     1.0 / 110.0,
	}
}

// Validate checks that the rates are sane and sum below 1.
func (m Mix) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"LoadRate", m.LoadRate}, {"StoreRate", m.StoreRate},
		{"CondRate", m.CondRate}, {"IndirectRate", m.IndirectRate},
		{"LarxRate", m.LarxRate}, {"SyncRate", m.SyncRate},
	}
	var sum float64
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("isa: %s = %v out of [0,1]", r.name, r.v)
		}
		sum += r.v
	}
	if sum >= 1 {
		return fmt.Errorf("isa: mix rates sum to %v >= 1, no room for ALU ops", sum)
	}
	return nil
}

// MixSampler emits instruction classes at exactly the rates of a Mix using
// per-class fractional accumulators, with a seeded RNG used only to break
// scheduling ties so streams do not phase-lock. The long-run class
// frequencies are deterministic and exact, which makes the generated
// streams match the paper's measured rates precisely.
//
// The sampler sits on the trace emitter's per-instruction path, so the
// classes with a non-zero rate are resolved once, at construction, into a
// fixed table walked in class order; Next touches nothing else.
type MixSampler struct {
	mix    Mix
	rng    *rand.Rand
	active [NumClasses]mixSlot // classes with a non-zero rate, in class order
	n      int                 // live entries in active
}

// mixSlot is one active class: its rate and fractional accumulator.
type mixSlot struct {
	class Class
	rate  float64
	acc   float64
}

// NewMixSampler validates the mix and builds a sampler.
func NewMixSampler(mix Mix, seed int64) (*MixSampler, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	s := &MixSampler{mix: mix, rng: rand.New(rand.NewSource(seed))}
	for c := ClassLoad; c < numClasses; c++ {
		if r := mix.rate(c); r != 0 {
			s.active[s.n] = mixSlot{class: c, rate: r}
			s.n++
		}
	}
	s.drawAccumulators()
	return s, nil
}

// Reset re-seeds the sampler and redraws its accumulators, leaving it in
// exactly the state NewMixSampler(s.Mix(), seed) would build, without
// allocating a new RNG source.
func (s *MixSampler) Reset(seed int64) {
	s.rng.Seed(seed)
	s.drawAccumulators()
}

// drawAccumulators desynchronizes the accumulators so the first
// instructions are not all memory ops. One draw is taken per class, ALU
// and STCX included, so the RNG stream does not depend on which rates are
// zero.
func (s *MixSampler) drawAccumulators() {
	var acc [NumClasses]float64
	for i := range acc {
		acc[i] = s.rng.Float64()
	}
	for i := range s.active[:s.n] {
		s.active[i].acc = acc[s.active[i].class]
	}
}

// Mix returns the sampler's configured mix.
func (s *MixSampler) Mix() Mix { return s.mix }

// rate returns the configured rate for class c.
func (m Mix) rate(c Class) float64 {
	switch c {
	case ClassLoad:
		return m.LoadRate
	case ClassStore:
		return m.StoreRate
	case ClassBranchCond:
		return m.CondRate
	case ClassBranchIndirect:
		return m.IndirectRate
	case ClassLarx:
		return m.LarxRate
	case ClassSync:
		return m.SyncRate
	default:
		return 0 // ALU is the remainder; STCX is emitted by lock models paired with LARX
	}
}

// Next returns the class of the next instruction. Each non-ALU class has a
// fractional accumulator advanced by its rate; when the accumulator crosses
// 1, that class is due. When several classes are due at once, one is chosen
// uniformly and the rest stay due, preserving exact long-run rates.
func (s *MixSampler) Next() Class {
	var due [NumClasses]int8 // indexes into active
	nd := 0
	for i := range s.active[:s.n] {
		a := &s.active[i]
		a.acc += a.rate
		if a.acc >= 1 {
			due[nd] = int8(i)
			nd++
		}
	}
	if nd == 0 {
		return ClassALU
	}
	pick := due[0]
	if nd > 1 {
		pick = due[s.rng.Intn(nd)]
	}
	s.active[pick].acc -= 1
	return s.active[pick].class
}
