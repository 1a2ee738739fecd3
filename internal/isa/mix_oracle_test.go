package isa

import (
	"math/rand"
	"testing"
)

// refMixSampler is the straightforward sampler the table-driven MixSampler
// replaced, kept only as a test oracle: it re-derives every class's rate
// through a switch and builds the due set in a fresh slice on every draw.
// The fast sampler must reproduce its class sequence exactly — same float
// accumulation order, same tie-break draws.
type refMixSampler struct {
	mix Mix
	rng *rand.Rand
	acc [NumClasses]float64
}

func newRefMixSampler(mix Mix, seed int64) *refMixSampler {
	s := &refMixSampler{mix: mix, rng: rand.New(rand.NewSource(seed))}
	for i := range s.acc {
		s.acc[i] = s.rng.Float64()
	}
	return s
}

func (s *refMixSampler) rate(c Class) float64 {
	switch c {
	case ClassLoad:
		return s.mix.LoadRate
	case ClassStore:
		return s.mix.StoreRate
	case ClassBranchCond:
		return s.mix.CondRate
	case ClassBranchIndirect:
		return s.mix.IndirectRate
	case ClassLarx:
		return s.mix.LarxRate
	case ClassStcx:
		return 0
	case ClassSync:
		return s.mix.SyncRate
	default:
		return 0
	}
}

func (s *refMixSampler) Next() Class {
	due := make([]Class, 0, 4)
	for c := ClassLoad; c < numClasses; c++ {
		r := s.rate(c)
		if r == 0 {
			continue
		}
		s.acc[c] += r
		if s.acc[c] >= 1 {
			due = append(due, c)
		}
	}
	if len(due) == 0 {
		return ClassALU
	}
	pick := due[0]
	if len(due) > 1 {
		pick = due[s.rng.Intn(len(due))]
	}
	s.acc[pick] -= 1
	return pick
}

var oracleMixes = []struct {
	name string
	mix  Mix
}{
	{"user", Jas2004UserMix()},
	{"kernel", KernelMix()},
	{"gc", GCMix()},
	// A sparse mix (zero rates in the middle of the class order) checks
	// that the active table skips exactly the classes the oracle skips.
	{"sparse", Mix{LoadRate: 0.3, CondRate: 0.2, SyncRate: 0.01}},
}

// TestMixSamplerMatchesOracle: the table-driven sampler emits the same
// class sequence as the reference sampler, draw for draw, over a million
// draws per mix and seed.
func TestMixSamplerMatchesOracle(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, m := range oracleMixes {
		for _, seed := range []int64{1, 101, 104, -7} {
			s, err := NewMixSampler(m.mix, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefMixSampler(m.mix, seed)
			for i := 0; i < draws; i++ {
				if got, want := s.Next(), ref.Next(); got != want {
					t.Fatalf("%s seed %d: draw %d = %v, oracle %v", m.name, seed, i, got, want)
				}
			}
			// The tie-break RNG must have advanced identically too.
			if got, want := s.rng.Int63(), ref.rng.Int63(); got != want {
				t.Fatalf("%s seed %d: RNG diverged after %d draws", m.name, seed, draws)
			}
		}
	}
}

// TestMixSamplerReset: Reset(seed) leaves a used sampler in exactly the
// state of a freshly built one.
func TestMixSamplerReset(t *testing.T) {
	s, err := NewMixSampler(GCMix(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12345; i++ {
		s.Next()
	}
	s.Reset(104)
	ref := newRefMixSampler(GCMix(), 104)
	for i := 0; i < 100_000; i++ {
		if got, want := s.Next(), ref.Next(); got != want {
			t.Fatalf("after Reset: draw %d = %v, oracle %v", i, got, want)
		}
	}
}

var benchClass Class

// BenchmarkMixSamplerNext times one class draw of the jas2004 user mix,
// the emitter's per-instruction sampling cost.
func BenchmarkMixSamplerNext(b *testing.B) {
	s, err := NewMixSampler(Jas2004UserMix(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchClass = s.Next()
	}
}
