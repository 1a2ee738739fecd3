package power4

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// guardedAcct is acctState with the guarded spills that the branch-free
// ones in stages.go replaced: a spill runs only once an accumulator
// reaches 1. It is the oracle for TestSpillMatchesGuarded.
type guardedAcct acctState

func (a *guardedAcct) chargeBase(cy float64, kernel bool) {
	a.cycFrac += cy
	a.compFrac += cy
	if kernel {
		a.kcycFrac += cy
	}
	if a.cycFrac >= 1 || a.compFrac >= 1 || a.kcycFrac >= 1 {
		a.flushCycles()
	}
}

func (a *guardedAcct) chargeStall(cy float64, kernel bool) {
	a.cycFrac += cy
	if kernel {
		a.kcycFrac += cy
	}
	if a.cycFrac >= 1 || a.kcycFrac >= 1 {
		a.flushCycles()
	}
}

func (a *guardedAcct) flushCycles() {
	if a.cycFrac >= 1 {
		n := uint64(a.cycFrac)
		a.ctr.Add(EvCycles, n)
		a.cycFrac -= float64(n)
	}
	if a.compFrac >= 1 {
		n := uint64(a.compFrac)
		a.ctr.Add(EvCycWithCompletion, n)
		a.compFrac -= float64(n)
	}
	if a.kcycFrac >= 1 {
		n := uint64(a.kcycFrac)
		a.ctr.Add(EvKernelCycles, n)
		a.kcycFrac -= float64(n)
	}
}

func (a *guardedAcct) addDispatch(n float64) {
	a.dispFrac += n
	if a.dispFrac >= 1 {
		k := uint64(a.dispFrac)
		a.ctr.Add(EvInstDispatched, k)
		a.dispFrac -= float64(k)
	}
}

// TestSpillMatchesGuarded drives the branch-free charge helpers and the
// guarded oracle with the same random charge sequence and compares the
// whole accounting state bit for bit after every call. The charges are
// the default penalties and the products the model charges from them,
// values one ulp either side of small integers, 0, and tiny values.
func TestSpillMatchesGuarded(t *testing.T) {
	p := DefaultPenalties()
	var vals []float64
	pv := reflect.ValueOf(p)
	for i := 0; i < pv.NumField(); i++ {
		vals = append(vals, pv.Field(i).Float())
	}
	vals = append(vals,
		p.DERATMiss/p.RetryDispatchDiv,
		p.IMissL2*0.2, p.IMissMem*0.2,
		p.MemLatency*p.PrefCovered,
		p.L3Latency*(p.LoadExposure+p.BurstExposure*2),
		0, math.SmallestNonzeroFloat64, 1e-300, 1e-17, 0.5, maxPenalty)
	for k := 1.0; k <= 4; k++ {
		vals = append(vals, math.Nextafter(k, 0), k, math.Nextafter(k, 2*k))
	}

	rng := rand.New(rand.NewSource(1))
	var a acctState
	var g guardedAcct
	spills, quiet := 0, 0
	for call := 0; call < 200_000; call++ {
		x := vals[rng.Intn(len(vals))]
		kernel := rng.Intn(2) == 0
		before := g.ctr
		switch op := rng.Intn(3); op {
		case 0:
			a.chargeBase(x, kernel)
			g.chargeBase(x, kernel)
		case 1:
			a.chargeStall(x, kernel)
			g.chargeStall(x, kernel)
		default:
			a.addDispatch(x)
			g.addDispatch(x)
		}
		if g.ctr != before {
			spills++
		} else {
			quiet++
		}
		want := acctState(g)
		if a.ctr != want.ctr ||
			math.Float64bits(a.cycFrac) != math.Float64bits(want.cycFrac) ||
			math.Float64bits(a.compFrac) != math.Float64bits(want.compFrac) ||
			math.Float64bits(a.dispFrac) != math.Float64bits(want.dispFrac) ||
			math.Float64bits(a.kcycFrac) != math.Float64bits(want.kcycFrac) {
			t.Fatalf("call %d (charge %v, kernel %v): branch-free state\n%+v\nguarded state\n%+v", call, x, kernel, a, want)
		}
	}
	if spills == 0 || quiet == 0 {
		t.Fatalf("weak stream: %d calls spilled, %d did not", spills, quiet)
	}
}
