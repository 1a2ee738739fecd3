package hpm

import (
	"testing"

	"jasworkload/internal/power4"
)

// fakeSource is a scriptable CounterSource.
type fakeSource struct {
	ctr power4.Counters
}

func (f *fakeSource) Counters() power4.Counters { return f.ctr }

func (f *fakeSource) bump(e power4.Event, n uint64) { f.ctr.Add(e, n) }

func cpiGroup() Group {
	g, _ := GroupByName(StandardGroups(), "cpi")
	return g
}

func TestGroupValidate(t *testing.T) {
	if err := (Group{}).Validate(); err == nil {
		t.Fatal("empty group accepted")
	}
	too := Group{Name: "big", Events: make([]power4.Event, GroupSize+1)}
	for i := range too.Events {
		too.Events[i] = power4.Event(i)
	}
	if err := too.Validate(); err == nil {
		t.Fatal("oversized group accepted")
	}
	dup := Group{Name: "dup", Events: []power4.Event{power4.EvCycles, power4.EvCycles}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate events accepted")
	}
}

func TestStandardGroupsValid(t *testing.T) {
	gs := StandardGroups()
	if len(gs) < 6 {
		t.Fatalf("only %d standard groups", len(gs))
	}
	for _, g := range gs {
		if err := g.Validate(); err != nil {
			t.Errorf("group %q invalid: %v", g.Name, err)
		}
		// Every group carries cycles + instructions for CPI.
		if !g.Has(power4.EvCycles) || !g.Has(power4.EvInstCompleted) {
			t.Errorf("group %q lacks CPI base events", g.Name)
		}
	}
	if _, ok := GroupByName(gs, "branch"); !ok {
		t.Fatal("branch group missing")
	}
	if _, ok := GroupByName(gs, "nope"); ok {
		t.Fatal("bogus group found")
	}
}

func TestMonitorValidation(t *testing.T) {
	src := &fakeSource{}
	if _, err := NewMonitor(nil, cpiGroup(), 100); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := NewMonitor(src, Group{}, 100); err == nil {
		t.Fatal("bad group accepted")
	}
	if _, err := NewMonitor(src, cpiGroup(), 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestMonitorDeltas(t *testing.T) {
	src := &fakeSource{}
	src.bump(power4.EvCycles, 1000) // pre-existing counts must not leak in
	m, err := NewMonitor(src, cpiGroup(), 100)
	if err != nil {
		t.Fatal(err)
	}
	src.bump(power4.EvCycles, 300)
	src.bump(power4.EvInstCompleted, 100)
	s := m.Tick()
	if s.Values[power4.EvCycles] != 300 || s.Values[power4.EvInstCompleted] != 100 {
		t.Fatalf("sample = %+v", s.Values)
	}
	// Second window sees only new increments.
	src.bump(power4.EvCycles, 50)
	s = m.Tick()
	if s.Values[power4.EvCycles] != 50 {
		t.Fatalf("second window cycles = %d", s.Values[power4.EvCycles])
	}
	if len(m.Samples()) != 2 {
		t.Fatalf("samples = %d", len(m.Samples()))
	}
	if m.Samples()[1].Window != 1 {
		t.Fatal("window numbering wrong")
	}
}

func TestMonitorGroupExclusivity(t *testing.T) {
	src := &fakeSource{}
	m, _ := NewMonitor(src, cpiGroup(), 100)
	src.bump(power4.EvBrCondMispred, 42) // branch-group event
	s := m.Tick()
	if _, ok := s.Values[power4.EvBrCondMispred]; ok {
		t.Fatal("sample exposed an event outside the active group")
	}
	if _, err := m.Series(power4.EvBrCondMispred); err == nil {
		t.Fatal("Series returned an out-of-group event")
	}
}

func TestMonitorSeriesAndCPI(t *testing.T) {
	src := &fakeSource{}
	m, _ := NewMonitor(src, cpiGroup(), 100)
	for i := 1; i <= 4; i++ {
		src.bump(power4.EvCycles, uint64(300*i))
		src.bump(power4.EvInstCompleted, 100)
		m.Tick()
	}
	cyc, err := m.Series(power4.EvCycles)
	if err != nil {
		t.Fatal(err)
	}
	if cyc.Len() != 4 || cyc.At(0) != 300 || cyc.At(3) != 1200 {
		t.Fatalf("cycle series = %v", cyc.Values)
	}
	cpi, err := m.CPISeries()
	if err != nil {
		t.Fatal(err)
	}
	if cpi.At(0) != 3 || cpi.At(3) != 12 {
		t.Fatalf("cpi series = %v", cpi.Values)
	}
	if cpi.WindowMS != 100 {
		t.Fatal("window length lost")
	}
}

func TestMonitorRateSeries(t *testing.T) {
	src := &fakeSource{}
	m, _ := NewMonitor(src, cpiGroup(), 100)
	src.bump(power4.EvInstCompleted, 1000)
	src.bump(power4.EvLoads, 320)
	m.Tick()
	rs, err := m.RateSeries(power4.EvLoads)
	if err != nil {
		t.Fatal(err)
	}
	if rs.At(0) != 0.32 {
		t.Fatalf("load rate = %v", rs.At(0))
	}
	if _, err := m.RateSeries(power4.EvBrCond); err == nil {
		t.Fatal("rate series for out-of-group event")
	}
}

func TestMonitorReset(t *testing.T) {
	src := &fakeSource{}
	m, _ := NewMonitor(src, cpiGroup(), 100)
	src.bump(power4.EvCycles, 10)
	m.Tick()
	src.bump(power4.EvCycles, 99)
	m.Reset()
	if len(m.Samples()) != 0 {
		t.Fatal("samples survived reset")
	}
	src.bump(power4.EvCycles, 5)
	s := m.Tick()
	if s.Values[power4.EvCycles] != 5 {
		t.Fatalf("post-reset delta = %d, want 5", s.Values[power4.EvCycles])
	}
}

func TestGroupHas(t *testing.T) {
	g := cpiGroup()
	if !g.Has(power4.EvLoads) {
		t.Fatal("cpi group should count loads")
	}
	if g.Has(power4.EvBrTargetMispred) {
		t.Fatal("cpi group should not count branch targets")
	}
}
