// Package hpm models the POWER4 hardware performance monitor facility the
// paper collects its data with: eight counters form a group, exactly one
// group is active at a time, and a sampling monitor reads the active
// group's counters every window (0.1 s in the paper's experiments).
//
// Because only one group can be collected at once, events from different
// groups cannot be correlated against each other — the paper calls this
// limitation out explicitly, and the Monitor enforces it: a sample exposes
// only the active group's events.
package hpm

import (
	"errors"
	"fmt"

	"jasworkload/internal/power4"
	"jasworkload/internal/stats"
)

// GroupSize is the number of simultaneous hardware counters on POWER4.
const GroupSize = 8

// Group is a named set of at most GroupSize events that can be collected
// together.
type Group struct {
	Name   string
	Events []power4.Event
}

// Validate checks the group obeys the hardware constraint.
func (g Group) Validate() error {
	if g.Name == "" {
		return errors.New("hpm: unnamed group")
	}
	if len(g.Events) == 0 || len(g.Events) > GroupSize {
		return fmt.Errorf("hpm: group %q has %d events, want 1..%d", g.Name, len(g.Events), GroupSize)
	}
	seen := map[power4.Event]bool{}
	for _, e := range g.Events {
		if seen[e] {
			return fmt.Errorf("hpm: group %q repeats event %v", g.Name, e)
		}
		seen[e] = true
	}
	return nil
}

// Has reports whether the group counts event e.
func (g Group) Has(e power4.Event) bool {
	for _, ev := range g.Events {
		if ev == e {
			return true
		}
	}
	return false
}

// StandardGroups returns the counter groups used to regenerate the paper's
// figures. Like the real HPM group tables, cycles and completed
// instructions appear in every group so per-window CPI is always available.
func StandardGroups() []Group {
	base := []power4.Event{power4.EvCycles, power4.EvInstCompleted}
	mk := func(name string, events ...power4.Event) Group {
		return Group{Name: name, Events: append(append([]power4.Event{}, base...), events...)}
	}
	return []Group{
		mk("cpi", power4.EvInstDispatched, power4.EvCycWithCompletion,
			power4.EvLoads, power4.EvStores, power4.EvL1DLoadMiss, power4.EvL1DStoreMiss),
		mk("branch", power4.EvBrCond, power4.EvBrCondMispred,
			power4.EvBrIndirect, power4.EvBrTargetMispred),
		mk("translation", power4.EvDERATMiss, power4.EvIERATMiss,
			power4.EvDTLBMiss, power4.EvITLBMiss),
		mk("dsource", power4.EvDataFromL2, power4.EvDataFromL275Shr,
			power4.EvDataFromL275Mod, power4.EvDataFromL3, power4.EvDataFromL35,
			power4.EvDataFromMem),
		mk("prefetch", power4.EvL1DPrefetch, power4.EvL2Prefetch,
			power4.EvPrefStreamAlloc, power4.EvL1DLoadMiss),
		mk("ifetch", power4.EvL1IMiss, power4.EvIFetchL1, power4.EvIFetchL2,
			power4.EvIFetchL3, power4.EvIFetchMem),
		mk("sync", power4.EvSyncCount, power4.EvSyncSRQCycles,
			power4.EvLarx, power4.EvStcx, power4.EvStcxFail),
		mk("kernel", power4.EvKernelInst, power4.EvKernelCycles,
			power4.EvKernelSyncSRQCycles),
	}
}

// GroupByName finds a group in gs.
func GroupByName(gs []Group, name string) (Group, bool) {
	for _, g := range gs {
		if g.Name == name {
			return g, true
		}
	}
	return Group{}, false
}

// CounterSource supplies cumulative counters; the simulated cores (or an
// aggregation over them) implement this.
type CounterSource interface {
	Counters() power4.Counters
}

// Sample is one window's event deltas for the active group.
type Sample struct {
	Window int
	Group  string
	Values map[power4.Event]uint64
}

// Monitor samples a CounterSource window by window, honoring the
// one-active-group-at-a-time hardware constraint.
type Monitor struct {
	src      CounterSource
	group    Group
	windowMS int
	prev     power4.Counters
	samples  []Sample
}

// NewMonitor creates a monitor with the given active group and window
// length in milliseconds.
func NewMonitor(src CounterSource, group Group, windowMS int) (*Monitor, error) {
	if src == nil {
		return nil, errors.New("hpm: nil counter source")
	}
	if err := group.Validate(); err != nil {
		return nil, err
	}
	if windowMS <= 0 {
		return nil, fmt.Errorf("hpm: bad window %d ms", windowMS)
	}
	return &Monitor{src: src, group: group, windowMS: windowMS, prev: src.Counters()}, nil
}

// Group returns the active group.
func (m *Monitor) Group() Group { return m.group }

// WindowMS returns the sampling window length.
func (m *Monitor) WindowMS() int { return m.windowMS }

// Tick closes the current window: it reads the source, records the active
// group's deltas, and starts the next window.
func (m *Monitor) Tick() Sample {
	cur := m.src.Counters()
	delta := cur.Sub(&m.prev)
	m.prev = cur
	s := Sample{Window: len(m.samples), Group: m.group.Name, Values: make(map[power4.Event]uint64, len(m.group.Events))}
	for _, e := range m.group.Events {
		s.Values[e] = delta.Get(e)
	}
	m.samples = append(m.samples, s)
	return s
}

// Samples returns all recorded samples.
func (m *Monitor) Samples() []Sample { return m.samples }

// Reset discards recorded samples and re-baselines.
func (m *Monitor) Reset() {
	m.samples = nil
	m.prev = m.src.Counters()
}

// Series extracts one event's per-window series. It returns an error if
// the event is not in the active group — the hardware cannot observe it.
func (m *Monitor) Series(e power4.Event) (*stats.Series, error) {
	if !m.group.Has(e) {
		return nil, fmt.Errorf("hpm: event %v not in active group %q", e, m.group.Name)
	}
	s := stats.NewSeries(e.String(), m.windowMS)
	for _, smp := range m.samples {
		s.Append(float64(smp.Values[e]))
	}
	return s, nil
}

// RateSeries extracts e per completed instruction, window by window.
func (m *Monitor) RateSeries(e power4.Event) (*stats.Series, error) {
	num, err := m.Series(e)
	if err != nil {
		return nil, err
	}
	den, err := m.Series(power4.EvInstCompleted)
	if err != nil {
		return nil, err
	}
	return stats.RatioSeries(e.String()+"/inst", num, den)
}

// CPISeries extracts per-window CPI (available in every standard group).
func (m *Monitor) CPISeries() (*stats.Series, error) {
	cyc, err := m.Series(power4.EvCycles)
	if err != nil {
		return nil, err
	}
	inst, err := m.Series(power4.EvInstCompleted)
	if err != nil {
		return nil, err
	}
	return stats.RatioSeries("CPI", cyc, inst)
}
