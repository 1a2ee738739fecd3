package power4

import (
	"math/rand"
	"testing"
)

// mapLedger is the reservation ledger as a Go map plus the FIFO ring,
// the implementation the dirTable-backed one replaced; it is the oracle
// for TestReservationLedgerMatchesMap. It also numbers every ring entry,
// so the test can see when an eviction deletes a record that a later
// entry for the same line created (the duplicate-entry case).
type mapLedger struct {
	recent  map[uint64]uint8
	ring    []uint64
	ringSeq []int // entry number of each ring slot
	pos     int
	seq     int
	created map[uint64]int // entry number that created each live record

	evictions, staleEvictions int
	evicted                   uint64 // line of the last eviction
}

func newMapLedger() *mapLedger {
	return &mapLedger{recent: map[uint64]uint8{}, created: map[uint64]int{}}
}

func (m *mapLedger) note(chip int, line uint64) {
	bits, ok := m.recent[line]
	if !ok {
		m.seq++
		if len(m.ring) >= reservationWindow {
			oldest := m.ring[m.pos]
			if _, live := m.recent[oldest]; live && m.created[oldest] != m.ringSeq[m.pos] {
				m.staleEvictions++
			}
			delete(m.recent, oldest)
			m.evictions++
			m.evicted = oldest
			m.ring[m.pos], m.ringSeq[m.pos] = line, m.seq
			m.pos = (m.pos + 1) % reservationWindow
		} else {
			m.ring = append(m.ring, line)
			m.ringSeq = append(m.ringSeq, m.seq)
		}
		m.created[line] = m.seq
	}
	m.recent[line] = bits | 1<<uint(chip)
}

func (m *mapLedger) lost(chip int, line uint64) bool {
	bits, ok := m.recent[line]
	if !ok {
		return false
	}
	delete(m.recent, line)
	return bits&^(1<<uint(chip)) != 0
}

// TestReservationLedgerMatchesMap runs random Store and ReservationLost
// calls through a Hierarchy and the map-based oracle. The line universe is
// larger than the ring, so the ring wraps many times, and frequent
// ReservationLost calls leave duplicate ring entries behind. A hot set
// stored by one core keeps the Store fast path busy, so a missed fast-path
// reset after a ledger eviction shows up as a missing record. After every
// call the result, the record count and the records of the touched and
// evicted lines must match; every 256 calls every line's record and the
// ring itself must.
func TestReservationLedgerMatchesMap(t *testing.T) {
	for _, fast := range []bool{true, false} {
		h := newHier(t)
		h.SetFastPaths(fast)
		m := newMapLedger()
		rng := rand.New(rand.NewSource(7))
		universe := make([]uint64, reservationWindow*3/2)
		for i := range universe {
			universe[i] = uint64(0x10000 + i*3)
		}
		hot := universe[:8]
		check := func(call int, line uint64) {
			st := h.recentStores.get(line)
			bits, ok := m.recent[line]
			if (st != nil) != ok || (ok && st.sharers != bits) {
				t.Fatalf("fast=%v call %d: record for line %#x = %v, want %08b (present %v)", fast, call, line, st, bits, ok)
			}
		}
		store := func(core int, line uint64) {
			h.Store(core, line<<7)
			m.note(h.ChipOf(core), line)
		}
		lost := func(call, core int, line uint64) {
			if got, want := h.ReservationLost(core, line), m.lost(h.ChipOf(core), line); got != want {
				t.Fatalf("fast=%v call %d: ReservationLost(%d, %#x) = %v, want %v", fast, call, core, line, got, want)
			}
		}

		// Directed opening: line L's first ring entry turns stale, L is
		// stored again just before that entry reaches the ring head, and
		// the next new line evicts it, deleting L's live record. L is
		// still in core 0's store fast path, which must not skip the
		// store of L that follows.
		L := universe[len(universe)-1]
		store(0, L)
		lost(-1, 1, L)
		for i := 0; i < reservationWindow-2; i++ {
			store(0, universe[i])
		}
		store(0, L)
		if fast && (h.storeFastN == 0 || h.storeFast[h.storeFastN-1].line != L) {
			t.Fatal("directed opening: L is not in the store fast path")
		}
		store(0, universe[reservationWindow-2])
		if m.staleEvictions != 1 {
			t.Fatalf("directed opening: %d evictions of a re-created record, want 1", m.staleEvictions)
		}
		store(0, L)
		check(-1, L)

		const calls = 120_000
		for call := 0; call < calls; call++ {
			core := rng.Intn(4)
			line := universe[rng.Intn(len(universe))]
			switch r := rng.Intn(10); {
			case r < 3:
				line = hot[rng.Intn(len(hot))]
				store(0, line)
			case r < 8:
				store(core, line)
			default:
				lost(call, core, line)
			}
			if h.recentStores.live != len(m.recent) {
				t.Fatalf("fast=%v call %d: ledger holds %d records, oracle %d", fast, call, h.recentStores.live, len(m.recent))
			}
			check(call, line)
			check(call, m.evicted)
			if call%256 == 0 || call == calls-1 {
				for _, l := range universe {
					check(call, l)
				}
				if h.storeRingPos != m.pos || len(h.storeRing) != len(m.ring) {
					t.Fatalf("fast=%v call %d: ring at %d of %d, oracle at %d of %d", fast, call, h.storeRingPos, len(h.storeRing), m.pos, len(m.ring))
				}
				for i := range m.ring {
					if h.storeRing[i] != m.ring[i] {
						t.Fatalf("fast=%v call %d: ring slot %d = %#x, oracle %#x", fast, call, i, h.storeRing[i], m.ring[i])
					}
				}
			}
		}
		// The stream must wrap the ring several times and evict stale
		// duplicate entries over live re-created records.
		if m.evictions < 5*reservationWindow || m.staleEvictions == 0 {
			t.Fatalf("fast=%v weak stream: %d evictions, %d of a re-created record", fast, m.evictions, m.staleEvictions)
		}
		t.Logf("fast=%v: %d evictions (%d of a re-created record)", fast, m.evictions, m.staleEvictions)
	}
}
