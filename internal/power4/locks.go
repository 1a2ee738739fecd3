package power4

// Reservation tracking for LARX/STCX. PowerPC gives each processor one
// reservation; it is lost when any other processor stores to the reserved
// granule. The Hierarchy tracks recent remote stores per line so a core's
// STCX can detect interference — the source of STCX failures under lock
// contention.

// reservationWindow caps how many recently stored-to lines are remembered.
const reservationWindow = 4096

// noteRemoteStore records that chip stored to line (called from Store).
// The ledger is a FIFO ring so that eviction is deterministic.
func (h *Hierarchy) noteRemoteStore(chip int, line uint64) {
	if h.recentStores == nil {
		h.recentStores = make(map[uint64]uint8, reservationWindow)
		h.storeRing = make([]uint64, 0, reservationWindow)
	}
	m, ok := h.recentStores[line]
	if !ok {
		if len(h.storeRing) >= reservationWindow {
			oldest := h.storeRing[h.storeRingPos]
			delete(h.recentStores, oldest)
			h.storeFastN = 0 // the evicted record may back a fast-path entry
			h.storeRing[h.storeRingPos] = line
			h.storeRingPos = (h.storeRingPos + 1) % reservationWindow
		} else {
			h.storeRing = append(h.storeRing, line)
		}
	}
	if m&(1<<uint(chip)) == 0 {
		h.recentStores[line] = m | 1<<uint(chip)
	}
}

// ReservationLost reports whether any other chip stored to line since it
// was recorded, consuming the record for this core's chip.
func (h *Hierarchy) ReservationLost(core int, line uint64) bool {
	h.storeFastN = 0 // may consume a recentStores record the fast path relies on
	chip := h.ChipOf(core)
	m, ok := h.recentStores[line]
	if !ok {
		return false
	}
	others := m &^ (1 << uint(chip))
	delete(h.recentStores, line)
	return others != 0
}
