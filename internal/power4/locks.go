package power4

// Reservation tracking for LARX/STCX. PowerPC gives each processor one
// reservation; it is lost when any other processor stores to the reserved
// granule. The Hierarchy tracks recent remote stores per line so a core's
// STCX can detect interference — the source of STCX failures under lock
// contention.

// reservationWindow caps how many recently stored-to lines are remembered.
const reservationWindow = 4096

// noteRemoteStore records that chip stored to line (called from Store).
// The ledger keeps each line's storing chips in a dirTable entry's sharers
// mask; a FIFO ring of first-record order makes eviction deterministic.
// ReservationLost deletes a record without touching the ring, so a line
// recorded again afterwards has two ring entries, and evicting the stale
// one deletes the new record early.
func (h *Hierarchy) noteRemoteStore(chip int, line uint64) {
	st := h.recentStores.get(line)
	if st == nil {
		if len(h.storeRing) >= reservationWindow {
			h.recentStores.del(h.storeRing[h.storeRingPos])
			h.storeFastN = 0 // the evicted record may back a fast-path entry
			h.storeRing[h.storeRingPos] = line
			h.storeRingPos = (h.storeRingPos + 1) % reservationWindow
		} else {
			h.storeRing = append(h.storeRing, line)
		}
		st = h.recentStores.getOrCreate(line)
	}
	st.sharers |= 1 << uint(chip)
}

// ReservationLost reports whether any other chip stored to line since it
// was recorded, consuming the record for this core's chip.
func (h *Hierarchy) ReservationLost(core int, line uint64) bool {
	h.storeFastN = 0 // may consume a recentStores record the fast path relies on
	st := h.recentStores.get(line)
	if st == nil {
		return false
	}
	others := st.sharers &^ (1 << uint(h.ChipOf(core)))
	h.recentStores.del(line)
	return others != 0
}
