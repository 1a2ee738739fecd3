package power4

// dirTable is the storage of the coherence directory and of the
// reservation ledger (locks.go): an open-addressed hash table from
// 128-byte line address to lineState, replacing the generic maps that
// dominated the store/install hot path. Design points:
//
//   - Linear probing with tombstone deletion: a delete never moves other
//     entries, so *lineState pointers handed out by get/getOrCreate stay
//     valid across deletes. Only getOrCreate can rehash, and it does so
//     before returning a pointer, so callers may hold one pointer across
//     any number of reads, sharer updates and deletes — but not across a
//     subsequent getOrCreate.
//   - Entries are stored inline (no per-line allocation), which is most
//     of the win over the map: the directory churns an entry per L2
//     install/evict pair.
//   - Iteration only happens during rehash and is slot-ordered, so the
//     structure is deterministic — unlike map iteration, nothing here
//     depends on randomized order.
type dirTable struct {
	slots []dirSlot
	mask  uint64
	live  int // slots holding a current entry
	used  int // live plus tombstones (probe-chain occupancy)
}

// dirSlot keys are line+1 so the zero value is "empty"; dirTomb marks a
// deleted slot that probes must walk through.
type dirSlot struct {
	key uint64
	lineState
}

const dirTomb = ^uint64(0)

func newDirTable() *dirTable {
	const initial = 1 << 13
	return &dirTable{slots: make([]dirSlot, initial), mask: initial - 1}
}

func dirHash(line uint64) uint64 {
	h := line * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// get returns the entry for line, or nil if absent.
func (d *dirTable) get(line uint64) *lineState {
	k := line + 1
	for i := dirHash(line) & d.mask; ; i = (i + 1) & d.mask {
		s := &d.slots[i]
		if s.key == k {
			return &s.lineState
		}
		if s.key == 0 {
			return nil
		}
	}
}

// getOrCreate returns the entry for line, inserting a fresh one
// (owner -1, no sharers) if absent. It may rehash; pointers from earlier
// calls are invalid afterwards.
func (d *dirTable) getOrCreate(line uint64) *lineState {
	if (d.used+1)*4 >= len(d.slots)*3 {
		d.rehash()
	}
	k := line + 1
	tomb := -1
	for i := dirHash(line) & d.mask; ; i = (i + 1) & d.mask {
		s := &d.slots[i]
		if s.key == k {
			return &s.lineState
		}
		if s.key == dirTomb {
			if tomb < 0 {
				tomb = int(i)
			}
			continue
		}
		if s.key == 0 {
			if tomb >= 0 {
				s = &d.slots[tomb]
			} else {
				d.used++
			}
			d.live++
			s.key = k
			s.lineState = lineState{owner: -1}
			return &s.lineState
		}
	}
}

// del removes line's entry if present, leaving a tombstone.
func (d *dirTable) del(line uint64) {
	k := line + 1
	for i := dirHash(line) & d.mask; ; i = (i + 1) & d.mask {
		s := &d.slots[i]
		if s.key == k {
			s.key = dirTomb
			s.lineState = lineState{}
			d.live--
			return
		}
		if s.key == 0 {
			return
		}
	}
}

// rehash rebuilds the table, dropping tombstones, doubling the slot count
// when the live entries alone would keep it more than half full.
func (d *dirTable) rehash() {
	size := len(d.slots)
	if (d.live+1)*2 >= size {
		size *= 2
	}
	old := d.slots
	d.slots = make([]dirSlot, size)
	d.mask = uint64(size - 1)
	d.used = d.live
	for i := range old {
		s := &old[i]
		if s.key == 0 || s.key == dirTomb {
			continue
		}
		for j := dirHash(s.key-1) & d.mask; ; j = (j + 1) & d.mask {
			t := &d.slots[j]
			if t.key == 0 {
				*t = *s
				break
			}
		}
	}
}
