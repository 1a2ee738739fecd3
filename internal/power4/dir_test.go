package power4

import (
	"math/rand"
	"testing"
)

// checkDirInvariants recounts the slot array: used must equal the
// non-empty slots (live entries plus tombstones), live the entries
// holding a key, and the mask must match the slot count.
func checkDirInvariants(t *testing.T, d *dirTable, op int) {
	t.Helper()
	used, live := 0, 0
	for i := range d.slots {
		switch d.slots[i].key {
		case 0:
		case dirTomb:
			used++
		default:
			used++
			live++
		}
	}
	if used != d.used || live != d.live || d.mask != uint64(len(d.slots)-1) {
		t.Fatalf("op %d: recount used=%d live=%d mask=%#x, table says used=%d live=%d over %d slots",
			op, used, live, d.mask, d.used, d.live, len(d.slots))
	}
}

// TestDirTableMatchesMap is the directory's oracle: random get,
// getOrCreate and del calls against a plain map. Keys come in
// generations: most calls touch the current generation's keys, some the
// previous one's, and each new generation first deletes what is left of
// the one before that. Re-inserting a deleted key reuses its tombstone;
// the stream of fresh keys fills the table with tombstones until it
// rehashes in place, and the live peak forces a doubling. A pointer
// handed out by getOrCreate is written through after later get/del calls
// on other keys, which must all see the same entry.
func TestDirTableMatchesMap(t *testing.T) {
	const (
		gens   = 12
		genLen = 20_000 // calls per generation
		window = 5000   // keys per generation
	)
	rng := rand.New(rand.NewSource(1))
	pool := make([]uint64, gens*window)
	for i := range pool {
		if i%2 == 0 {
			pool[i] = uint64(i) // dense run of neighbouring lines
		} else {
			pool[i] = uint64(rng.Int63n(1 << 50))
		}
	}

	d := newDirTable()
	model := map[uint64]lineState{}
	var (
		held    *lineState
		heldKey uint64

		inPlace, doublings, reused int
	)
	for op := 0; op < gens*genLen; op++ {
		g := op / genLen
		var line uint64
		switch {
		case op%genLen == 0 && g >= 2:
			// Retire generation g-2: delete every key it still holds.
			for _, k := range pool[(g-2)*window : (g-1)*window] {
				if _, ok := model[k]; ok {
					d.del(k)
					delete(model, k)
					if k == heldKey {
						held = nil
					}
				}
			}
			checkDirInvariants(t, d, op)
			line = pool[g*window+rng.Intn(window)]
		case g > 0 && rng.Intn(5) == 0:
			line = pool[(g-1)*window+rng.Intn(window)]
		default:
			line = pool[g*window+rng.Intn(window)]
		}
		switch r := rng.Intn(10); {
		case r < 4:
			slots, used, live := len(d.slots), d.used, d.live
			st := d.getOrCreate(line)
			want, existed := model[line]
			if !existed {
				want = lineState{owner: -1}
				if d.live != live+1 {
					t.Fatalf("op %d: insert of %#x left live at %d (was %d)", op, line, d.live, live)
				}
			}
			if *st != want {
				t.Fatalf("op %d: getOrCreate(%#x) = %+v, want %+v", op, line, *st, want)
			}
			switch {
			case len(d.slots) != slots:
				doublings++
				checkDirInvariants(t, d, op)
			case d.used < used:
				inPlace++
				checkDirInvariants(t, d, op)
			case !existed && d.used == used:
				reused++
			}
			st.sharers = uint8(rng.Intn(256))
			st.owner = int8(rng.Intn(5) - 1)
			model[line] = *st
			held, heldKey = st, line
		case r < 7:
			st := d.get(line)
			want, ok := model[line]
			if (st != nil) != ok || (ok && *st != want) {
				t.Fatalf("op %d: get(%#x) = %v, want %+v (present %v)", op, line, st, want, ok)
			}
			if ok && line == heldKey && st != held {
				t.Fatalf("op %d: get(%#x) moved from %p to %p without a getOrCreate", op, line, held, st)
			}
		default:
			d.del(line)
			delete(model, line)
			if line == heldKey {
				held = nil
			}
		}
		if d.live != len(model) {
			t.Fatalf("op %d: live = %d, model holds %d", op, d.live, len(model))
		}
		if held != nil && heldKey != line {
			// Write through the held pointer; the table must observe it.
			held.sharers ^= 0x5a
			model[heldKey] = *held
			if got := d.get(heldKey); got != held || *got != model[heldKey] {
				t.Fatalf("op %d: held pointer for %#x went stale", op, heldKey)
			}
		}
		if op%4096 == 0 {
			checkDirInvariants(t, d, op)
		}
	}
	checkDirInvariants(t, d, gens*genLen)
	for _, line := range pool {
		st := d.get(line)
		want, ok := model[line]
		if (st != nil) != ok || (ok && *st != want) {
			t.Fatalf("final: get(%#x) = %v, want %+v (present %v)", line, st, want, ok)
		}
	}
	// The stream must actually exercise the paths it claims to.
	if inPlace < 2 || doublings < 1 || reused == 0 {
		t.Fatalf("weak stream: %d in-place rehashes, %d doublings, %d tombstone reuses", inPlace, doublings, reused)
	}
	t.Logf("%d in-place rehashes, %d doublings, %d tombstone reuses, %d slots", inPlace, doublings, reused, len(d.slots))
}
