package db

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"jasworkload/internal/mem"
)

func testPool(t *testing.T, bytes uint64, storage Storage) *BufferPool {
	t.Helper()
	as := mem.NewAddressSpace()
	r, err := as.AddRegion("dbbuffer", 1<<30, bytes, mem.Page4K, false)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBufferPool(r, 4096, storage)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func testDB(t *testing.T) *Database {
	t.Helper()
	d, err := NewDatabase(testPool(t, 16<<20, RAMDisk{}))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCreateTableValidation(t *testing.T) {
	d := testDB(t)
	if _, err := d.CreateTable("t", 0, 10); err == nil {
		t.Fatal("zero cols accepted")
	}
	if _, err := d.CreateTable("t", 2, 0); err == nil {
		t.Fatal("zero rpp accepted")
	}
	if _, err := d.CreateTable("t", 2, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("t", 2, 10); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := d.Table("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("want ErrNoTable, got %v", err)
	}
	if len(d.Tables()) != 1 {
		t.Fatal("Tables() wrong")
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	d := testDB(t)
	if _, err := d.CreateTable("t", 3, 10); err != nil {
		t.Fatal(err)
	}
	tx := d.Begin()
	if err := tx.Insert("t", Row{1, 10, 100}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", Row{1, 11, 101}); !errors.Is(err, ErrDupKey) {
		t.Fatalf("want ErrDupKey, got %v", err)
	}
	if err := tx.Insert("t", Row{2, 20}); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("want ErrBadSchema, got %v", err)
	}
	if err := tx.Update("t", 1, 1, 99); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("t", 1, 0, 5); !errors.Is(err, ErrBadSchema) {
		t.Fatal("primary key update accepted")
	}
	if err := tx.Update("t", 77, 1, 5); !errors.Is(err, ErrNoRow) {
		t.Fatal("update of missing row accepted")
	}
	row, err := tx.Get("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if row[1] != 99 {
		t.Fatalf("row = %v", row)
	}
	if err := tx.Delete("t", 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("t", 1); !errors.Is(err, ErrNoRow) {
		t.Fatal("double delete accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("t", 1); !errors.Is(err, ErrNoRow) {
		t.Fatal("deleted row still readable")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	d := testDB(t)
	d.CreateTable("t", 2, 10)
	tx := d.Begin()
	tx.Insert("t", Row{1, 10})
	tx.Commit()
	row, _ := d.Get("t", 1)
	row[1] = 999
	again, _ := d.Get("t", 1)
	if again[1] != 10 {
		t.Fatal("Get leaked internal storage")
	}
}

func TestTxnAbortRollsBack(t *testing.T) {
	d := testDB(t)
	d.CreateTable("t", 2, 10)
	setup := d.Begin()
	setup.Insert("t", Row{1, 10})
	setup.Insert("t", Row{2, 20})
	setup.Commit()

	tx := d.Begin()
	tx.Insert("t", Row{3, 30})
	tx.Update("t", 1, 1, 99)
	tx.Delete("t", 2)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("t", 3); !errors.Is(err, ErrNoRow) {
		t.Fatal("aborted insert visible")
	}
	if row, _ := d.Get("t", 1); row[1] != 10 {
		t.Fatalf("aborted update visible: %v", row)
	}
	if row, err := d.Get("t", 2); err != nil || row[1] != 20 {
		t.Fatalf("aborted delete not restored: %v %v", row, err)
	}
}

func TestTxnFinishedGuards(t *testing.T) {
	d := testDB(t)
	d.CreateTable("t", 2, 10)
	tx := d.Begin()
	tx.Commit()
	if err := tx.Insert("t", Row{1, 1}); !errors.Is(err, ErrNoTxn) {
		t.Fatal("insert on finished txn accepted")
	}
	if err := tx.Commit(); !errors.Is(err, ErrNoTxn) {
		t.Fatal("double commit accepted")
	}
	var nilTx *Txn
	if err := nilTx.Commit(); !errors.Is(err, ErrNoTxn) {
		t.Fatal("nil txn commit accepted")
	}
}

// Property: for random interleavings of operations, abort restores the
// exact pre-transaction state.
func TestTxnAbortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testDB(t)
		d.CreateTable("t", 2, 10)
		setup := d.Begin()
		for i := 0; i < 20; i++ {
			setup.Insert("t", Row{Value(i), Value(i * 10)})
		}
		setup.Commit()
		// Snapshot.
		before, _ := d.Scan("t", -1000, 1000, 0)

		tx := d.Begin()
		for op := 0; op < 30; op++ {
			k := Value(rng.Intn(40))
			switch rng.Intn(3) {
			case 0:
				tx.Insert("t", Row{k, Value(rng.Intn(100))}) // may fail on dup; fine
			case 1:
				tx.Update("t", k, 1, Value(rng.Intn(100)))
			case 2:
				tx.Delete("t", k)
			}
		}
		if err := tx.Abort(); err != nil {
			return false
		}
		after, _ := d.Scan("t", -1000, 1000, 0)
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i][0] != after[i][0] || before[i][1] != after[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	d := testDB(t)
	d.CreateTable("t", 2, 10)
	tx := d.Begin()
	for _, k := range []Value{5, 1, 9, 3, 7} {
		tx.Insert("t", Row{k, k * 10})
	}
	tx.Commit()
	rows, err := d.Scan("t", 3, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0] != 3 || rows[1][0] != 5 || rows[2][0] != 7 {
		t.Fatalf("scan = %v", rows)
	}
	limited, _ := d.Scan("t", 0, 100, 2)
	if len(limited) != 2 {
		t.Fatalf("limit ignored: %d rows", len(limited))
	}
	if _, err := d.Scan("missing", 0, 1, 0); err == nil {
		t.Fatal("scan of missing table accepted")
	}
	// Scan stays correct after mutations (sort cache invalidation).
	tx2 := d.Begin()
	tx2.Insert("t", Row{4, 40})
	tx2.Commit()
	rows, _ = d.Scan("t", 3, 5, 0)
	if len(rows) != 3 || rows[1][0] != 4 {
		t.Fatalf("post-insert scan = %v", rows)
	}
}

// checkOrderedIndex verifies the ordered key index against pk: the
// prefix is strictly ascending, and the whole index, sorted, is exactly
// pk's key set — no duplicates and no stale keys.
func checkOrderedIndex(tb *Table) error {
	prefix := tb.sortedKeys[:tb.sortedLen]
	for i := 1; i < len(prefix); i++ {
		if prefix[i-1] >= prefix[i] {
			return fmt.Errorf("sorted prefix not strictly ascending at %d: %v", i, prefix)
		}
	}
	got := slices.Clone(tb.sortedKeys)
	slices.Sort(got)
	want := make([]Value, 0, len(tb.pk))
	for k := range tb.pk {
		want = append(want, k)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("index keys %v, pk keys %v", got, want)
	}
	return nil
}

// scanReference is Scan computed the slow way, straight from pk.
func scanReference(tb *Table, lo, hi Value, limit int) []Row {
	var keys []Value
	for k := range tb.pk {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	var out []Row
	for _, k := range keys {
		out = append(out, tb.rows[tb.pk[k]])
	}
	return out
}

// Property: under any mix of inserts, deletes, aborts and scans the
// incrementally maintained ordered index stays exactly pk's key set, and
// every Scan agrees with a reference filter over pk.
func TestOrderedIndexProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := testDB(t)
		tb, _ := d.CreateTable("t", 2, 10)
		tx := d.Begin()
		for op := 0; op < 400; op++ {
			k := Value(rng.Intn(60))
			switch r := rng.Intn(10); {
			case r < 4:
				tx.Insert("t", Row{k, Value(rng.Intn(100))}) // dup keys fail; fine
			case r < 7:
				tx.Delete("t", k) // missing keys fail; fine
			case r < 9:
				lo := Value(rng.Intn(70) - 5)
				hi := lo + Value(rng.Intn(30))
				limit := rng.Intn(6)
				got, err := d.Scan("t", lo, hi, limit)
				if err != nil {
					t.Logf("scan: %v", err)
					return false
				}
				if want := scanReference(tb, lo, hi, limit); !slices.EqualFunc(got, want, slices.Equal) {
					t.Logf("scan [%d,%d] limit %d = %v, want %v", lo, hi, limit, got, want)
					return false
				}
			default:
				var err error
				if rng.Intn(2) == 0 {
					err = tx.Abort()
				} else {
					err = tx.Commit()
				}
				if err != nil {
					t.Logf("finish: %v", err)
					return false
				}
				tx = d.Begin()
			}
			if err := checkOrderedIndex(tb); err != nil {
				t.Logf("op %d: %v", op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The two shapes that could leave a duplicate or stale key behind: a key
// deleted and reinserted before any Scan, and a delete of a key that is
// still in the unsorted tail (including an Abort's undo-insert).
func TestOrderedIndexDeleteCases(t *testing.T) {
	d := testDB(t)
	tb, _ := d.CreateTable("t", 2, 10)
	check := func(step string) {
		t.Helper()
		if err := checkOrderedIndex(tb); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	tx := d.Begin()
	for _, k := range []Value{5, 1, 9, 3, 7} {
		tx.Insert("t", Row{k, k * 10})
	}
	tx.Commit()
	d.Scan("t", 0, 100, 0) // sort everything into the prefix
	if tb.sortedLen != 5 {
		t.Fatalf("sortedLen = %d after scan, want 5", tb.sortedLen)
	}

	// Delete from the sorted prefix, then reinsert the same key before
	// any Scan: it must appear once, in the tail.
	tx = d.Begin()
	tx.Delete("t", 3)
	check("prefix delete")
	if tb.sortedLen != 4 {
		t.Fatalf("sortedLen = %d after prefix delete, want 4", tb.sortedLen)
	}
	tx.Insert("t", Row{3, 33})
	tx.Commit()
	check("reinsert before scan")
	rows, _ := d.Scan("t", 0, 100, 0)
	if len(rows) != 5 || rows[1][0] != 3 || rows[1][1] != 33 {
		t.Fatalf("scan after delete+reinsert = %v", rows)
	}

	// Delete keys still in the unsorted tail: an older tail key
	// explicitly, and the newest one through an Abort's undo-insert.
	tx = d.Begin()
	tx.Insert("t", Row{4, 40})
	tx.Insert("t", Row{8, 80})
	tx.Insert("t", Row{2, 20})
	tx.Delete("t", 8)
	check("tail delete")
	if tb.sortedLen != 5 || len(tb.sortedKeys) != 7 {
		t.Fatalf("sortedLen=%d len=%d after tail delete, want 5 and 7", tb.sortedLen, len(tb.sortedKeys))
	}
	tx.Abort() // undoes delete 8 (reinsert), then the three inserts
	check("abort")
	rows, _ = d.Scan("t", 0, 100, 0)
	if len(rows) != 5 || rows[0][0] != 1 || rows[4][0] != 9 {
		t.Fatalf("scan after abort = %v", rows)
	}
}

func TestTracerSeesAddresses(t *testing.T) {
	d := testDB(t)
	d.CreateTable("t", 2, 10)
	var reads, writes int
	var addrs []uint64
	d.SetTracer(func(addr uint64, write bool) {
		addrs = append(addrs, addr)
		if write {
			writes++
		} else {
			reads++
		}
	})
	tx := d.Begin()
	tx.Insert("t", Row{1, 10})
	tx.Commit()
	d.Get("t", 1)
	if writes != 1 || reads != 1 {
		t.Fatalf("tracer saw %d writes, %d reads", writes, reads)
	}
	for _, a := range addrs {
		if a < 1<<30 {
			t.Fatalf("trace address %#x outside the buffer region", a)
		}
	}
	if d.TouchCount() != 2 {
		t.Fatalf("touch count = %d", d.TouchCount())
	}
}

func TestBufferPoolHitsAndEviction(t *testing.T) {
	bp := testPool(t, 16<<10, RAMDisk{}) // 4 frames of 4 KB
	if bp.Frames() != 4 {
		t.Fatalf("frames = %d", bp.Frames())
	}
	p := func(n uint32) PageID { return PageID{Table: 0, Page: n} }
	a1 := bp.Touch(p(1), false)
	a2 := bp.Touch(p(1), false)
	if a1 != a2 {
		t.Fatal("same page moved between touches")
	}
	if bp.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", bp.HitRate())
	}
	// Evict by touching 5 distinct pages.
	for n := uint32(2); n <= 5; n++ {
		bp.Touch(p(n), false)
	}
	before := bp.TakeIOWaitMS()
	if before <= 0 {
		t.Fatal("no io wait accumulated")
	}
	if bp.TakeIOWaitMS() != 0 {
		t.Fatal("TakeIOWaitMS did not clear")
	}
}

func TestBufferPoolValidation(t *testing.T) {
	if _, err := NewBufferPool(nil, 4096, RAMDisk{}); err == nil {
		t.Fatal("nil region accepted")
	}
	as := mem.NewAddressSpace()
	r, _ := as.AddRegion("b", 1<<30, 16<<10, mem.Page4K, false)
	if _, err := NewBufferPool(r, 0, RAMDisk{}); err == nil {
		t.Fatal("zero page accepted")
	}
	if _, err := NewBufferPool(r, 4096, nil); err == nil {
		t.Fatal("nil storage accepted")
	}
	if _, err := NewDatabase(nil); err == nil {
		t.Fatal("nil pool accepted")
	}
}

func TestStorageModels(t *testing.T) {
	if (RAMDisk{}).ReadMS() > 0.1 {
		t.Fatal("ram disk too slow")
	}
	two := DefaultDiskModel()
	if two.Name() != "disk(x2)" || (RAMDisk{}).Name() != "ramdisk" {
		t.Fatal("names wrong")
	}
	eight := two
	eight.Spindles = 8
	if eight.ReadMS() >= two.ReadMS() {
		t.Fatal("more spindles must reduce effective latency")
	}
	zero := DiskModel{Spindles: 0, SeekMS: 5}
	if zero.ReadMS() != 5 {
		t.Fatal("zero spindles should degrade to raw latency")
	}
	if two.WriteMS() != two.ReadMS() {
		t.Fatal("symmetric disk model expected")
	}
}

func TestDiskBackedPoolAccumulatesWait(t *testing.T) {
	ram := testPool(t, 64<<10, RAMDisk{})
	disk := testPool(t, 64<<10, DefaultDiskModel())
	for n := uint32(0); n < 1000; n++ {
		ram.Touch(PageID{Page: n}, false)
		disk.Touch(PageID{Page: n}, false)
	}
	rw, dw := ram.TakeIOWaitMS(), disk.TakeIOWaitMS()
	if dw < 100*rw {
		t.Fatalf("disk wait %.2f not much larger than ram %.2f", dw, rw)
	}
}

func TestLoadScalesWithIR(t *testing.T) {
	d10 := testDB(t)
	if err := Load(d10, DefaultScaleConfig(10)); err != nil {
		t.Fatal(err)
	}
	d40 := testDB(t)
	if err := Load(d40, DefaultScaleConfig(40)); err != nil {
		t.Fatal(err)
	}
	t10, _ := d10.Table(TCustomers)
	t40, _ := d40.Table(TCustomers)
	if t40.Rows() != 4*t10.Rows() {
		t.Fatalf("customers %d vs %d: not IR-proportional", t10.Rows(), t40.Rows())
	}
	for _, name := range []string{TCustomers, TVehicles, TInventory, TOrders, TOrderLines, TParts, TWorkOrders, TSuppliers} {
		tb, err := d40.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tb.Rows() == 0 {
			t.Fatalf("table %q empty", name)
		}
	}
	if err := Load(testDB(t), DefaultScaleConfig(0)); err == nil {
		t.Fatal("IR 0 accepted")
	}
	sz := SizesFor(DefaultScaleConfig(40))
	if sz.OrderLines != sz.Orders*3 {
		t.Fatal("orderline scaling wrong")
	}
}

func TestRowIDRecycling(t *testing.T) {
	d := testDB(t)
	tb, _ := d.CreateTable("t", 2, 10)
	tx := d.Begin()
	tx.Insert("t", Row{1, 10})
	tx.Delete("t", 1)
	tx.Insert("t", Row{2, 20})
	tx.Commit()
	if len(tb.rows) != 1 {
		t.Fatalf("row slots = %d, want recycled 1", len(tb.rows))
	}
	if tb.Rows() != 1 {
		t.Fatalf("live rows = %d", tb.Rows())
	}
}
