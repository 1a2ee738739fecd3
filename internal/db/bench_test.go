package db

import (
	"math/rand"
	"testing"

	"jasworkload/internal/mem"
)

// benchDB is testDB for benchmarks.
func benchDB(b *testing.B) *Database {
	b.Helper()
	as := mem.NewAddressSpace()
	r, err := as.AddRegion("dbbuffer", 1<<30, 64<<20, mem.Page4K, false)
	if err != nil {
		b.Fatal(err)
	}
	bp, err := NewBufferPool(r, 4096, RAMDisk{})
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDatabase(bp)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkWALCommit measures a steady-state commit (two redo records plus
// the commit marker) once the retained tail is full, so every append
// replaces the oldest tail record.
func BenchmarkWALCommit(b *testing.B) {
	w, err := NewWAL(RAMDisk{}, 8)
	if err != nil {
		b.Fatal(err)
	}
	row := Row{1, 2, 3, 4}
	recs := []LogRecord{
		{Kind: LogInsert, Table: THoldings, Key: 1, Row: row},
		{Kind: LogUpdate, Table: TAccounts, Key: 1, Col: 1, Val: 7},
	}
	var txn uint64
	for w.Appended() < uint64(2*w.tailCap) {
		txn++
		w.commit(txn, recs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn++
		w.commit(txn, recs)
	}
}

// BenchmarkScanAfterDelete runs trade6's holdings traffic over the loaded
// Trade schema: a buy inserts a holding, a sell scans a key range and
// deletes the first holding found, and a portfolio view scans again, so
// every scan follows a delete.
func BenchmarkScanAfterDelete(b *testing.B) {
	const ir = 100
	d := benchDB(b)
	if err := LoadTrade(d, ir, 1); err != nil {
		b.Fatal(err)
	}
	sz := TradeSizesFor(ir)
	rng := rand.New(rand.NewSource(1))
	next := Value(sz.Holdings)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := d.Begin()
		if err := tx.Insert(THoldings, Row{next, 0, 0, 1}); err != nil {
			b.Fatal(err)
		}
		next++
		tx.Commit()

		lo := Value(rng.Intn(sz.Holdings))
		rows, err := d.Scan(THoldings, lo, lo+40, 5)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) > 0 {
			tx := d.Begin()
			if err := tx.Delete(THoldings, rows[0][0]); err != nil {
				b.Fatal(err)
			}
			tx.Commit()
		}

		lo = Value(rng.Intn(sz.Holdings))
		if _, err := d.Scan(THoldings, lo, lo+60, 10); err != nil {
			b.Fatal(err)
		}
	}
}
