package db

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func walDB(t *testing.T, group int) *Database {
	t.Helper()
	d := testDB(t)
	if err := d.EnableWAL(group); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewWALValidation(t *testing.T) {
	if _, err := NewWAL(nil, 4); err == nil {
		t.Fatal("nil storage accepted")
	}
	if _, err := NewWAL(RAMDisk{}, 0); err == nil {
		t.Fatal("zero group size accepted")
	}
}

func TestWALRecordsCommittedWork(t *testing.T) {
	d := walDB(t, 1)
	d.CreateTable("t", 2, 10)
	tx := d.Begin()
	tx.Insert("t", Row{1, 10})
	tx.Update("t", 1, 1, 99)
	tx.Delete("t", 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	w := d.WAL()
	// insert + update + delete + commit marker
	if w.Appended() != 4 {
		t.Fatalf("records = %d, want 4", w.Appended())
	}
	tail := w.Tail()
	kinds := []LogKind{LogInsert, LogUpdate, LogDelete, LogCommit}
	for i, k := range kinds {
		if tail[i].Kind != k {
			t.Fatalf("record %d kind = %v, want %v", i, tail[i].Kind, k)
		}
	}
	// LSNs monotonic and txn ids present.
	for i := 1; i < len(tail); i++ {
		if tail[i].LSN <= tail[i-1].LSN {
			t.Fatal("LSNs not monotonic")
		}
	}
	if tail[0].Txn == 0 {
		t.Fatal("txn id missing")
	}
	// group=1: every commit flushes.
	if w.Flushes() != 1 || w.FlushedLSN() != w.LSN() {
		t.Fatalf("flushes=%d flushed=%d lsn=%d", w.Flushes(), w.FlushedLSN(), w.LSN())
	}
}

func TestWALAbortLogsNothing(t *testing.T) {
	d := walDB(t, 1)
	d.CreateTable("t", 2, 10)
	tx := d.Begin()
	tx.Insert("t", Row{1, 10})
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if d.WAL().Appended() != 0 {
		t.Fatal("aborted transaction reached the log")
	}
	// Read-only commits log nothing either.
	ro := d.Begin()
	ro.Commit()
	if d.WAL().Appended() != 0 {
		t.Fatal("read-only commit logged records")
	}
}

func TestWALGroupCommit(t *testing.T) {
	d := walDB(t, 4)
	d.CreateTable("t", 2, 10)
	for i := 0; i < 7; i++ {
		tx := d.Begin()
		tx.Insert("t", Row{Value(i), 0})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	w := d.WAL()
	// 7 commits at group size 4: one flush after the 4th; 3 buffered.
	if w.Flushes() != 1 {
		t.Fatalf("flushes = %d, want 1", w.Flushes())
	}
	if w.FlushedLSN() == w.LSN() {
		t.Fatal("tail unexpectedly durable")
	}
	w.Flush()
	if w.FlushedLSN() != w.LSN() {
		t.Fatal("explicit flush did not catch up")
	}
	if w.Flushes() != 2 {
		t.Fatalf("flushes = %d, want 2", w.Flushes())
	}
	// Idempotent when already durable.
	w.Flush()
	if w.Flushes() != 2 {
		t.Fatal("no-op flush counted")
	}
	if w.TakeWaitMS() <= 0 {
		t.Fatal("no flush latency accumulated")
	}
	if w.TakeWaitMS() != 0 {
		t.Fatal("TakeWaitMS did not clear")
	}
}

func TestWALTailBounded(t *testing.T) {
	d := walDB(t, 1)
	d.CreateTable("t", 2, 10)
	for i := 0; i < 5000; i++ {
		tx := d.Begin()
		tx.Insert("t", Row{Value(i), 0})
		tx.Commit()
	}
	w := d.WAL()
	if len(w.Tail()) > 4096 {
		t.Fatalf("tail grew to %d records", len(w.Tail()))
	}
	if w.Appended() != 10000 { // insert + commit per txn
		t.Fatalf("appended = %d", w.Appended())
	}
	// The retained tail is the most recent suffix.
	tail := w.Tail()
	if tail[len(tail)-1].LSN != w.LSN() {
		t.Fatal("tail does not end at the head LSN")
	}
}

// Property: replaying the redo log of committed transactions onto a copy of
// the initial state reproduces the final state exactly.
func TestWALReplayProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := testDB(t)
		dst := testDB(t)
		for _, d := range []*Database{src, dst} {
			d.CreateTable("t", 2, 10)
			setup := d.Begin()
			for i := 0; i < 10; i++ {
				setup.Insert("t", Row{Value(i), Value(i * 10)})
			}
			setup.Commit()
		}
		// The WAL starts at the checkpointed base image, like the SUT's.
		if err := src.EnableWAL(1); err != nil {
			t.Fatal(err)
		}
		// Random committed AND aborted transactions on src.
		for txn := 0; txn < 15; txn++ {
			tx := src.Begin()
			for op := 0; op < 4; op++ {
				k := Value(rng.Intn(30))
				switch rng.Intn(3) {
				case 0:
					tx.Insert("t", Row{k, Value(rng.Intn(100))})
				case 1:
					tx.Update("t", k, 1, Value(rng.Intn(100)))
				case 2:
					tx.Delete("t", k)
				}
			}
			if rng.Intn(3) == 0 {
				tx.Abort()
			} else {
				tx.Commit()
			}
		}
		if err := Replay(dst, src.WAL().Tail()); err != nil {
			t.Logf("replay: %v", err)
			return false
		}
		a, _ := src.Scan("t", -1000, 1000, 0)
		b, _ := dst.Scan("t", -1000, 1000, 0)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayErrors(t *testing.T) {
	d := testDB(t)
	recs := []LogRecord{
		{Txn: 1, Kind: LogInsert, Table: "missing", Row: Row{1, 2}},
		{Txn: 1, Kind: LogCommit},
	}
	if err := Replay(d, recs); err == nil {
		t.Fatal("replay into a missing table accepted")
	}
	// Uncommitted records are skipped silently.
	recs2 := []LogRecord{{Txn: 9, Kind: LogInsert, Table: "missing", Row: Row{1, 2}}}
	if err := Replay(d, recs2); err != nil {
		t.Fatalf("uncommitted record not skipped: %v", err)
	}
}

// Interleaving explicit Flush calls with group commits must keep the
// accounting coherent: after any Flush the durable prefix covers the whole
// log and no commit is still counted pending, so the next group flush
// fires only after a full fresh batch.
func TestWALFlushInterleavesWithCommits(t *testing.T) {
	d := walDB(t, 3)
	d.CreateTable("t", 2, 10)
	commit := func(i int) {
		t.Helper()
		tx := d.Begin()
		tx.Insert("t", Row{Value(i), 0})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	w := d.WAL()
	check := func(step string) {
		t.Helper()
		if w.FlushedLSN() != w.LSN() {
			t.Fatalf("%s: flushedLSN=%d lsn=%d", step, w.FlushedLSN(), w.LSN())
		}
		if w.pendingCommits != 0 {
			t.Fatalf("%s: %d commits still pending after flush", step, w.pendingCommits)
		}
	}

	commit(0)
	commit(1)
	w.Flush() // mid-batch checkpoint: 2 pending commits become durable
	check("mid-batch flush")
	if w.Flushes() != 1 {
		t.Fatalf("flushes = %d, want 1", w.Flushes())
	}
	w.Flush() // already durable: a no-op write, but accounting still coherent
	check("no-op flush")

	// The checkpoint reset the batch: the group threshold needs 3 fresh
	// commits again, not 3 minus the pre-checkpoint count.
	commit(2)
	commit(3)
	if w.Flushes() != 1 {
		t.Fatalf("group flush fired early (flushes=%d)", w.Flushes())
	}
	commit(4)
	if w.Flushes() != 2 {
		t.Fatalf("group flush missing after full batch (flushes=%d)", w.Flushes())
	}
	check("group flush")
}

// Crash-recovery shape: a torn tail — the log ends mid-transaction, before
// the commit record made it out — replays to the pre-crash committed state,
// exactly like the artifact store treating a torn entry file as a miss. The
// in-flight transaction's records are skipped, never half-applied.
func TestWALReplayTornTail(t *testing.T) {
	src := testDB(t)
	dst := testDB(t)
	for _, d := range []*Database{src, dst} {
		d.CreateTable("t", 2, 10)
	}
	if err := src.EnableWAL(1); err != nil {
		t.Fatal(err)
	}
	tx := src.Begin()
	tx.Insert("t", Row{1, 10})
	tx.Insert("t", Row{2, 20})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := src.Begin()
	tx2.Insert("t", Row{3, 30})
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: drop the final commit record, as if the crash landed
	// between appending txn2's redo records and its commit marker.
	tail := src.WAL().Tail()
	if tail[len(tail)-1].Kind != LogCommit {
		t.Fatal("log does not end in a commit record")
	}
	torn := tail[:len(tail)-1]
	if err := Replay(dst, torn); err != nil {
		t.Fatalf("torn-tail replay: %v", err)
	}
	rows, err := dst.Scan("t", -1000, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("recovered %d rows, want 2 (torn txn must not apply)", len(rows))
	}
	for _, r := range rows {
		if r[0] == 3 {
			t.Fatal("torn transaction's insert survived recovery")
		}
	}
}

func TestLogKindString(t *testing.T) {
	for _, k := range []LogKind{LogInsert, LogDelete, LogUpdate, LogCommit} {
		if k.String() == "" {
			t.Fatal("unnamed kind")
		}
	}
	if LogKind(99).String() != "log(99)" {
		t.Fatal("out-of-range name")
	}
}

// The tail ring wraps several times: Tail must still return exactly the
// newest tailCap records oldest-first, as a copy, and the wraps must not
// disturb the log's append, flush and durable-prefix counters.
func TestWALTailRingWraps(t *testing.T) {
	const group = 4
	w, err := NewWAL(RAMDisk{}, group)
	if err != nil {
		t.Fatal(err)
	}
	total := 3*w.tailCap + 17
	// Two-record commits (one redo record plus the commit marker), then a
	// final marker-only commit for the odd record.
	var commits int
	for n := 0; n < total; commits++ {
		var recs []LogRecord
		if total-n >= 2 {
			recs = []LogRecord{{Kind: LogInsert, Table: "t", Key: Value(n), Row: Row{Value(n), 0}}}
		}
		w.commit(uint64(commits+1), recs)
		n += len(recs) + 1
	}

	if w.Appended() != uint64(total) || w.LSN() != uint64(total) {
		t.Fatalf("appended=%d lsn=%d, want %d", w.Appended(), w.LSN(), total)
	}
	wantFlushes := commits / group
	if w.Flushes() != uint64(wantFlushes) {
		t.Fatalf("flushes = %d, want %d", w.Flushes(), wantFlushes)
	}
	// Every full-pair commit adds two records; the last flush fired at
	// commit group*wantFlushes, all of whose commits were two-record ones.
	if want := uint64(2 * group * wantFlushes); w.FlushedLSN() != want {
		t.Fatalf("flushedLSN = %d, want %d", w.FlushedLSN(), want)
	}

	tail := w.Tail()
	if len(tail) != w.tailCap {
		t.Fatalf("tail holds %d records, want %d", len(tail), w.tailCap)
	}
	for i, r := range tail {
		if want := w.LSN() - uint64(len(tail)-1-i); r.LSN != want {
			t.Fatalf("tail[%d].LSN = %d, want %d", i, r.LSN, want)
		}
	}
	if tail[len(tail)-1].Kind != LogCommit {
		t.Fatal("tail does not end in the last commit record")
	}

	// Tail hands out a copy: scribbling on it leaves the log intact.
	first, last := tail[0], tail[len(tail)-1]
	for i := range tail {
		tail[i] = LogRecord{}
	}
	again := w.Tail()
	if again[0].LSN != first.LSN || again[len(again)-1].LSN != last.LSN || again[0].Kind != first.Kind {
		t.Fatal("mutating a returned tail changed the log's tail")
	}
}
