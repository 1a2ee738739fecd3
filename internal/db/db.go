// Package db implements the minimal relational database substrate behind
// the simulated SUT: tables with primary-key hash indexes, a buffer pool
// whose frames live in the simulated DB-buffer region (so every row access
// produces a real address for the memory trace), transactions with undo,
// and pluggable storage backends — a RAM disk (the paper's primary
// configuration) and a rotating-disk model that produces the I/O wait the
// paper saw with only two physical disks.
package db

import (
	"errors"
	"fmt"
	"slices"
)

// Value is a column value. The workload only needs integer-valued columns;
// strings are interned upstream.
type Value int64

// Row is a tuple; column 0 is always the primary key.
type Row []Value

// RowID locates a row within its table.
type RowID uint32

// Common errors.
var (
	ErrNoTable   = errors.New("db: no such table")
	ErrDupKey    = errors.New("db: duplicate primary key")
	ErrNoRow     = errors.New("db: no such row")
	ErrBadSchema = errors.New("db: schema mismatch")
	ErrNoTxn     = errors.New("db: no active transaction")
)

// Table is a heap-of-rows table with a primary-key hash index and a lazily
// maintained ordered key index for range scans.
type Table struct {
	name        string
	cols        int
	id          int
	rowsPerPage int

	rows []Row
	free []RowID
	pk   map[Value]RowID

	// Ordered key index for range scans: every key of pk appears in
	// sortedKeys exactly once. sortedKeys[:sortedLen] is sorted; inserts
	// append to an unsorted tail that the next Scan sorts and merges in
	// (O(tail log tail + n), not a full re-sort). Deletes remove the key
	// in place (see unindex) — trade6 deletes a holding on every sell, so
	// they are as common as the scans that follow them.
	sortedKeys []Value
	sortedLen  int
	tailBuf    []Value // reindex scratch for the unsorted tail
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Cols returns the column count.
func (t *Table) Cols() int { return t.cols }

// Rows returns the number of live rows.
func (t *Table) Rows() int { return len(t.pk) }

// pageOf returns the table-local page number of a row.
func (t *Table) pageOf(id RowID) uint32 { return uint32(id) / uint32(t.rowsPerPage) }

// Database is a named set of tables bound to a buffer pool and storage.
type Database struct {
	tables  map[string]*Table
	order   []*Table
	pool    *BufferPool
	wal     *WAL
	txnSeq  uint64
	tracer  func(addr uint64, write bool)
	touched int
}

// NewDatabase creates an empty database over the given buffer pool.
func NewDatabase(pool *BufferPool) (*Database, error) {
	if pool == nil {
		return nil, errors.New("db: nil buffer pool")
	}
	return &Database{tables: map[string]*Table{}, pool: pool}, nil
}

// SetTracer installs a callback invoked with the buffer-frame address of
// every row touch; the workload feeds these into the processor model.
func (d *Database) SetTracer(f func(addr uint64, write bool)) { d.tracer = f }

// EnableWAL attaches a write-ahead log: every committed transaction's redo
// records are appended and group-committed to the storage backend.
func (d *Database) EnableWAL(groupCommit int) error {
	w, err := NewWAL(d.pool.Storage(), groupCommit)
	if err != nil {
		return err
	}
	d.wal = w
	return nil
}

// WAL returns the attached log, or nil.
func (d *Database) WAL() *WAL { return d.wal }

// TakeLogWaitMS returns and clears the accumulated log-flush latency (0
// when no WAL is attached).
func (d *Database) TakeLogWaitMS() float64 {
	if d.wal == nil {
		return 0
	}
	return d.wal.TakeWaitMS()
}

// CreateTable adds a table with the given column count (>= 1; column 0 is
// the primary key). rowsPerPage controls page-granularity locality.
func (d *Database) CreateTable(name string, cols, rowsPerPage int) (*Table, error) {
	if _, ok := d.tables[name]; ok {
		return nil, fmt.Errorf("db: table %q exists", name)
	}
	if cols < 1 || rowsPerPage < 1 {
		return nil, fmt.Errorf("db: bad schema for %q: cols=%d rpp=%d", name, cols, rowsPerPage)
	}
	t := &Table{
		name: name, cols: cols, id: len(d.order), rowsPerPage: rowsPerPage,
		pk: map[Value]RowID{},
	}
	d.tables[name] = t
	d.order = append(d.order, t)
	return t, nil
}

// Table looks a table up by name.
func (d *Database) Table(name string) (*Table, error) {
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Tables returns all tables in creation order.
func (d *Database) Tables() []*Table { return d.order }

// touch pulls the row's page through the buffer pool and reports the
// access to the tracer.
func (d *Database) touch(t *Table, id RowID, write bool) {
	addr := d.pool.Touch(PageID{Table: t.id, Page: t.pageOf(id)}, write)
	d.touched++
	if d.tracer != nil {
		d.tracer(addr, write)
	}
}

// TouchCount returns the number of row touches served (for tests).
func (d *Database) TouchCount() int { return d.touched }

// insertRow is the index-maintaining core of Insert.
func (d *Database) insertRow(t *Table, row Row) (RowID, error) {
	if len(row) != t.cols {
		return 0, fmt.Errorf("%w: table %q wants %d cols, got %d", ErrBadSchema, t.name, t.cols, len(row))
	}
	key := row[0]
	if _, dup := t.pk[key]; dup {
		return 0, fmt.Errorf("%w: %q key %d", ErrDupKey, t.name, key)
	}
	var id RowID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[id] = append(Row(nil), row...)
	} else {
		t.rows = append(t.rows, append(Row(nil), row...))
		id = RowID(len(t.rows) - 1)
	}
	t.pk[key] = id
	t.sortedKeys = append(t.sortedKeys, key)
	return id, nil
}

// deleteRow removes a key, returning the old row.
func (d *Database) deleteRow(t *Table, key Value) (Row, error) {
	id, ok := t.pk[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q key %d", ErrNoRow, t.name, key)
	}
	old := t.rows[id]
	t.rows[id] = nil
	delete(t.pk, key)
	t.free = append(t.free, id)
	t.unindex(key)
	return old, nil
}

// unindex removes a deleted key from the ordered index: by binary search
// from the sorted prefix, else from the unsorted tail, searched from the
// end because an Abort's undo-insert removes the newest key.
func (t *Table) unindex(key Value) {
	if i, ok := slices.BinarySearch(t.sortedKeys[:t.sortedLen], key); ok {
		t.sortedKeys = slices.Delete(t.sortedKeys, i, i+1)
		t.sortedLen--
		return
	}
	for i := len(t.sortedKeys) - 1; i >= t.sortedLen; i-- {
		if t.sortedKeys[i] == key {
			t.sortedKeys = slices.Delete(t.sortedKeys, i, i+1)
			return
		}
	}
}

// Get returns a copy of the row with the given primary key.
func (d *Database) Get(table string, key Value) (Row, error) {
	t, err := d.Table(table)
	if err != nil {
		return nil, err
	}
	id, ok := t.pk[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q key %d", ErrNoRow, table, key)
	}
	d.touch(t, id, false)
	return append(Row(nil), t.rows[id]...), nil
}

// reindex restores the sorted-key invariant before a range scan.
func (t *Table) reindex() {
	if len(t.sortedKeys) == t.sortedLen {
		return
	}
	tail := append(t.tailBuf[:0], t.sortedKeys[t.sortedLen:]...)
	slices.Sort(tail) // keys are unique, so the order is fully determined
	// Backward merge of the sorted prefix with the scratch copy of the
	// tail: the write cursor k stays strictly above the prefix read
	// cursor (k >= i+j+1 > i), so no prefix key is clobbered unread.
	keys := t.sortedKeys
	i, k := t.sortedLen-1, len(keys)-1
	for j := len(tail) - 1; j >= 0; {
		if i >= 0 && keys[i] > tail[j] {
			keys[k] = keys[i]
			i--
		} else {
			keys[k] = tail[j]
			j--
		}
		k--
	}
	t.tailBuf = tail[:0]
	t.sortedLen = len(keys)
}

// Scan returns copies of rows with keys in [lo, hi], at most limit (0 = no
// limit), in key order.
func (d *Database) Scan(table string, lo, hi Value, limit int) ([]Row, error) {
	t, err := d.Table(table)
	if err != nil {
		return nil, err
	}
	t.reindex()
	start, _ := slices.BinarySearch(t.sortedKeys, lo)
	var out []Row
	for i := start; i < len(t.sortedKeys) && t.sortedKeys[i] <= hi; i++ {
		if limit > 0 && len(out) >= limit {
			break
		}
		id := t.pk[t.sortedKeys[i]]
		d.touch(t, id, false)
		out = append(out, append(Row(nil), t.rows[id]...))
	}
	return out, nil
}
