package db

import (
	"errors"
	"fmt"
)

// LogKind enumerates write-ahead-log record types.
type LogKind uint8

// Log record kinds.
const (
	LogInsert LogKind = iota
	LogDelete
	LogUpdate
	LogCommit
)

// String names the kind.
func (k LogKind) String() string {
	switch k {
	case LogInsert:
		return "insert"
	case LogDelete:
		return "delete"
	case LogUpdate:
		return "update"
	case LogCommit:
		return "commit"
	default:
		return fmt.Sprintf("log(%d)", uint8(k))
	}
}

// LogRecord is one redo record. Only committed transactions' records are
// appended (redo-only logging: undo lives in the transaction itself).
type LogRecord struct {
	LSN   uint64
	Txn   uint64
	Kind  LogKind
	Table string
	Key   Value
	Col   int   // LogUpdate: column set
	Val   Value // LogUpdate: new value
	Row   Row   // LogInsert: full tuple
}

// WAL is the redo log: commit appends the transaction's records and a
// commit record; a group-commit policy batches flushes to the storage
// backend, whose write latency accumulates as log wait.
type WAL struct {
	storage Storage
	group   int // commits per flush

	lsn uint64
	// tail is a fixed-capacity ring of the newest tailCap records, kept
	// for inspection and replay. It fills by append; once full, each new
	// record overwrites the oldest at tail[head] and head advances, so an
	// append is O(1).
	tail           []LogRecord
	head           int
	tailCap        int
	pendingCommits int
	flushes        uint64
	flushedLSN     uint64
	appended       uint64
	waitMS         float64
}

// NewWAL builds a log over the storage backend with the given group-commit
// batch size.
func NewWAL(storage Storage, groupCommit int) (*WAL, error) {
	if storage == nil {
		return nil, errors.New("db: nil WAL storage")
	}
	if groupCommit < 1 {
		return nil, fmt.Errorf("db: bad group-commit size %d", groupCommit)
	}
	return &WAL{storage: storage, group: groupCommit, tailCap: 4096}, nil
}

// append adds one record, returning its LSN.
func (w *WAL) append(rec LogRecord) uint64 {
	w.lsn++
	rec.LSN = w.lsn
	if len(w.tail) < w.tailCap {
		w.tail = append(w.tail, rec)
	} else {
		w.tail[w.head] = rec
		if w.head++; w.head == w.tailCap {
			w.head = 0
		}
	}
	w.appended++
	return rec.LSN
}

// commit appends the transaction's redo records plus its commit record and
// runs the group-commit policy.
func (w *WAL) commit(txn uint64, recs []LogRecord) {
	for _, r := range recs {
		r.Txn = txn
		w.append(r)
	}
	w.append(LogRecord{Txn: txn, Kind: LogCommit})
	w.pendingCommits++
	if w.pendingCommits >= w.group {
		w.flush()
	}
}

// flush forces the log to storage.
func (w *WAL) flush() {
	if w.flushedLSN == w.lsn {
		// The whole log is already durable, so this flush performs no
		// storage write — but the accounting must stay coherent anyway:
		// once flushedLSN == lsn there can be no commit still awaiting
		// durability, so a surviving pendingCommits count would make the
		// next group threshold fire early. Every commit currently advances
		// lsn (it always appends its commit record) before counting itself
		// pending, so today this reset is a no-op; it pins the invariant
		// "flushed log => zero pending commits" against future record
		// batching rather than relying on that ordering.
		w.pendingCommits = 0
		return
	}
	w.flushes++
	w.flushedLSN = w.lsn
	w.pendingCommits = 0
	w.waitMS += w.storage.WriteMS()
}

// Flush forces out any buffered commits (shutdown / checkpoint).
func (w *WAL) Flush() { w.flush() }

// LSN returns the last assigned log sequence number.
func (w *WAL) LSN() uint64 { return w.lsn }

// FlushedLSN returns the durable prefix.
func (w *WAL) FlushedLSN() uint64 { return w.flushedLSN }

// Flushes returns how many storage writes the log performed.
func (w *WAL) Flushes() uint64 { return w.flushes }

// Appended returns how many records were ever appended.
func (w *WAL) Appended() uint64 { return w.appended }

// Tail returns a fresh oldest-first copy of the retained in-memory
// records (at most the newest tailCap). The copy is the caller's to
// modify; the records' Row slices are shared with the log.
func (w *WAL) Tail() []LogRecord {
	out := make([]LogRecord, 0, len(w.tail))
	out = append(out, w.tail[w.head:]...)
	return append(out, w.tail[:w.head]...)
}

// TakeWaitMS returns and clears the accumulated flush latency.
func (w *WAL) TakeWaitMS() float64 {
	v := w.waitMS
	w.waitMS = 0
	return v
}

// Replay applies the committed transactions of a redo log to a database.
// Records of transactions without a commit record are skipped, as a
// recovery pass would. The database must contain the schema and the state
// the log was taken against.
func Replay(d *Database, records []LogRecord) error {
	committed := map[uint64]bool{}
	for _, r := range records {
		if r.Kind == LogCommit {
			committed[r.Txn] = true
		}
	}
	for _, r := range records {
		if !committed[r.Txn] {
			continue
		}
		t, err := d.Table(r.Table)
		switch r.Kind {
		case LogInsert:
			if err != nil {
				return fmt.Errorf("db: replay insert: %w", err)
			}
			if _, err := d.insertRow(t, r.Row); err != nil {
				return fmt.Errorf("db: replay insert lsn %d: %w", r.LSN, err)
			}
		case LogDelete:
			if err != nil {
				return fmt.Errorf("db: replay delete: %w", err)
			}
			if _, err := d.deleteRow(t, r.Key); err != nil {
				return fmt.Errorf("db: replay delete lsn %d: %w", r.LSN, err)
			}
		case LogUpdate:
			if err != nil {
				return fmt.Errorf("db: replay update: %w", err)
			}
			id, ok := t.pk[r.Key]
			if !ok {
				return fmt.Errorf("db: replay update lsn %d: %w", r.LSN, ErrNoRow)
			}
			t.rows[id][r.Col] = r.Val
		case LogCommit:
			// marker only
		}
	}
	return nil
}
