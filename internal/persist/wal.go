package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"coverage/internal/engine"
)

// WAL segment framing:
//
//	magic    [8]byte  "COVWAL\x00\x00"
//	version  uint32le
//	dim      uint32le  row width in bytes (schema dimension)
//	records...
//
// Each record:
//
//	length  uint32le  payload byte count
//	crc     uint32le  CRC32-C of payload
//	payload:
//	  op    byte      opAppend | opDelete | opWindow
//	  gen   uvarint   engine generation after applying the mutation
//	  body:
//	    append/delete: nrows uvarint, then nrows × dim raw bytes
//	    window:        maxRows uvarint
//
// A record is written with a single write call after the engine has
// accepted the mutation. The reader stops at the first record whose
// header, length or CRC does not check out — a torn tail from a crash
// mid-write — and reports the byte offset of the last good record so
// the store can truncate the garbage before appending again.
var walMagic = [8]byte{'C', 'O', 'V', 'W', 'A', 'L', 0, 0}

const walVersion uint32 = 1

const walHeaderSize = 8 + 4 + 4

const (
	opAppend byte = 1
	opDelete byte = 2
	opWindow byte = 3
)

// walRecord is one decoded WAL record. rows views the record's payload
// in the buffer it was parsed from, nrows × dim bytes with row i at
// rows[i*dim:(i+1)*dim]: nothing is copied, and nothing the engine
// keeps refers to it (the window ring holds packed keys).
type walRecord struct {
	op      byte
	gen     uint64
	rows    []byte // opAppend/opDelete
	maxRows int    // opWindow
}

// walWriter appends records to one open segment file. It is not safe
// for concurrent use; the Store serializes access.
type walWriter struct {
	f       *os.File
	path    string
	gen     uint64 // generation of the snapshot this segment follows
	sync    bool
	dim     int
	records int64
	bytes   int64
	// scratch is the reusable encode buffer: every record (and every
	// group of records) is framed into it before the single write call,
	// so the steady-state append path allocates nothing.
	scratch []byte
}

// createWALSegment creates dir/wal-<gen>.wal, writes its header and
// fsyncs the directory so the segment itself survives a crash.
func createWALSegment(dir string, gen uint64, dim int, sync bool) (*walWriter, error) {
	path := filepath.Join(dir, walName(gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	header := make([]byte, walHeaderSize)
	copy(header, walMagic[:])
	binary.LittleEndian.PutUint32(header[8:], walVersion)
	binary.LittleEndian.PutUint32(header[12:], uint32(dim))
	if _, err := f.Write(header); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, path: path, gen: gen, sync: sync, dim: dim}, nil
}

// openWALSegment opens an existing segment for appending. goodSize is
// the validated end offset from a prior replay; anything after it was
// a torn tail and has already been truncated away.
func openWALSegment(path string, gen uint64, dim int, goodSize int64, sync bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(goodSize, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, path: path, gen: gen, sync: sync, dim: dim}, nil
}

// encodeRecord frames one record — length, CRC, payload — onto buf and
// returns the extended slice. On error buf may carry a truncated frame;
// the caller must discard back to the pre-call length.
func (w *walWriter) encodeRecord(buf []byte, op byte, gen uint64, rows [][]uint8, maxRows int) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC, backfilled
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, gen)
	switch op {
	case opAppend, opDelete:
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		for _, row := range rows {
			if len(row) != w.dim {
				return buf, fmt.Errorf("persist: WAL row has %d values, segment dimension is %d", len(row), w.dim)
			}
			buf = append(buf, row...)
		}
	case opWindow:
		buf = binary.AppendUvarint(buf, uint64(maxRows))
	default:
		return buf, fmt.Errorf("persist: unknown WAL op %d", op)
	}
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// writeGroup durably appends pre-framed bytes carrying n records with
// one write call and (when the segment syncs) one fsync — the group
// commit: every record in the group shares the same durability point.
func (w *walWriter) writeGroup(buf []byte, n int) error {
	if n == 0 {
		return nil
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("persist: appending WAL record: %w", err)
	}
	w.records += int64(n)
	w.bytes += int64(len(buf))
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("persist: syncing WAL: %w", err)
		}
	}
	return nil
}

// appendRecord encodes and durably appends one mutation record — a
// group of one. The encode runs through the reusable scratch buffer,
// so the steady state allocates nothing per record.
func (w *walWriter) appendRecord(op byte, gen uint64, rows [][]uint8, maxRows int) error {
	buf, err := w.encodeRecord(w.scratch[:0], op, gen, rows, maxRows)
	w.scratch = buf[:0]
	if err != nil {
		return err
	}
	return w.writeGroup(buf, 1)
}

// close flushes and closes the segment.
func (w *walWriter) close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// readWALSegment parses a segment file. It returns the decoded
// records, the byte offset just past the last intact record, and
// whether a torn tail (partial or corrupt trailing data) was dropped.
// A missing or mangled header is reported via ErrBadMagic/ErrVersion
// unless the file is empty or shorter than a header — the shape a
// crash during segment creation leaves — which yields zero records
// and torn=true.
func readWALSegment(path string, dim int) (recs []walRecord, goodSize int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	if len(data) < walHeaderSize {
		return nil, 0, true, nil
	}
	if [8]byte(data[:8]) != walMagic {
		return nil, 0, false, fmt.Errorf("%w: WAL segment %s", ErrBadMagic, path)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != walVersion {
		return nil, 0, false, fmt.Errorf("%w: WAL version %d, this build reads version %d", ErrVersion, v, walVersion)
	}
	if d := binary.LittleEndian.Uint32(data[12:]); int(d) != dim {
		return nil, 0, false, fmt.Errorf("%w: WAL segment dimension %d, engine schema has %d attributes", ErrCorrupt, d, dim)
	}
	off := int64(walHeaderSize)
	for {
		rec, next, ok := parseWALRecord(data, off, dim)
		if !ok {
			torn = int64(len(data)) > off
			return recs, off, torn, nil
		}
		recs = append(recs, rec)
		off = next
	}
}

// parseWALRecord decodes the record at off. ok is false when the
// bytes from off do not form a complete, checksummed, well-formed
// record — the torn-tail signal.
func parseWALRecord(data []byte, off int64, dim int) (rec walRecord, next int64, ok bool) {
	if off+8 > int64(len(data)) {
		return rec, 0, false
	}
	plen := int64(binary.LittleEndian.Uint32(data[off:]))
	want := binary.LittleEndian.Uint32(data[off+4:])
	if off+8+plen > int64(len(data)) {
		return rec, 0, false
	}
	payload := data[off+8 : off+8+plen]
	if crc32.Checksum(payload, castagnoli) != want {
		return rec, 0, false
	}
	if len(payload) < 2 {
		return rec, 0, false
	}
	rec.op = payload[0]
	rest := payload[1:]
	gen, n := binary.Uvarint(rest)
	if n <= 0 {
		return rec, 0, false
	}
	rec.gen = gen
	rest = rest[n:]
	switch rec.op {
	case opAppend, opDelete:
		nrows64, n := binary.Uvarint(rest)
		if n <= 0 {
			return rec, 0, false
		}
		rest = rest[n:]
		if dim <= 0 || nrows64 > uint64(len(rest)) || nrows64*uint64(dim) != uint64(len(rest)) {
			return rec, 0, false
		}
		// The rows stay where they are: replay reads them from the
		// buffer, and the engine keeps none of them.
		rec.rows = rest[:len(rest):len(rest)]
	case opWindow:
		maxRows, n := binary.Uvarint(rest)
		if n <= 0 || n != len(rest) {
			return rec, 0, false
		}
		rec.maxRows = int(maxRows)
	default:
		return rec, 0, false
	}
	return rec, off + 8 + plen, true
}

// replaySegment applies a segment's records to the engine. Every
// mutation — append, delete and window change alike — advances the
// engine's generation by exactly one, so replay gates each record on
// its stamped generation: a record at or below the engine's current
// generation is already reflected (in the snapshot, or by an earlier
// replay) and is skipped, which makes replay idempotent end to end. A
// generation gap means the log and snapshot disagree and recovery
// aborts rather than restoring a silently divergent engine. A
// follower's ApplyWAL replays the leader's feed through here too.
//
// Consecutive append and delete records are replayed in runs: each run
// is handed to the engine as one batch (engine.PrepareRun, CommitRun),
// its rows counted straight from the record bytes, so replay costs the
// distinct combinations a run touches rather than one engine mutation
// per record. While the engine has a window, whose ring must see the
// rows in arrival order, every append or delete record is a run of its
// own. A window record ends a run and is applied on its own; so is a
// record with no rows, which changes nothing. A record the engine
// refuses — a value code past its cardinality, a delete of more rows
// than are present at its point in the log — is ErrCorrupt, and a
// refused run leaves the engine as it was before the run. batches
// counts the engine batches applied: one per run, one per record
// applied on its own.
func replaySegment(eng *engine.Engine, recs []walRecord) (applied, skipped, batches int, err error) {
	var run []engine.RunRecord
	first := 0 // index of the run's first record
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		r, err := eng.PrepareRun(run)
		if err == nil {
			err = eng.CommitRun(r)
		}
		if err != nil {
			return fmt.Errorf("%w: replaying WAL records %d–%d: %w", ErrCorrupt, first, first+len(run)-1, err)
		}
		applied += len(run)
		batches++
		run = run[:0]
		return nil
	}
	for i, rec := range recs {
		gen := eng.Generation() + uint64(len(run))
		if rec.gen <= gen {
			skipped++
			continue
		}
		if rec.gen != gen+1 {
			return applied, skipped, batches, fmt.Errorf("%w: WAL record %d jumps from generation %d to %d", ErrCorrupt, i, gen, rec.gen)
		}
		if rec.op != opWindow && len(rec.rows) > 0 {
			if len(run) == 0 {
				first = i
			}
			run = append(run, engine.RunRecord{Delete: rec.op == opDelete, Rows: rec.rows})
			if eng.Window() > 0 {
				if err := flush(); err != nil {
					return applied, skipped, batches, err
				}
			}
			continue
		}
		if err := flush(); err != nil {
			return applied, skipped, batches, err
		}
		if rec.op == opWindow {
			eng.SetWindow(rec.maxRows)
		}
		applied++
		batches++
	}
	err = flush()
	return applied, skipped, batches, err
}
