package persist

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"coverage/internal/engine"
)

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eng := engine.New(testSchema(), engine.Options{})
	dim := len(eng.Cards())
	w, err := createWALSegment(dir, 0, dim, false)
	if err != nil {
		t.Fatal(err)
	}

	// Apply a mutation sequence, logging each record exactly as the
	// store does: after the engine accepts it, stamped with the
	// resulting generation.
	logAppend := func(rows [][]uint8) {
		if err := eng.Append(rows); err != nil {
			t.Fatal(err)
		}
		if err := w.appendRecord(opAppend, eng.Generation(), rows, 0); err != nil {
			t.Fatal(err)
		}
	}
	logDelete := func(rows [][]uint8) {
		if err := eng.Delete(rows); err != nil {
			t.Fatal(err)
		}
		if err := w.appendRecord(opDelete, eng.Generation(), rows, 0); err != nil {
			t.Fatal(err)
		}
	}
	logWindow := func(n int) {
		eng.SetWindow(n)
		if err := w.appendRecord(opWindow, eng.Generation(), nil, n); err != nil {
			t.Fatal(err)
		}
	}
	logAppend([][]uint8{{0, 0, 0}, {0, 0, 0}, {1, 2, 3}, {1, 1, 1}})
	logDelete([][]uint8{{0, 0, 0}})
	logWindow(3)
	logAppend([][]uint8{{0, 1, 2}, {1, 0, 3}})
	logWindow(0)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	recs, _, torn, err := readWALSegment(filepath.Join(dir, walName(0)), dim)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("cleanly closed segment reported torn")
	}
	if len(recs) != 5 {
		t.Fatalf("read %d records, want 5", len(recs))
	}

	replayed := engine.New(testSchema(), engine.Options{})
	applied, skipped, batches, err := replaySegment(replayed, recs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 5 || skipped != 0 {
		t.Errorf("applied %d, skipped %d, want 5, 0", applied, skipped)
	}
	// The append and delete before the first window change are one run;
	// the window changes and the append under the window go one by one.
	if batches != 4 {
		t.Errorf("replay applied %d engine batches, want 4", batches)
	}
	assertEquivalent(t, eng, replayed)

	// Replay is idempotent: every record (window changes included)
	// carries a unique generation, so running the same records again
	// applies nothing.
	applied, skipped, _, err = replaySegment(replayed, recs)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 5 {
		t.Errorf("second replay skipped %d records, want all 5", skipped)
	}
	if applied != 0 {
		t.Errorf("second replay applied %d records, want 0", applied)
	}
	assertEquivalent(t, eng, replayed)
}

// writeTestSegment writes n append records and returns the segment
// path and the engine that accepted them.
func writeTestSegment(t *testing.T, dir string, n int) (string, *engine.Engine) {
	t.Helper()
	eng := engine.New(testSchema(), engine.Options{})
	w, err := createWALSegment(dir, 0, len(eng.Cards()), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rows := [][]uint8{{uint8(i % 2), uint8(i % 3), uint8(i % 4)}}
		if err := eng.Append(rows); err != nil {
			t.Fatal(err)
		}
		if err := w.appendRecord(opAppend, eng.Generation(), rows, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, walName(0)), eng
}

// TestWALTornTail truncates the segment at every byte boundary of the
// final record and at sub-header sizes: the reader must drop exactly
// the torn tail and keep every intact record.
func TestWALTornTail(t *testing.T) {
	path, _ := writeTestSegment(t, t.TempDir(), 6)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dim := 3
	recs, goodSize, _, err := readWALSegment(path, dim)
	if err != nil || len(recs) != 6 {
		t.Fatalf("full read: %d records, err %v", len(recs), err)
	}
	if goodSize != int64(len(data)) {
		t.Fatalf("goodSize %d, file is %d bytes", goodSize, len(data))
	}

	// Find the offset of the last record by re-parsing.
	lastStart := int64(walHeaderSize)
	for i := 0; i < 5; i++ {
		_, next, ok := parseWALRecord(data, lastStart, dim)
		if !ok {
			t.Fatal("re-parse failed")
		}
		lastStart = next
	}

	for cut := lastStart + 1; cut < int64(len(data)); cut++ {
		tmp := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(tmp, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, good, torn, err := readWALSegment(tmp, dim)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut at %d: torn tail not detected", cut)
		}
		if len(recs) != 5 || good != lastStart {
			t.Fatalf("cut at %d: %d records, goodSize %d, want 5 records, %d", cut, len(recs), good, lastStart)
		}
	}

	// A bit flip inside the last record's payload is also a torn tail.
	flipped := append([]byte(nil), data...)
	flipped[lastStart+9] ^= 0x40
	tmp := filepath.Join(t.TempDir(), "flipped.wal")
	if err := os.WriteFile(tmp, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, good, torn, err := readWALSegment(tmp, dim)
	if err != nil || !torn || len(recs) != 5 || good != lastStart {
		t.Fatalf("flipped last record: %d records, goodSize %d, torn %v, err %v", len(recs), good, torn, err)
	}

	// A sub-header stump (crash during segment creation) is zero
	// records, torn.
	stump := filepath.Join(t.TempDir(), "stump.wal")
	if err := os.WriteFile(stump, data[:walHeaderSize-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, _, torn, err := readWALSegment(stump, dim); err != nil || !torn || len(recs) != 0 {
		t.Fatalf("stump: %d records, torn %v, err %v", len(recs), torn, err)
	}
}

func TestWALHeaderValidation(t *testing.T) {
	path, _ := writeTestSegment(t, t.TempDir(), 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	badMagic := append([]byte(nil), data...)
	badMagic[3] ^= 0xFF
	badVersion := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(badVersion[8:], walVersion+1)

	for _, tc := range []struct {
		name string
		data []byte
		dim  int
		want error
	}{
		{"bad magic", badMagic, 3, ErrBadMagic},
		{"unknown version", badVersion, 3, ErrVersion},
		{"dimension mismatch", data, 4, ErrCorrupt},
	} {
		tmp := filepath.Join(t.TempDir(), "seg.wal")
		if err := os.WriteFile(tmp, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := readWALSegment(tmp, tc.dim); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestWALGenerationGap: a record that skips a generation means the
// snapshot/WAL pairing is broken; replay must refuse.
func TestWALGenerationGap(t *testing.T) {
	recs := []walRecord{
		{op: opAppend, gen: 1, rows: []byte{0, 0, 0}},
		{op: opAppend, gen: 3, rows: []byte{1, 1, 1}},
	}
	eng := engine.New(testSchema(), engine.Options{})
	if _, _, _, err := replaySegment(eng, recs); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// TestWALSinceStream pins the follower feed: every record past the
// requested generation, across segment rotations, framed whole,
// gen-contiguous, and bounded by the returned leader
// generation.
func TestWALSinceStream(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	cards := eng.Cards()
	for i := 0; i < 4; i++ {
		if err := s.Append([][]uint8{{uint8(i % 2), 0, uint8(i % 4)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Snapshot(); err != nil { // rotates the segment
		t.Fatal(err)
	}
	if err := s.SetWindow(10); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}

	data, leaderGen, err := s.WALSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if leaderGen != eng.Generation() {
		t.Fatalf("leader generation %d, engine at %d", leaderGen, eng.Generation())
	}
	recs, complete := feedRecords(data, len(cards))
	if !complete {
		t.Fatal("stream from a quiescent leader not complete")
	}
	if len(recs) != 6 {
		t.Fatalf("decoded %d records, want 6", len(recs))
	}
	wantOps := []byte{opAppend, opAppend, opAppend, opAppend, opWindow, opDelete}
	for i, r := range recs {
		if r.gen != uint64(i+1) {
			t.Fatalf("record %d at generation %d, want %d", i, r.gen, i+1)
		}
		if r.op != wantOps[i] {
			t.Fatalf("record %d op %d, want %d", i, r.op, wantOps[i])
		}
		if r.gen > leaderGen {
			t.Fatalf("record %d past the reported leader generation", i)
		}
	}
	if recs[4].maxRows != 10 {
		t.Fatalf("window record carries %d, want 10", recs[4].maxRows)
	}

	// A mid-stream request returns only the suffix.
	data, _, err = s.WALSince(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, complete = feedRecords(data, len(cards))
	if !complete || len(recs) != 2 || recs[0].gen != 5 {
		t.Fatalf("suffix from gen 4: %d records complete=%v, want 2 starting at 5", len(recs), complete)
	}

	// A request at the tip returns an empty, complete stream.
	data, _, err = s.WALSince(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recs, complete := feedRecords(data, len(cards)); !complete || len(recs) != 0 {
		t.Fatalf("stream at the tip: %d records complete=%v, want none", len(recs), complete)
	}
}

// TestWALSinceMaxBytes checks the cap lands on a record boundary and
// the follower can resume from where the capped stream ended.
func TestWALSinceMaxBytes(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	cards := eng.Cards()
	for i := 0; i < 10; i++ {
		if err := s.Append([][]uint8{{0, uint8(i % 3), 0}}); err != nil {
			t.Fatal(err)
		}
	}
	full, _, err := s.WALSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	capped, _, err := s.WALSince(0, len(full)/3)
	if err != nil {
		t.Fatal(err)
	}
	recs, complete := feedRecords(capped, len(cards))
	if !complete {
		t.Fatal("capped stream does not end on a record boundary")
	}
	if len(recs) == 0 || len(recs) >= 10 {
		t.Fatalf("capped stream carries %d records, want a strict prefix", len(recs))
	}
	rest, _, err := s.WALSince(recs[len(recs)-1].gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	restRecs, complete := feedRecords(rest, len(cards))
	if !complete || len(recs)+len(restRecs) != 10 {
		t.Fatalf("resume after cap: %d + %d records, want 10 total", len(recs), len(restRecs))
	}
}

// TestWALSinceGone checks a pruned tail is reported as ErrGone, not an
// empty stream — the follower must resync from the snapshot chain.
func TestWALSinceGone(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxDeltaChain: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(testSchema(), engine.Options{})
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	// With a chain of at most one delta, the snapshots after Attach's
	// full image alternate delta and full, so four rounds leave three
	// full images: cleanup keeps the two newest and prunes every WAL
	// segment before the older one.
	for i := 0; i < 4; i++ {
		if err := s.Append([][]uint8{{0, 0, 0}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.WALSince(0, 0); !errors.Is(err, ErrGone) {
		t.Fatalf("err = %v, want ErrGone", err)
	}
	// The retained range still serves.
	if _, _, err := s.WALSince(eng.Generation(), 0); err != nil {
		t.Fatalf("tip request on a pruned store: %v", err)
	}
}

// TestParseWALRecordAllocs pins the decode cost recovery and the
// follower's feed pay per record: none, whatever the row count. The
// rows are a capacity-clipped view of the record's bytes in the input
// buffer, not a copy.
func TestParseWALRecordAllocs(t *testing.T) {
	const dim = 5
	w := &walWriter{dim: dim}
	frame := func(nrows int) []byte {
		rows := make([][]uint8, nrows)
		for i := range rows {
			rows[i] = []uint8{uint8(i), uint8(i >> 8), 2, 3, 4}
		}
		buf, err := w.encodeRecord(nil, opAppend, 7, rows, 0)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	for _, nrows := range []int{3, 3000} {
		data := frame(nrows)
		rec, next, ok := parseWALRecord(data, 0, dim)
		if !ok || next != int64(len(data)) || len(rec.rows) != nrows*dim || cap(rec.rows) != nrows*dim {
			t.Fatalf("%d-row record: ok=%v next=%d of %d, %d row bytes (cap %d)", nrows, ok, next, len(data), len(rec.rows), cap(rec.rows))
		}
		for r := range nrows {
			row := rec.rows[r*dim : (r+1)*dim]
			if row[0] != uint8(r) || row[1] != uint8(r>>8) || row[4] != 4 {
				t.Fatalf("%d-row record: row %d = %v", nrows, r, row)
			}
		}
		// The rows view the input buffer.
		if &rec.rows[len(rec.rows)-1] != &data[len(data)-1] {
			t.Fatalf("%d-row record: rows do not view the input buffer", nrows)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, _, ok := parseWALRecord(data, 0, dim); !ok {
				t.Fatal("re-parse failed")
			}
		}); allocs != 0 {
			t.Errorf("parseWALRecord allocates %.0f times for %d rows, want 0", allocs, nrows)
		}
	}
}
