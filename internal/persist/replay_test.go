package persist

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/mup"
)

// TestReplayRefusesBadRun: two hand-built segments whose records all
// carry valid CRCs, appended to a log the store wrote, each hold one
// run the engine must refuse — a delete past the count at its point in
// the run although the run as a whole nets to a non-negative count, and
// a value code past its attribute's cardinality. Replay is ErrCorrupt
// and leaves the engine as it was; Recover refuses the directory.
func TestReplayRefusesBadRun(t *testing.T) {
	type rec struct {
		op   byte
		rows [][]uint8
	}
	for _, tc := range []struct {
		name string
		recs []rec
	}{
		{"delete past the count mid-run", []rec{
			{opAppend, [][]uint8{{0, 0, 0}}},
			{opDelete, [][]uint8{{1, 2, 3}}},
			{opAppend, [][]uint8{{1, 2, 3}, {1, 2, 3}}},
		}},
		{"code past cardinality", []rec{
			{opAppend, [][]uint8{{0, 0, 0}}},
			{opAppend, [][]uint8{{0, 3, 0}}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, eng := attachFresh(t, dir)
			if err := s.Append([][]uint8{{1, 1, 1}, {0, 2, 3}}); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, walName(0))
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			w, err := openWALSegment(path, 0, 3, fi.Size(), false)
			if err != nil {
				t.Fatal(err)
			}
			gen := eng.Generation()
			for _, r := range tc.recs {
				gen++
				if err := w.appendRecord(r.op, gen, r.rows, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}

			recs, _, torn, err := readWALSegment(path, 3)
			if err != nil || torn || len(recs) != 1+len(tc.recs) {
				t.Fatalf("read %d records, torn %v, err %v; want %d intact", len(recs), torn, err, 1+len(tc.recs))
			}
			before := eng.ExportState()
			if _, _, _, err := replaySegment(eng, recs); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay err = %v, want ErrCorrupt", err)
			}
			if !reflect.DeepEqual(eng.ExportState(), before) {
				t.Fatal("the refused run changed the engine")
			}
			if _, _, err := openStore(t, dir).Recover(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Recover err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// walOp is one logged mutation of a fuzzed history.
type walOp struct {
	op      byte
	rows    [][]uint8
	maxRows int
}

// apply applies the op to an engine on its own, as record-by-record
// replay did.
func (o walOp) apply(eng *engine.Engine) error {
	switch o.op {
	case opAppend:
		return eng.Append(o.rows)
	case opDelete:
		return eng.Delete(o.rows)
	default:
		eng.SetWindow(o.maxRows)
		return nil
	}
}

// countModel is the reference FuzzWALReplay holds recovered counts to:
// the live rows, oldest first while a window is on. A delete retracts
// the oldest live copy of each row, and the window drops the oldest
// rows past its bound. The rows present when a window is switched on
// are ordered by value: the engine orders them by the occupancy of
// their key pages first, and every combination of the fuzzed schemas
// (at most 9 key bits) lies on one page.
type countModel struct {
	rows   []string
	window int
}

func (m *countModel) apply(o walOp) {
	switch o.op {
	case opAppend:
		for _, r := range o.rows {
			m.rows = append(m.rows, string(r))
		}
	case opDelete:
		for _, r := range o.rows {
			i := slices.Index(m.rows, string(r))
			m.rows = slices.Delete(m.rows, i, i+1)
		}
	default:
		if m.window == 0 {
			slices.Sort(m.rows)
		}
		m.window = o.maxRows
	}
	if m.window > 0 && len(m.rows) > m.window {
		m.rows = m.rows[len(m.rows)-m.window:]
	}
}

func (m *countModel) counts() map[string]int64 {
	c := make(map[string]int64)
	for _, r := range m.rows {
		c[r]++
	}
	return c
}

// FuzzWALReplay drives a random history of appends, deletes and window
// changes over a 3- or 4-attribute schema through a store, optionally
// snapshotting mid-way after a τ=2 search (so a cached MUP set is
// persisted), then damages the newest WAL segment: a truncation at a
// random byte or one flipped payload byte. Recovery, which commits each
// run of append and delete records as one engine batch, must either
// refuse with a typed error or answer exactly like a reference engine
// fed the surviving records one at a time: coverage of every pattern,
// rows, generation, window and MUPs at τ = 1, 2 (repaired from the
// restored cache) and 5 — and again after a further snapshot and
// recovery. Append and Delete commit through the same runs, so the
// recovered counts are also held to a count model of the surviving
// history.
func FuzzWALReplay(f *testing.F) {
	f.Add(int64(1), uint8(40), false, uint8(20), uint8(0), uint32(0), uint8(2))
	f.Add(int64(2), uint8(70), true, uint8(0), uint8(1), uint32(9000), uint8(1))
	f.Add(int64(3), uint8(60), true, uint8(30), uint8(2), uint32(777), uint8(3))
	f.Add(int64(4), uint8(90), false, uint8(45), uint8(1), uint32(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nops uint8, wide bool, snapAt uint8, damage uint8, pos uint32, shards uint8) {
		schema := testSchema()
		if wide {
			schema = dataset.MustSchema([]dataset.Attribute{
				{Name: "sex", Values: []string{"female", "male"}},
				{Name: "race", Values: []string{"black", "other", "white"}},
				{Name: "age", Values: []string{"lt25", "25to45", "gt45", "unknown"}},
				{Name: "tier", Values: []string{"a", "b"}},
			})
		}
		cards := schema.Cards()
		dir := t.TempDir()
		s := openStore(t, dir)
		eng := engine.New(schema, engine.Options{Shards: 2})
		if err := s.Attach(eng); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		n := 10 + int(nops)%80
		snapIdx := -1
		if snapAt%3 != 0 {
			snapIdx = int(snapAt) % n
		}
		var hist []walOp
		var snapGen uint64
		for i := 0; i < n; i++ {
			if i == snapIdx {
				if _, err := eng.MUPs(mup.Options{Threshold: 2}); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
				snapGen = eng.Generation()
			}
			var op walOp
			switch r := rng.Intn(20); {
			case r < 11:
				op = walOp{op: opAppend, rows: randomBatch(rng, cards, 1+rng.Intn(60))}
			case r < 17:
				op = walOp{op: opDelete, rows: deletableRows(rng, eng, 1+rng.Intn(8))}
				if len(op.rows) == 0 {
					continue
				}
			default:
				op = walOp{op: opWindow}
				if rng.Intn(3) > 0 {
					op.maxRows = 20 + rng.Intn(400)
				}
			}
			var err error
			switch op.op {
			case opAppend:
				err = s.Append(op.rows)
			case opDelete:
				err = s.Delete(op.rows)
			default:
				err = s.SetWindow(op.maxRows)
			}
			if err != nil {
				t.Fatal(err)
			}
			hist = append(hist, op)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		seg := filepath.Join(dir, walName(snapGen))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		switch damage % 3 {
		case 1:
			data = data[:int(pos)%(len(data)+1)]
		case 2:
			if len(data) > walHeaderSize {
				data[walHeaderSize+int(pos)%(len(data)-walHeaderSize)] ^= byte(1 + pos>>24%255)
			}
		}
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, _, err := readWALSegment(seg, len(cards))
		target := snapGen
		if err == nil && len(recs) > 0 {
			target = recs[len(recs)-1].gen
		}

		opts := Options{Engine: engine.Options{Shards: 1 + int(shards)%3}}
		recover := func() (*Store, *engine.Engine) {
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, info, err := s.Recover()
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
					t.Fatalf("Recover failed with an untyped error: %v", err)
				}
				return nil, nil
			}
			if info.ReplayRuns > info.Replayed {
				t.Fatalf("%d replay batches for %d records", info.ReplayRuns, info.Replayed)
			}
			return s, got
		}
		s, got := recover()
		if got == nil {
			return
		}
		ref := engine.New(schema, engine.Options{})
		var model countModel
		for _, op := range hist {
			if ref.Generation() == target {
				break
			}
			if err := op.apply(ref); err != nil {
				t.Fatal(err)
			}
			model.apply(op)
		}
		if c, want := countsOf(got.ExportState()), model.counts(); !reflect.DeepEqual(c, want) {
			t.Fatalf("recovered counts %v, the surviving history leaves %v", c, want)
		}
		assertEquivalent(t, ref, got)

		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, got = recover()
		if got == nil {
			t.Fatal("a directory recovery and a snapshot had just written was refused")
		}
		defer s.Close()
		assertEquivalent(t, ref, got)
	})
}
