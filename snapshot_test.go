package coverage_test

import (
	"bytes"
	"errors"
	"testing"

	"coverage"
	"coverage/internal/datagen"
	"coverage/internal/persist"
)

// TestAnalyzerSnapshotRoundTrip exercises the public persistence
// passthroughs: SnapshotTo → RestoreAnalyzer reproduces row counts,
// coverage answers and MUP reports.
func TestAnalyzerSnapshotRoundTrip(t *testing.T) {
	an := coverage.NewAnalyzer(auditFixture(t))
	if err := an.Append([][]uint8{{0, 1}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := an.Delete([][]uint8{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	rep, err := an.FindMUPs(coverage.FindOptions{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := an.SnapshotTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("SnapshotTo reported %d bytes, wrote %d", n, buf.Len())
	}

	restored, err := coverage.RestoreAnalyzer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumRows() != an.NumRows() {
		t.Fatalf("restored rows = %d, want %d", restored.NumRows(), an.NumRows())
	}
	schema := an.Dataset().Schema()
	for _, raw := range []string{"XX", "0X", "X1", "01", "12"} {
		p, err := coverage.ParsePattern(raw, schema)
		if err != nil {
			t.Fatal(err)
		}
		w, err := an.Coverage(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := restored.Coverage(p)
		if err != nil {
			t.Fatal(err)
		}
		if w != g {
			t.Errorf("cov(%s): restored %d, want %d", raw, g, w)
		}
	}
	rep2, err := restored.FindMUPs(coverage.FindOptions{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MUPs) != len(rep2.MUPs) {
		t.Fatalf("restored MUPs = %v, want %v", rep2.MUPs, rep.MUPs)
	}
	for i := range rep.MUPs {
		if rep.MUPs[i].String() != rep2.MUPs[i].String() {
			t.Errorf("MUP %d: restored %v, want %v", i, rep2.MUPs[i], rep.MUPs[i])
		}
	}
	// Schema survives for descriptions and label resolution.
	if rep.Describe(0) != rep2.Describe(0) {
		t.Errorf("description: restored %q, want %q", rep2.Describe(0), rep.Describe(0))
	}
	if err := restored.Append([][]uint8{{0, 0}}); err != nil {
		t.Errorf("restored analyzer rejects appends: %v", err)
	}
}

// TestRestoreAnalyzerRejectsDamage: the typed persistence errors
// surface through the public API.
func TestRestoreAnalyzerRejectsDamage(t *testing.T) {
	an := coverage.NewAnalyzer(auditFixture(t))
	var buf bytes.Buffer
	if _, err := an.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x04
	if _, err := coverage.RestoreAnalyzer(bytes.NewReader(flipped)); !errors.Is(err, persist.ErrChecksum) {
		t.Errorf("bit flip: err = %v, want persist.ErrChecksum", err)
	}
	if _, err := coverage.RestoreAnalyzer(bytes.NewReader(data[:10])); !errors.Is(err, persist.ErrTruncated) {
		t.Errorf("truncation: err = %v, want persist.ErrTruncated", err)
	}
}

// TestSnapshotBytesIndependentOfPlanScheduling: the snapshot holds no
// trace of how a plan's search ran, such as the tree nodes it visited.
// Analyzers that run one history write identical bytes, and a restored
// plan reports no nodes, since it ran no search.
func TestSnapshotBytesIndependentOfPlanScheduling(t *testing.T) {
	var first []byte
	for run := 0; run < 8; run++ {
		an := coverage.NewAnalyzer(datagen.AirBnB(10000, 15, 1))
		rep, err := an.FindMUPs(coverage.FindOptions{Threshold: 800})
		if err != nil {
			t.Fatal(err)
		}
		opts := coverage.PlanOptions{MaxLevel: 3}
		if _, err := an.Plan(rep, opts); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := an.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		if run > 0 {
			if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("run %d wrote a different snapshot (%d bytes, first run %d)", run, buf.Len(), len(first))
			}
			continue
		}
		first = bytes.Clone(buf.Bytes())
		restored, err := coverage.RestoreAnalyzer(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rep, err = restored.FindMUPs(coverage.FindOptions{Threshold: 800})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := restored.Plan(rep, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.NodesExplored != 0 {
			t.Errorf("restored plan reports %d nodes explored, want 0", plan.Stats.NodesExplored)
		}
	}
}
