package persist_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"coverage/internal/persist"
	"coverage/internal/registry"
)

// TestLegacySnapshotsUnderTenantDirs proves the registry's per-tenant
// directory layout restores a snapshot file dropped into
// <dir>/tenants/<id>: it is discovered at registry open, lazily
// restored on first acquire, answer-identical to the engine it was
// encoded from, and accepts mutations afterwards. Only the current
// format (v3) is left to restore; older versions are refused with
// ErrVersion (see TestSnapshotUnknownVersion).
func TestLegacySnapshotsUnderTenantDirs(t *testing.T) {
	const id = "current-v3"
	shadow := persist.MutatedEngineForTest(t, 33, 80)
	st := shadow.ExportState()
	var buf bytes.Buffer
	if _, err := persist.WriteSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tdir := filepath.Join(dir, "tenants", id)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tdir, persist.SnapshotNameForTest(st.Generation)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	reg, err := registry.Open(registry.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if got := len(reg.List()); got != 1 {
		t.Fatalf("registry found %d tenants, want 1", got)
	}

	t.Run(id, func(t *testing.T) {
		h, err := reg.Acquire(id)
		if err != nil {
			t.Fatalf("acquiring %q: %v", id, err)
		}
		defer h.Release()
		persist.AssertEquivalentForTest(t, shadow, h.Engine())
		// The restored tenant keeps mutating through its WAL.
		rng := rand.New(rand.NewSource(7))
		cards := h.Engine().Cards()
		row := make([]uint8, len(cards))
		for i, c := range cards {
			row[i] = uint8(rng.Intn(c))
		}
		if err := h.Store().Append([][]uint8{row}); err != nil {
			t.Fatalf("appending to restored %q: %v", id, err)
		}
	})
}
