package persist_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/persist"
	"coverage/internal/registry"
)

// refusedStates are engine states whose schemas dataset.NewSchema
// refuses: 65 binary attributes (a 130-bit combination key) and an
// attribute that repeats a value label. Data directories written before
// those limits existed can hold either.
func refusedStates() map[string]*engine.State {
	wide := make([]dataset.Attribute, 65)
	for i := range wide {
		wide[i] = dataset.Attribute{Name: fmt.Sprintf("b%d", i), Values: []string{"no", "yes"}}
	}
	dup := []dataset.Attribute{
		{Name: "a", Values: []string{"y", "y"}},
		{Name: "b", Values: []string{"p", "q"}},
	}
	state := func(attrs []dataset.Attribute) *engine.State {
		row := string(make([]byte, len(attrs)))
		return &engine.State{
			Attrs:      attrs,
			Counts:     [][]engine.KeyCount{{{Key: row, Count: 5}}},
			Rows:       5,
			Generation: 3,
		}
	}
	return map[string]*engine.State{"wide": state(wide), "dup": state(dup)}
}

// writeStateDir writes st as the only snapshot of dir.
func writeStateDir(t *testing.T, dir string, st *engine.State) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := persist.WriteSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, persist.SnapshotNameForTest(st.Generation)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirFiles maps every file under dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func assertSameFiles(t *testing.T, what string, before, after map[string]string) {
	t.Helper()
	if len(before) != len(after) {
		t.Fatalf("%s: %d files before recovery, %d after", what, len(before), len(after))
	}
	for path, b := range before {
		if a, ok := after[path]; !ok || a != b {
			t.Fatalf("%s: recovery changed or moved %s", what, path)
		}
	}
}

// TestRecoverRefusesSchemaPastLimits: a data directory whose snapshot
// declares a schema that dataset.NewSchema now refuses makes Recover
// fail with an error naming the schema problem. It must not panic, and
// it must not quarantine, truncate or rewrite anything: the snapshot is
// intact, just unusable by this binary.
func TestRecoverRefusesSchemaPastLimits(t *testing.T) {
	for name, st := range refusedStates() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeStateDir(t, dir, st)
			before := dirFiles(t, dir)
			s, err := persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			eng, _, err := s.Recover()
			if err == nil || eng != nil {
				t.Fatalf("Recover restored a %s schema", name)
			}
			if !strings.Contains(err.Error(), "restoring schema") {
				t.Fatalf("Recover error %q does not name the schema", err)
			}
			s.Close()
			assertSameFiles(t, name, before, dirFiles(t, dir))
		})
	}
}

// TestRegistryAcquireRefusesSchemaPastLimits: the same directories
// parked as registry tenants are listed at open, fail Acquire with an
// error instead of taking the process down, stay on disk as they were,
// and leave their healthy neighbour serving.
func TestRegistryAcquireRefusesSchemaPastLimits(t *testing.T) {
	dir := t.TempDir()
	before := make(map[string]map[string]string)
	for name, st := range refusedStates() {
		tdir := filepath.Join(dir, "tenants", name)
		writeStateDir(t, tdir, st)
		before[name] = dirFiles(t, tdir)
	}
	healthy := persist.MutatedEngineForTest(t, 5, 40)
	writeStateDir(t, filepath.Join(dir, "tenants", "healthy"), healthy.ExportState())

	reg, err := registry.Open(registry.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if got := len(reg.List()); got != 3 {
		t.Fatalf("registry found %d tenants, want 3", got)
	}
	for name := range before {
		for try := 0; try < 2; try++ {
			h, err := reg.Acquire(name)
			if err == nil {
				h.Release()
				t.Fatalf("Acquire(%q) restored a refused schema", name)
			}
			if !strings.Contains(err.Error(), "restoring schema") {
				t.Fatalf("Acquire(%q) error %q does not name the schema", name, err)
			}
		}
	}
	h, err := reg.Acquire("healthy")
	if err != nil {
		t.Fatalf("healthy tenant beside the refused ones: %v", err)
	}
	persist.AssertEquivalentForTest(t, healthy, h.Engine())
	h.Release()

	for name, files := range before {
		assertSameFiles(t, name, files, dirFiles(t, filepath.Join(dir, "tenants", name)))
	}
}

// TestStatsListsRefusedSnapshots: the retention scenario of
// TestStoreRetentionKeepsReadableFallback, read through Stats. From a
// readable gen-0 image and a v2-headered gen-27 image, recovery falls
// back to gen 0; Stats lists generation 27 as refused, and still does
// after a later full snapshot, which leaves the file in place.
func TestStatsListsRefusedSnapshots(t *testing.T) {
	dir := t.TempDir()
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "a", Values: []string{"p", "q"}},
		{Name: "b", Values: []string{"x", "y", "z"}},
	})
	s, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(schema, engine.Options{})
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	appendUntil := func(s *persist.Store, eng *engine.Engine, gen uint64) {
		for i := 0; eng.Generation() < gen; i++ {
			if err := s.Append([][]uint8{{uint8(i % 2), uint8(i % 3)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendUntil(s, eng, 27)
	var buf bytes.Buffer
	if _, err := persist.WriteSnapshot(&buf, eng.ExportState()); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	v2[8], v2[9], v2[10], v2[11] = 2, 0, 0, 0 // the format version, little-endian
	refused := filepath.Join(dir, persist.SnapshotNameForTest(27))
	if err := os.WriteFile(refused, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().RefusedSnapshots; len(got) != 0 {
		t.Fatalf("store that recovered nothing lists refused snapshots %v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	eng, info, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotGeneration != 0 {
		t.Fatalf("recovered gen %d, want the gen-0 fallback", info.SnapshotGeneration)
	}
	if got := s.Stats().RefusedSnapshots; len(got) != 1 || got[0] != 27 {
		t.Fatalf("refused snapshots after recovery = %v, want [27]", got)
	}
	appendUntil(s, eng, 40)
	if res, err := s.Snapshot(); err != nil || res.Delta {
		t.Fatalf("snapshot = %+v, %v, want a full image", res, err)
	}
	if got := s.Stats().RefusedSnapshots; len(got) != 1 || got[0] != 27 {
		t.Fatalf("refused snapshots after a snapshot = %v, want [27]", got)
	}
	if _, err := os.Stat(refused); err != nil {
		t.Fatalf("refused snapshot pruned: %v", err)
	}
}
