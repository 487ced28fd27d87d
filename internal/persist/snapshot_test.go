package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"coverage/internal/engine"
)

func TestSnapshotRoundTrip(t *testing.T) {
	eng := mutatedEngine(t, 1, 120)
	st := eng.ExportState()

	var buf bytes.Buffer
	n, err := WriteSnapshot(&buf, st)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := engine.NewFromState(got, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fixed point: re-snapshotting the restored engine before any
	// query reproduces the identical bytes.
	var buf2 bytes.Buffer
	if _, err := WriteSnapshot(&buf2, restored.ExportState()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("snapshot→restore→snapshot is not a fixed point: %d vs %d bytes", buf.Len(), buf2.Len())
	}
	if restored.Stats().CachedSearches == 0 {
		t.Fatal("restored engine lost its MUP caches")
	}
	assertEquivalent(t, eng, restored)
}

// TestSnapshotPreservesCounters checks /stats continuity: the
// operation counters travel with the snapshot.
func TestSnapshotPreservesCounters(t *testing.T) {
	eng := mutatedEngine(t, 7, 60)
	restored, err := engine.NewFromState(eng.ExportState(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, g := eng.Stats(), restored.Stats()
	if w.Appends != g.Appends || w.Deletes != g.Deletes || w.Evictions != g.Evictions ||
		w.FullSearches != g.FullSearches || w.Repairs != g.Repairs ||
		w.BidirectionalRepairs != g.BidirectionalRepairs || w.Tombstones != g.Tombstones {
		t.Errorf("counters diverged:\nwant %+v\ngot  %+v", w, g)
	}
}

func snapshotBytes(t testing.TB, seed int64, ops int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, mutatedEngine(t, seed, ops).ExportState()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotBadMagic(t *testing.T) {
	data := snapshotBytes(t, 2, 40)
	data[0] ^= 0xFF
	if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

// withVersion returns a copy of a snapshot file image whose header
// declares version. The CRC covers only the payload, so the copy is
// otherwise well framed.
func withVersion(data []byte, version uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[8:], version)
	return out
}

// TestSnapshotUnknownVersion: v3 is the one full-snapshot format. The
// v1 and v2 layouts of the earliest writers, a lone delta (v4) and any
// future version are all refused with ErrVersion, never decoded.
func TestSnapshotUnknownVersion(t *testing.T) {
	data := snapshotBytes(t, 2, 40)
	for _, v := range []uint32{0, 1, 2, snapshotVersionDelta, snapshotVersion + 7} {
		if _, err := ReadSnapshot(bytes.NewReader(withVersion(data, v))); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: err = %v, want ErrVersion", v, err)
		}
	}
}

// TestSnapshotFlippedBit flips one bit at a sweep of payload offsets;
// every flip must surface as a typed error (almost always
// ErrChecksum; a flip can also land in the CRC trailer itself, which
// still reads as a checksum mismatch), and never as a silently
// restored engine.
func TestSnapshotFlippedBit(t *testing.T) {
	data := snapshotBytes(t, 3, 80)
	for off := snapshotHeaderSize; off < len(data); off += 37 {
		corrupted := append([]byte(nil), data...)
		corrupted[off] ^= 0x10
		st, err := ReadSnapshot(bytes.NewReader(corrupted))
		if err == nil {
			t.Fatalf("flip at offset %d: snapshot restored without error", off)
		}
		if !errors.Is(err, ErrChecksum) {
			t.Errorf("flip at offset %d: err = %v, want ErrChecksum", off, err)
		}
		if st != nil {
			t.Fatalf("flip at offset %d: partial state returned alongside error", off)
		}
	}
}

func TestSnapshotTruncated(t *testing.T) {
	data := snapshotBytes(t, 4, 40)
	for _, cut := range []int{5, snapshotHeaderSize - 1, snapshotHeaderSize + 10, len(data) - 3} {
		_, err := ReadSnapshot(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d bytes: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// reframe wraps a raw payload in valid snapshot framing (magic,
// version, length, matching CRC), so decoder-level failures can be
// exercised without the checksum masking them.
func reframe(payload []byte) []byte {
	header := make([]byte, snapshotHeaderSize)
	copy(header, snapshotMagic[:])
	binary.LittleEndian.PutUint32(header[8:], snapshotVersion)
	binary.LittleEndian.PutUint64(header[12:], uint64(len(payload)))
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(payload, castagnoli))
	out := append(header, payload...)
	return append(out, trailer[:]...)
}

// TestSnapshotStructurallyCorruptPayload re-checksums truncated and
// padded payloads: the CRC passes, so the decoder itself must reject
// the structure — at every cut point — with ErrCorrupt, never a
// partial state.
func TestSnapshotStructurallyCorruptPayload(t *testing.T) {
	full := snapshotBytes(t, 8, 80)
	payload := full[snapshotHeaderSize : len(full)-4]

	for cut := 0; cut < len(payload); cut += 53 {
		st, err := ReadSnapshotBytes(reframe(payload[:cut]))
		if err == nil {
			// A prefix can be structurally complete only if the state
			// then fails semantic validation.
			if _, verr := engine.NewFromState(st, engine.Options{}); verr == nil {
				t.Fatalf("cut at %d payload bytes: restored an engine from a truncated payload", cut)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut at %d payload bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}

	// Trailing garbage after a complete payload is also corruption.
	padded := append(append([]byte(nil), payload...), 0xAB, 0xCD)
	if _, err := ReadSnapshotBytes(reframe(padded)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("padded payload: err = %v, want ErrCorrupt", err)
	}

	// An absurd collection length must be rejected by the bounds
	// check, not attempted as an allocation.
	huge := binary.AppendUvarint([]byte{}, 1<<60)
	if _, err := ReadSnapshotBytes(reframe(huge)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge dimension: err = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotRejectsTamperedPayload rewrites the CRC to match a
// semantically invalid payload: the checksum passes but restore must
// still fail atomically in validation, not half-populate an engine.
func TestSnapshotRejectsTamperedPayload(t *testing.T) {
	eng := mutatedEngine(t, 5, 40)
	st := eng.ExportState()
	st.Rows += 3 // no longer the multiplicity sum
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("structurally valid snapshot rejected: %v", err)
	}
	if _, err := engine.NewFromState(got, engine.Options{}); err == nil {
		t.Fatal("engine restored from a state whose row count contradicts its multiplicities")
	}
}

// TestSnapshotReshardRoundTrip pins the fallback paths of the current
// format: a single-shard snapshot restored into a sharded engine and a
// sharded snapshot restored into a single-shard engine both answer
// every query identically, and a same-topology re-snapshot of the
// restored engine is a byte-level fixed point.
func TestSnapshotReshardRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name           string
		srcShards      int
		restoreShards  int
		wantShardLists int
	}{
		{"single-to-sharded", 1, 4, 1},
		{"sharded-to-single", 4, 1, 4},
		{"sharded-to-sharded", 3, 5, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := engine.NewSharded(testSchema(), tc.srcShards, engine.Options{})
			driveEngine(t, src, 13, 90)
			var buf bytes.Buffer
			if _, err := WriteSnapshot(&buf, src.ExportState()); err != nil {
				t.Fatal(err)
			}
			st, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Counts) != tc.wantShardLists {
				t.Fatalf("decoded %d count lists, want %d", len(st.Counts), tc.wantShardLists)
			}
			restored, err := engine.NewFromState(st, engine.Options{Shards: tc.restoreShards})
			if err != nil {
				t.Fatal(err)
			}
			if got := restored.Shards(); got != tc.restoreShards {
				t.Fatalf("restored Shards() = %d, want %d", got, tc.restoreShards)
			}
			assertEquivalent(t, src, restored)

			// Same-topology round trip from the restored engine is a
			// byte-level fixed point.
			var buf2, buf3 bytes.Buffer
			if _, err := WriteSnapshot(&buf2, restored.ExportState()); err != nil {
				t.Fatal(err)
			}
			st2, err := ReadSnapshot(bytes.NewReader(buf2.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			again, err := engine.NewFromState(st2, engine.Options{Shards: tc.restoreShards})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := WriteSnapshot(&buf3, again.ExportState()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
				t.Error("same-topology snapshot→restore→snapshot is not a fixed point")
			}
		})
	}
}

// FuzzSnapshotRoundTrip drives a randomized mutation history, then
// checks that snapshot→restore is lossless (query equivalence) and
// snapshot→restore→snapshot is a byte-for-byte fixed point.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(42), uint8(60))
	f.Add(int64(-9), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, ops uint8) {
		eng := mutatedEngine(t, seed, int(ops)%150)
		var buf bytes.Buffer
		if _, err := WriteSnapshot(&buf, eng.ExportState()); err != nil {
			t.Fatal(err)
		}
		st, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		restored, err := engine.NewFromState(st, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf2 bytes.Buffer
		if _, err := WriteSnapshot(&buf2, restored.ExportState()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("snapshot→restore→snapshot changed the encoded bytes")
		}
		assertEquivalent(t, eng, restored)
	})
}

// FuzzReadSnapshot hammers the decoder with arbitrary bytes: it must
// return typed errors, never panic or hand back a state that the
// engine then restores from garbage.
func FuzzReadSnapshot(f *testing.F) {
	f.Add(snapshotBytes(f, 6, 30))
	f.Add(withVersion(snapshotBytes(f, 6, 30), 1))
	f.Add(withVersion(snapshotBytes(f, 6, 30), 2))
	f.Add([]byte("COVSNAP\x00 garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A state that parses cleanly must either restore or be
		// rejected by validation — no panics either way.
		if _, err := engine.NewFromState(st, engine.Options{}); err != nil {
			t.Logf("decoded but rejected by validation: %v", err)
		}
	})
}
