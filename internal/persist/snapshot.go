package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"coverage/internal/engine"
)

// Snapshot file framing:
//
//	magic    [8]byte  "COVSNAP\x00"
//	version  uint32le
//	length   uint64le  payload byte count
//	payload  [length]byte  (see codec.go)
//	crc      uint32le  CRC32-C of payload
var snapshotMagic = [8]byte{'C', 'O', 'V', 'S', 'N', 'A', 'P', 0}

// snapshotVersion is the one full-snapshot format version: the count
// map as one section per shard core, net magnitudes on the
// mutation-log records, the per-MUP coverage-value caches and the
// remediation plan-cache sections with their counters. Any other
// version — including the v1 and v2 layouts of the earliest writers —
// is rejected with ErrVersion rather than guessed at.
const (
	snapshotVersion uint32 = 3
	// snapshotVersionDelta marks a delta file: the same framing, but
	// the payload is a StateDelta (codec.go) expressed against an
	// earlier snapshot, not a full state. Full-snapshot readers keep
	// rejecting it with ErrVersion — a delta is meaningless without its
	// chain, so it must never restore alone.
	snapshotVersionDelta uint32 = 4
)

const snapshotHeaderSize = 8 + 4 + 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot encodes the engine state to w in the snapshot format.
// It returns the number of bytes written.
func WriteSnapshot(w io.Writer, st *engine.State) (int64, error) {
	payload := encodeState(st)
	header := make([]byte, snapshotHeaderSize)
	copy(header, snapshotMagic[:])
	binary.LittleEndian.PutUint32(header[8:], snapshotVersion)
	binary.LittleEndian.PutUint64(header[12:], uint64(len(payload)))
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(payload, castagnoli))

	var n int64
	for _, chunk := range [][]byte{header, payload, trailer[:]} {
		m, err := w.Write(chunk)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadSnapshot parses a snapshot stream and returns the decoded engine
// state. It fails with ErrBadMagic, ErrVersion, ErrTruncated,
// ErrChecksum or ErrCorrupt — never with a partially filled state.
func ReadSnapshot(r io.Reader) (*engine.State, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	return ReadSnapshotBytes(data)
}

// ReadSnapshotBytes is ReadSnapshot over an in-memory file image —
// the zero-copy path the store's recovery uses.
func ReadSnapshotBytes(data []byte) (*engine.State, error) {
	if len(data) < snapshotHeaderSize {
		if len(data) >= 8 && [8]byte(data[:8]) != snapshotMagic {
			return nil, ErrBadMagic
		}
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncated, len(data), snapshotHeaderSize)
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return nil, ErrBadMagic
	}
	if version := binary.LittleEndian.Uint32(data[8:]); version != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads version %d", ErrVersion, version, snapshotVersion)
	}
	plen := binary.LittleEndian.Uint64(data[12:])
	if plen != uint64(len(data)-snapshotHeaderSize-4) {
		return nil, fmt.Errorf("%w: header declares %d payload bytes, file holds %d", ErrTruncated, plen, len(data)-snapshotHeaderSize-4)
	}
	payload := data[snapshotHeaderSize : snapshotHeaderSize+int(plen)]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: snapshot payload CRC %08x, trailer says %08x", ErrChecksum, got, want)
	}
	return decodeState(payload)
}

// writeSnapshotFile durably writes the state to dir/snap-<gen>.snap:
// temporary file, fsync, atomic rename, directory fsync. A crash at
// any point leaves either no new file or a complete one.
func writeSnapshotFile(dir string, st *engine.State) (path string, bytes int64, err error) {
	path = filepath.Join(dir, snapshotName(st.Generation))
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if bytes, err = WriteSnapshot(tmp, st); err != nil {
		return "", 0, err
	}
	if err = tmp.Sync(); err != nil {
		return "", 0, err
	}
	if err = tmp.Close(); err != nil {
		return "", 0, err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", 0, err
	}
	if err = syncDir(dir); err != nil {
		return "", 0, err
	}
	return path, bytes, nil
}

// readSnapshotFile loads and decodes one snapshot file. os.ReadFile
// pre-sizes the buffer from the file's length, avoiding the stream
// reader's growth copies.
func readSnapshotFile(path string) (*engine.State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadSnapshotBytes(data)
}

// WriteDelta encodes a state delta to w using the snapshot framing
// with the delta version. dim is the schema dimension the delta's raw
// keys are cut at. It returns the number of bytes written.
func WriteDelta(w io.Writer, dl *engine.StateDelta, dim int) (int64, error) {
	payload := encodeDelta(dl, dim)
	header := make([]byte, snapshotHeaderSize)
	copy(header, snapshotMagic[:])
	binary.LittleEndian.PutUint32(header[8:], snapshotVersionDelta)
	binary.LittleEndian.PutUint64(header[12:], uint64(len(payload)))
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(payload, castagnoli))

	var n int64
	for _, chunk := range [][]byte{header, payload, trailer[:]} {
		m, err := w.Write(chunk)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadDeltaBytes parses a delta file image, returning the decoded
// delta and the schema dimension it was encoded for.
func ReadDeltaBytes(data []byte) (*engine.StateDelta, int, error) {
	if len(data) < snapshotHeaderSize {
		if len(data) >= 8 && [8]byte(data[:8]) != snapshotMagic {
			return nil, 0, ErrBadMagic
		}
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncated, len(data), snapshotHeaderSize)
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return nil, 0, ErrBadMagic
	}
	if version := binary.LittleEndian.Uint32(data[8:]); version != snapshotVersionDelta {
		return nil, 0, fmt.Errorf("%w: delta file declares snapshot version %d, want %d", ErrVersion, version, snapshotVersionDelta)
	}
	plen := binary.LittleEndian.Uint64(data[12:])
	if plen != uint64(len(data)-snapshotHeaderSize-4) {
		return nil, 0, fmt.Errorf("%w: header declares %d payload bytes, file holds %d", ErrTruncated, plen, len(data)-snapshotHeaderSize-4)
	}
	payload := data[snapshotHeaderSize : snapshotHeaderSize+int(plen)]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: delta payload CRC %08x, trailer says %08x", ErrChecksum, got, want)
	}
	return decodeDelta(payload)
}

// writeDeltaFile durably writes the delta to dir/snap-<gen>.delta with
// the same temp-fsync-rename discipline as writeSnapshotFile. The
// "snap-" prefix keeps delta temporaries under the existing
// snap-*.tmp cleanup in Open.
func writeDeltaFile(dir string, dl *engine.StateDelta, dim int) (path string, bytes int64, err error) {
	path = filepath.Join(dir, deltaName(dl.Generation))
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", 0, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if bytes, err = WriteDelta(tmp, dl, dim); err != nil {
		return "", 0, err
	}
	if err = tmp.Sync(); err != nil {
		return "", 0, err
	}
	if err = tmp.Close(); err != nil {
		return "", 0, err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", 0, err
	}
	if err = syncDir(dir); err != nil {
		return "", 0, err
	}
	return path, bytes, nil
}

// readDeltaFile loads and decodes one delta file.
func readDeltaFile(path string) (*engine.StateDelta, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return ReadDeltaBytes(data)
}

// syncDir fsyncs a directory so a just-renamed or just-created entry
// survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func snapshotName(gen uint64) string { return fmt.Sprintf("snap-%016x.snap", gen) }
func deltaName(gen uint64) string    { return fmt.Sprintf("snap-%016x.delta", gen) }
func walName(gen uint64) string      { return fmt.Sprintf("wal-%016x.wal", gen) }
