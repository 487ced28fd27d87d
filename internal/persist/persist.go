// Package persist makes the coverage engine's state durable: a
// versioned, checksummed binary snapshot of the full engine state
// (schema, per-shard combo→count tables, sliding-window ring,
// tombstones, generation counters and the per-(τ, level) MUP caches)
// plus an append-only write-ahead log of signed mutation batches, so a
// restarted process replays only the WAL tail written since the last
// snapshot instead of recomputing everything from raw rows.
//
// # On-disk layout
//
// A Store owns one directory:
//
//	data-dir/
//	  snap-<gen>.snap   full engine state at generation <gen>
//	  wal-<gen>.wal     mutations applied after snap-<gen> was captured
//
// File names embed the engine generation as 16 hex digits, so
// lexicographic order is generation order. The store keeps the two
// newest snapshots (the older one is the fallback if the newest is
// damaged at rest) and every WAL segment at or after the older kept
// snapshot; everything older is deleted after each successful
// snapshot.
//
// # Write discipline
//
// Snapshots are written to a temporary file, fsynced, renamed into
// place and the directory fsynced — a crash mid-snapshot leaves the
// previous snapshot as the recovery root. Every WAL record carries its
// own length and CRC32-C; each mutation request is one record, and the
// records of one commit group are written with a single write call and
// optionally one fsync (Options.SyncWAL); a torn tail — a partial or
// bit-flipped final record — is detected on replay and truncated away
// cleanly. WAL rotation happens at snapshot time: the store captures
// the engine state, opens the next segment, and only then encodes and
// writes the snapshot, so mutations accepted during the (slow)
// snapshot write land in the new segment and survive a crash at any
// point in between.
//
// # Recovery
//
// Recover loads the newest readable snapshot (falling back past
// snapshots that fail their checksum or carry an unknown version) and
// replays every WAL segment at or after it, in order. Records are
// stamped with the engine generation they produced and are applied
// only when they advance the restored generation by exactly one, making
// replay idempotent. Consecutive append and delete records replay as
// one engine batch per run, counted straight from the log's bytes; a
// window record ends a run, and while the engine has a window each
// record is a run of one. The restored engine
// answers every coverage and MUP query identically to one that lived
// through the same mutation history — including incremental cache
// repair, because the mutation logs and cached MUP sets travel in the
// snapshot.
//
// # Replication
//
// WALSince serves the framed records past a generation, byte for byte
// as logged. A follower hands them to its own store's ApplyWAL, which
// replays them exactly as recovery replays a segment and logs the
// applied records' bytes verbatim as one group commit, so the
// follower's log matches the leader's and a whole feed response costs
// one fsync.
package persist

import "errors"

// Typed failures surfaced by snapshot and WAL readers. They are
// sentinel values so callers can distinguish "this file is damaged"
// (fall back, refuse, alert) from ordinary I/O errors.
var (
	// ErrBadMagic means the file does not start with the snapshot or
	// WAL magic — it is not ours, or its header was destroyed.
	ErrBadMagic = errors.New("persist: bad magic (not a coverage snapshot/WAL file)")
	// ErrVersion means the file declares a format version this build
	// does not understand.
	ErrVersion = errors.New("persist: unsupported format version")
	// ErrChecksum means the payload does not match its CRC — the file
	// was bit-flipped at rest or torn mid-write. Nothing is restored.
	ErrChecksum = errors.New("persist: checksum mismatch")
	// ErrTruncated means the file ends before its declared payload
	// does.
	ErrTruncated = errors.New("persist: truncated file")
	// ErrCorrupt means the payload passed its checksum but decoded to
	// an impossible state (an encoder/decoder version skew).
	ErrCorrupt = errors.New("persist: corrupt payload")
	// ErrNoState is returned by Recover when the directory holds no
	// snapshot to recover from.
	ErrNoState = errors.New("persist: no persisted state")
	// ErrGone is returned by WALSince when the requested generation
	// predates every retained WAL segment — the tail was pruned by
	// cleanup, so a follower at that generation must resync from a
	// snapshot chain instead of the feed.
	ErrGone = errors.New("persist: requested WAL generation no longer retained")
	// ErrUnavailable wraps mutation failures that are the store's
	// fault, not the request's: a WAL write failed (disk full, I/O
	// error), so the mutation may be applied in memory but is not
	// durably logged, and the store refuses further mutations until a
	// snapshot succeeds. Serving layers should surface it as a 5xx,
	// never as a client error.
	ErrUnavailable = errors.New("persist: store unavailable")
)
