package persist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coverage/internal/engine"
)

// Options configures a Store.
type Options struct {
	// SyncWAL fsyncs the WAL after every record, making acknowledged
	// mutations survive power loss, not just process death. Off, the
	// data still reaches the kernel per record (a killed process loses
	// nothing) but an OS crash can drop the un-synced tail.
	SyncWAL bool
	// DisableDeltaSnapshots forces every snapshot to be a full image.
	// By default Snapshot writes a generation-stamped delta against the
	// previous snapshot whenever the engine can express one, making the
	// steady-state checkpoint cost O(changes) instead of O(state).
	DisableDeltaSnapshots bool
	// MaxDeltaChain bounds how many deltas may stack on one full base
	// before Snapshot compacts the chain back to a fresh full image
	// (recovery applies the whole chain, so its length is a recovery
	// latency knob). 0 means the default of 8.
	MaxDeltaChain int
	// Engine configures engines built by Recover.
	Engine engine.Options
}

// maxDeltaChain resolves the chain bound.
func (o Options) maxDeltaChain() int {
	if o.MaxDeltaChain > 0 {
		return o.MaxDeltaChain
	}
	return 8
}

// Stats is a snapshot of the store's persistence counters.
type Stats struct {
	// Dir is the data directory.
	Dir string
	// Snapshots counts snapshots written since the store was opened
	// (full images and deltas alike); DeltaSnapshots counts the deltas
	// among them. DeltaChainLength is the number of deltas currently
	// stacked on the newest full base.
	// LastSnapshotGeneration / LastSnapshotBytes describe the newest.
	Snapshots              int64
	DeltaSnapshots         int64
	DeltaChainLength       int
	LastSnapshotGeneration uint64
	LastSnapshotBytes      int64
	LastSnapshotDurationNs int64
	// WALRecords / WALBytes count records appended to the current
	// segment since the last rotation.
	WALRecords int64
	WALBytes   int64
	// WALGroupCommits counts coalesced write+sync calls made by the
	// commit pipeline since the store was opened; WALGroupRecords
	// counts the records they carried, so records-per-fsync is their
	// ratio. CoalescedAppends counts append requests that were merged
	// into a groupmate's engine batch (and WAL record) instead of
	// paying their own.
	WALGroupCommits  int64
	WALGroupRecords  int64
	CoalescedAppends int64
	// DurableGeneration is the newest generation whose WAL record has
	// been written (and, with SyncWAL, fsynced); FeedWaiters is the
	// number of long-poll feed callers currently parked on the commit
	// notification hub.
	DurableGeneration uint64
	FeedWaiters       int64
	// RecoveredSnapshotGeneration and ReplayedRecords describe the
	// boot: the newest persisted generation restored (the full base
	// plus any delta chain; 0 for a fresh start) and how many WAL
	// records were replayed on top of it.
	RecoveredSnapshotGeneration uint64
	ReplayedRecords             int64
	// TornTailDropped reports whether recovery truncated a torn WAL
	// tail.
	TornTailDropped bool
}

// RecoverInfo describes one recovery.
type RecoverInfo struct {
	// SnapshotPath and SnapshotGeneration identify the restored
	// snapshot.
	SnapshotPath       string
	SnapshotGeneration uint64
	// SkippedSnapshots lists snapshot files that failed to load
	// (checksum, version, corruption) and were passed over for an
	// older one.
	SkippedSnapshots []string
	// DeltasApplied is the number of delta files layered onto the base
	// snapshot before WAL replay.
	DeltasApplied int
	// Segments is the number of WAL segments replayed; Replayed and
	// Skipped count their records (skipped records were already
	// reflected in the snapshot).
	Segments int
	Replayed int
	Skipped  int
	// TornTailDropped reports whether the final segment had a torn
	// tail that was truncated away.
	TornTailDropped bool
	// Duration is the wall-clock recovery time.
	Duration time.Duration
}

// SnapshotResult describes one snapshot attempt.
type SnapshotResult struct {
	// Skipped is true when the engine generation has not advanced
	// since the last snapshot, so no file was written. Delta is true
	// when the file written was a delta against the previous snapshot
	// rather than a full image.
	Skipped    bool
	Delta      bool
	Path       string
	Generation uint64
	Bytes      int64
	Duration   time.Duration
}

// Store owns a data directory holding snapshots and WAL segments for
// one engine. All methods are safe for concurrent use; mutations are
// serialized so the WAL order equals the engine's mutation order.
type Store struct {
	dir  string
	opts Options

	// snapMu serializes snapshot attempts; mu guards the engine/WAL
	// pairing and is held only for the capture-and-rotate step, never
	// across snapshot encoding or disk writes.
	snapMu sync.Mutex
	mu     sync.Mutex
	eng    *engine.Engine
	wal    *walWriter

	// committer is the group-commit loop (nil before Attach/Recover and
	// after Close — mutations then commit inline as groups of one).
	// Atomic so submit can enqueue while a group commit holds s.mu
	// through its fsync: waiting writers piling into the queue during
	// the sync IS the batching.
	committer atomic.Pointer[walCommitter]

	// The commit-notification hub. commitGen is the newest durably
	// logged generation; commitCh is closed and replaced on every
	// commit so parked feed waiters wake without the hub tracking
	// them individually. feedWaiters is a gauge of parked waiters.
	hubMu       sync.Mutex
	commitGen   uint64
	commitCh    chan struct{}
	feedWaiters int64

	groupCommits     int64
	groupRecords     int64
	coalescedAppends int64

	snapshots        int64
	deltaSnapshots   int64
	lastSnapGen      uint64
	lastSnapBytes    int64
	lastSnapDuration time.Duration
	recoveredGen     uint64
	replayed         int64
	tornDropped      bool

	// baseline anchors the next delta snapshot: the exact coordinates
	// of the last written snapshot (full or delta). chainLen counts the
	// deltas stacked on the newest full base; at maxDeltaChain the next
	// snapshot compacts back to a full image. Guarded by mu; snapMu
	// serializes the read-modify-write across a snapshot.
	baseline *engine.DeltaBaseline
	chainLen int

	// broken is the sticky failure set when a WAL append fails after
	// the engine already accepted the mutation: the in-memory state is
	// now ahead of the log, and logging any further mutation would
	// leave a generation gap that poisons every future recovery. All
	// mutations are refused until a successful snapshot captures the
	// full engine state (making the log's gap irrelevant) and clears
	// the condition.
	broken error
}

// Open prepares the data directory (creating it if needed) and
// removes leftover temporary files from interrupted snapshots. It
// does not touch snapshots or WAL segments; call Recover or Attach
// next.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "snap-*.tmp"))
	if err != nil {
		return nil, err
	}
	for _, t := range tmps {
		os.Remove(t)
	}
	return &Store{dir: dir, opts: opts}, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// genFiles lists dir entries matching prefix-<16 hex digits>suffix,
// sorted by embedded generation ascending.
func (s *Store) genFiles(prefix, suffix string) ([]string, []uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	type genFile struct {
		name string
		gen  uint64
	}
	var files []genFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		if len(hex) != 16 {
			continue
		}
		gen, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		files = append(files, genFile{name: name, gen: gen})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].gen < files[j].gen })
	names := make([]string, len(files))
	gens := make([]uint64, len(files))
	for i, f := range files {
		names[i] = filepath.Join(s.dir, f.name)
		gens[i] = f.gen
	}
	return names, gens, nil
}

// Recover restores the engine from the newest readable snapshot and
// replays the WAL tail. It returns ErrNoState when the directory
// holds no snapshot (fresh start: build an engine and call Attach).
// After a successful recovery the store is attached to the returned
// engine and ready for mutations.
func (s *Store) Recover() (*engine.Engine, *RecoverInfo, error) {
	start := time.Now()
	snaps, snapGens, err := s.genFiles("snap-", ".snap")
	if err != nil {
		return nil, nil, err
	}
	wals, walGens, err := s.genFiles("wal-", ".wal")
	if err != nil {
		return nil, nil, err
	}
	if len(snaps) == 0 {
		if len(wals) > 0 {
			return nil, nil, fmt.Errorf("%w: %d WAL segment(s) but no snapshot to replay them onto", ErrCorrupt, len(wals))
		}
		return nil, nil, ErrNoState
	}

	info := &RecoverInfo{}
	var st *engine.State
	var snapGen uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err = readSnapshotFile(snaps[i])
		if err == nil {
			info.SnapshotPath = snaps[i]
			snapGen = snapGens[i]
			break
		}
		info.SkippedSnapshots = append(info.SkippedSnapshots, fmt.Sprintf("%s: %v", filepath.Base(snaps[i]), err))
		// Quarantine the damaged file: renamed out of the snap-*
		// namespace it can neither be retried on the next boot nor
		// counted by the retention policy as one of the two kept
		// snapshots (which would evict the readable fallback). A
		// snapshot from a newer format version is healthy, not
		// damaged — it is left for the binary that can read it.
		if !errors.Is(err, ErrVersion) {
			os.Rename(snaps[i], snaps[i]+".corrupt")
		}
	}
	if st == nil {
		return nil, nil, fmt.Errorf("persist: no readable snapshot in %s (%s)", s.dir, strings.Join(info.SkippedSnapshots, "; "))
	}
	if st.Generation != snapGen {
		return nil, nil, fmt.Errorf("%w: snapshot %s holds generation %d", ErrCorrupt, info.SnapshotPath, st.Generation)
	}
	info.SnapshotGeneration = snapGen

	// Layer the delta chain: every delta past the base generation, in
	// ascending order, as long as each link's from-generation matches
	// the state built so far. An unreadable delta is quarantined like a
	// damaged snapshot; a delta that merely fails to chain (its parent
	// was the quarantined one, or it predates the base) is skipped
	// intact — Apply rejects before mutating, so the state stays
	// whole and the WAL replay below covers the unapplied tail.
	deltas, deltaGens, err := s.genFiles("snap-", ".delta")
	if err != nil {
		return nil, nil, err
	}
	for i, path := range deltas {
		if deltaGens[i] <= snapGen {
			continue
		}
		dl, dim, derr := readDeltaFile(path)
		if derr != nil {
			info.SkippedSnapshots = append(info.SkippedSnapshots, fmt.Sprintf("%s: %v", filepath.Base(path), derr))
			os.Rename(path, path+".corrupt")
			continue
		}
		if dim != len(st.Attrs) {
			info.SkippedSnapshots = append(info.SkippedSnapshots, fmt.Sprintf("%s: delta dimension %d, snapshot has %d", filepath.Base(path), dim, len(st.Attrs)))
			os.Rename(path, path+".corrupt")
			continue
		}
		if dl.FromGeneration != st.Generation {
			continue
		}
		if dl.Generation != deltaGens[i] {
			info.SkippedSnapshots = append(info.SkippedSnapshots, fmt.Sprintf("%s: holds generation %d", filepath.Base(path), dl.Generation))
			os.Rename(path, path+".corrupt")
			continue
		}
		if derr := dl.Apply(st); derr != nil {
			info.SkippedSnapshots = append(info.SkippedSnapshots, fmt.Sprintf("%s: %v", filepath.Base(path), derr))
			os.Rename(path, path+".corrupt")
			continue
		}
		info.DeltasApplied++
	}

	// The newest persisted generation: base plus applied deltas. The
	// WAL below may carry the engine past it; the delta baseline is
	// only valid when it does not.
	lastPersistGen := st.Generation

	eng, err := engine.NewFromState(st, s.opts.Engine)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: restoring %s: %w", info.SnapshotPath, err)
	}
	dim := len(st.Attrs)

	// Replay every segment at or after the restored snapshot, oldest
	// first. Only the newest segment may legitimately carry a torn
	// tail; a torn or missing-header segment earlier in the chain
	// means later mutations would replay onto a hole, so recovery
	// refuses.
	var lastPath string
	var lastGen uint64
	var lastGoodSize int64
	lastTorn := false
	for i, path := range wals {
		if walGens[i] < snapGen {
			continue
		}
		recs, goodSize, torn, err := readWALSegment(path, dim)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: reading %s: %w", path, err)
		}
		if torn && i != len(wals)-1 {
			return nil, nil, fmt.Errorf("%w: segment %s has a torn tail but is not the newest segment", ErrCorrupt, path)
		}
		applied, skipped, err := replaySegment(eng, recs)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: replaying %s: %w", path, err)
		}
		info.Segments++
		info.Replayed += applied
		info.Skipped += skipped
		lastPath, lastGen, lastGoodSize, lastTorn = path, walGens[i], goodSize, torn
	}

	// Continue appending to the newest segment, truncating a torn
	// tail first so fresh records never follow garbage.
	var wal *walWriter
	if lastPath != "" {
		if lastTorn {
			if err := os.Truncate(lastPath, lastGoodSize); err != nil {
				return nil, nil, fmt.Errorf("persist: truncating torn WAL tail of %s: %w", lastPath, err)
			}
			info.TornTailDropped = true
			// A sub-header stump (crash during segment creation) is
			// rewritten from scratch.
			if lastGoodSize < walHeaderSize {
				if err := os.Remove(lastPath); err != nil {
					return nil, nil, err
				}
				lastPath = ""
			}
		}
	}
	if lastPath != "" {
		wal, err = openWALSegment(lastPath, lastGen, dim, max(lastGoodSize, walHeaderSize), s.opts.SyncWAL)
	} else {
		// No usable segment for the restored snapshot: open the next
		// one at the current (replayed) generation. O_EXCL collision
		// is impossible — a segment at that generation would have
		// been in the replay list.
		wal, err = createWALSegment(s.dir, eng.Generation(), dim, s.opts.SyncWAL)
	}
	if err != nil {
		return nil, nil, err
	}

	info.Duration = time.Since(start)
	s.mu.Lock()
	s.eng = eng
	s.wal = wal
	s.lastSnapGen = lastPersistGen
	// The recovered generation reported on Stats is the newest
	// persisted state restored — the full base plus its delta chain —
	// not the base alone, so "did the restart pick up the latest
	// checkpoint" stays answerable when that checkpoint was a delta.
	s.recoveredGen = lastPersistGen
	s.replayed = int64(info.Replayed)
	s.tornDropped = info.TornTailDropped
	// Re-anchor the delta chain only when the engine stands exactly at
	// the newest persisted snapshot (the clean park→restore shape): a
	// replayed WAL tail means the disk chain is behind the engine, and
	// a delta against an unpersisted baseline could never be applied —
	// the next snapshot compacts to a full image instead.
	if eng.Generation() == lastPersistGen {
		s.baseline = eng.CaptureState().Baseline()
		s.chainLen = info.DeltasApplied
	} else {
		s.baseline = nil
		s.chainLen = 0
	}
	s.startPipelineLocked(eng.Generation())
	s.mu.Unlock()
	return eng, info, nil
}

// startPipelineLocked seeds the commit-notification hub at the given
// generation (everything at or below it is already durable) and spawns
// the group committer. Caller holds s.mu.
func (s *Store) startPipelineLocked(gen uint64) {
	s.hubMu.Lock()
	s.commitGen = gen
	s.commitCh = make(chan struct{})
	s.hubMu.Unlock()
	s.committer.Store(newWALCommitter(s))
}

// Attach starts persistence for a freshly built engine: it writes the
// initial snapshot and opens the first WAL segment. The directory
// must not already hold persisted state — recovering and attaching
// over it would silently fork histories, so that is an error.
func (s *Store) Attach(eng *engine.Engine) error {
	snaps, _, err := s.genFiles("snap-", ".snap")
	if err != nil {
		return err
	}
	wals, _, err := s.genFiles("wal-", ".wal")
	if err != nil {
		return err
	}
	if len(snaps) > 0 || len(wals) > 0 {
		return fmt.Errorf("persist: data dir %s already holds state; use Recover", s.dir)
	}
	start := time.Now()
	capture := eng.CaptureState()
	st := capture.State()
	_, bytes, err := writeSnapshotFile(s.dir, st)
	if err != nil {
		return err
	}
	wal, err := createWALSegment(s.dir, st.Generation, len(st.Attrs), s.opts.SyncWAL)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.eng = eng
	s.wal = wal
	s.snapshots = 1
	s.lastSnapGen = st.Generation
	s.lastSnapBytes = bytes
	s.lastSnapDuration = time.Since(start)
	s.baseline = capture.Baseline()
	s.chainLen = 0
	s.startPipelineLocked(st.Generation)
	s.mu.Unlock()
	return nil
}

// Engine returns the attached engine (nil before Recover/Attach).
func (s *Store) Engine() *engine.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}

// Append applies an append batch to the engine and durably logs it.
// The WAL record is written only after the engine accepts the batch,
// so a rejected batch leaves no trace; mutations are serialized so the
// log order is the apply order. The call returns once the record's
// group has committed — acknowledgement means durable.
func (s *Store) Append(rows [][]uint8) error {
	return <-s.AppendAsync(rows)
}

// AppendAsync queues an append batch on the commit pipeline and
// returns the channel that will deliver its outcome: nil once the
// batch is applied and its WAL record is durably written, or the
// per-request error (engine rejection, WAL failure). Batches from
// concurrent callers landing in the same group are merged into one
// engine batch and one WAL record — one write-lock acquisition, one
// fsync — while each caller still hears about its own rows.
func (s *Store) AppendAsync(rows [][]uint8) <-chan error {
	return s.submit(&commitReq{op: opAppend, rows: rows, errc: make(chan error, 1)})
}

// Delete applies a delete batch to the engine and durably logs it.
func (s *Store) Delete(rows [][]uint8) error {
	return <-s.submit(&commitReq{op: opDelete, rows: rows, errc: make(chan error, 1)})
}

// SetWindow reconfigures the sliding window and durably logs it.
func (s *Store) SetWindow(maxRows int) error {
	return <-s.submit(&commitReq{op: opWindow, maxRows: maxRows, errc: make(chan error, 1)})
}

// submit routes one mutation into the commit pipeline. Without a
// committer (not yet attached, store closed, or the committer shut down
// mid-flight) the request commits inline as a group of one.
func (s *Store) submit(req *commitReq) <-chan error {
	c := s.committer.Load()
	if c == nil || !c.enqueue(req) {
		s.commitGroup([]*commitReq{req})
	}
	return req.errc
}

// Per-request commit status inside a group.
const (
	reqPending  byte = iota // not reached (a groupmate broke the store first)
	reqRejected             // engine refused it; no record, store intact
	reqFramed               // applied and encoded into the group write
	reqStranded             // applied but its record could not be framed
)

// commitGroup commits one group: every request's engine apply, one
// coalesced WAL write, one fsync. Runs of consecutive append requests
// are merged into a single engine batch and a single record (one
// generation covers them all); deletes and window changes commit
// individually, in arrival order, so the log order equals the apply
// order. A WAL write failure after any engine apply trips the sticky
// broken state, exactly like the single-record path did: the log must
// not advance past the gap, so the store fails stop until a snapshot
// re-establishes a durable root.
func (s *Store) commitGroup(batch []*commitReq) {
	s.mu.Lock()
	if s.eng == nil || s.wal == nil {
		s.mu.Unlock()
		for _, req := range batch {
			req.errc <- fmt.Errorf("%w: store is not attached to an engine", ErrUnavailable)
		}
		return
	}
	if s.broken != nil {
		err := s.failedErr()
		s.mu.Unlock()
		for _, req := range batch {
			req.errc <- err
		}
		return
	}

	status := make([]byte, len(batch))
	rejections := make([]error, len(batch))
	buf := s.wal.scratch[:0]
	nrecs := 0
	var maxLogged uint64
	var frameErr error // first encode failure; poisons the rest of the group

	frame := func(op byte, rows [][]uint8, maxRows int) bool {
		prev := len(buf)
		next, err := s.wal.encodeRecord(buf, op, s.eng.Generation(), rows, maxRows)
		if err != nil {
			buf = next[:prev]
			frameErr = err
			s.broken = err
			return false
		}
		buf = next
		nrecs++
		maxLogged = s.eng.Generation()
		return true
	}

	for i := 0; i < len(batch) && frameErr == nil; {
		req := batch[i]
		j := i + 1
		if req.op == opAppend {
			for j < len(batch) && batch[j].op == opAppend {
				j++
			}
		}
		switch {
		case req.op == opAppend && j-i > 1:
			total := 0
			for k := i; k < j; k++ {
				total += len(batch[k].rows)
			}
			merged := make([][]uint8, 0, total)
			for k := i; k < j; k++ {
				merged = append(merged, batch[k].rows...)
			}
			if err := s.eng.Append(merged); err != nil {
				// The merged batch was refused — one requester's bad
				// rows must not fail its groupmates, so fall back to
				// per-request applies.
				for k := i; k < j && frameErr == nil; k++ {
					if aerr := s.eng.Append(batch[k].rows); aerr != nil {
						status[k] = reqRejected
						rejections[k] = aerr
						continue
					}
					if frame(opAppend, batch[k].rows, 0) {
						status[k] = reqFramed
					} else {
						status[k] = reqStranded
					}
				}
			} else {
				s.coalescedAppends += int64(j - i - 1)
				ok := frame(opAppend, merged, 0)
				for k := i; k < j; k++ {
					if ok {
						status[k] = reqFramed
					} else {
						status[k] = reqStranded
					}
				}
			}
		default:
			var err error
			switch req.op {
			case opAppend:
				err = s.eng.Append(req.rows)
			case opDelete:
				err = s.eng.Delete(req.rows)
			case opWindow:
				s.eng.SetWindow(req.maxRows)
			}
			if err != nil {
				status[i] = reqRejected
				rejections[i] = err
			} else if frame(req.op, req.rows, req.maxRows) {
				status[i] = reqFramed
			} else {
				status[i] = reqStranded
			}
		}
		i = j
	}

	var werr error
	if nrecs > 0 {
		werr = s.wal.writeGroup(buf, nrecs)
		if werr != nil {
			s.broken = werr
		}
		s.groupCommits++
		s.groupRecords += int64(nrecs)
	}
	s.wal.scratch = buf[:0]
	unavailable := s.broken != nil
	var brokenErr error
	if unavailable {
		brokenErr = s.failedErr()
	}
	s.mu.Unlock()

	if nrecs > 0 && werr == nil {
		s.notifyCommit(maxLogged)
	}

	for k, req := range batch {
		switch status[k] {
		case reqRejected:
			req.errc <- rejections[k]
		case reqFramed:
			if werr != nil {
				req.errc <- fmt.Errorf("%w: %w (mutation applied in memory but not logged; store refuses further mutations until a snapshot succeeds)", ErrUnavailable, werr)
			} else {
				req.errc <- nil
			}
		case reqStranded:
			req.errc <- fmt.Errorf("%w: %w (mutation applied in memory but not logged; store refuses further mutations until a snapshot succeeds)", ErrUnavailable, frameErr)
		default: // reqPending: a groupmate broke the store before this one ran
			req.errc <- brokenErr
		}
	}
}

func (s *Store) failedErr() error {
	return fmt.Errorf("%w: disabled after a WAL write failure (%w); take a snapshot to re-enable", ErrUnavailable, s.broken)
}

// Snapshot writes a new snapshot and rotates the WAL. The engine's
// read lock is held only while the mutable state residue is copied
// (queries keep flowing); the store's mutation lock is held only for
// that capture plus the segment rotation, so mutations stall for the
// capture, not for the disk writes. When the generation has not
// advanced since the last snapshot the call is a no-op.
//
// The file written is a delta against the previous snapshot whenever
// the engine can express one (an O(changes) capture and encode) — a
// full image is written on the first snapshot, when the delta chain
// reaches Options.MaxDeltaChain (compaction), when the engine cannot
// derive the changes (mutation-log horizon passed the baseline, window
// log created or dropped), after a WAL failure (the full image is what
// re-establishes a durable root), or when deltas are disabled.
func (s *Store) Snapshot() (*SnapshotResult, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()

	s.mu.Lock()
	if s.eng == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("persist: store not attached to an engine")
	}
	// The capture shares the immutable base by reference, so holding
	// the mutation lock here costs O(residue), not O(distinct).
	capture := s.eng.CaptureState()
	gen := s.eng.Generation()
	if gen == s.lastSnapGen && s.broken == nil {
		s.mu.Unlock()
		return &SnapshotResult{Skipped: true, Generation: gen}, nil
	}
	var delta *engine.StateDelta
	var nextBaseline *engine.DeltaBaseline
	if !s.opts.DisableDeltaSnapshots && s.broken == nil && s.chainLen < s.opts.maxDeltaChain() {
		delta, nextBaseline, _ = s.eng.CaptureDelta(s.baseline)
	}
	dim := len(s.eng.Schema().Cards())
	// Rotate unless the current segment already starts at this
	// generation (recovery can leave it that way); its records, if
	// any, replay idempotently on top of the new snapshot.
	var oldWal *walWriter
	wasBroken := s.broken != nil
	if s.wal.gen != gen {
		newWal, err := createWALSegment(s.dir, gen, dim, s.opts.SyncWAL)
		if err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("persist: rotating WAL: %w", err)
		}
		oldWal = s.wal
		s.wal = newWal
	}
	s.mu.Unlock()

	if oldWal != nil {
		if err := oldWal.close(); err != nil && !wasBroken {
			// On a broken store the old segment's handle is the thing
			// that failed; the snapshot being written supersedes its
			// contents, so its close error cannot block the rescue.
			return nil, fmt.Errorf("persist: closing rotated WAL: %w", err)
		}
	}

	var path string
	var bytes int64
	var err error
	if delta != nil {
		path, bytes, err = writeDeltaFile(s.dir, delta, dim)
		if err != nil {
			// The delta failed but the rotated segment is already
			// taking writes; recovery still works from the previous
			// snapshot across both segments.
			return nil, fmt.Errorf("persist: writing delta snapshot: %w", err)
		}
	} else {
		st := capture.State()
		path, bytes, err = writeSnapshotFile(s.dir, st)
		if err != nil {
			return nil, fmt.Errorf("persist: writing snapshot: %w", err)
		}
		nextBaseline = capture.Baseline()
	}
	dur := time.Since(start)

	s.mu.Lock()
	s.snapshots++
	if delta != nil {
		s.deltaSnapshots++
		s.chainLen++
	} else {
		s.chainLen = 0
		// A durable full-state snapshot supersedes whatever the WAL
		// failed to log; the store can accept mutations again.
		s.broken = nil
	}
	s.baseline = nextBaseline
	s.lastSnapGen = gen
	s.lastSnapBytes = bytes
	s.lastSnapDuration = dur
	s.mu.Unlock()

	s.cleanup(gen)
	return &SnapshotResult{Path: path, Delta: delta != nil, Generation: gen, Bytes: bytes, Duration: dur}, nil
}

// cleanup prunes old files after a successful snapshot at gen: the
// two newest full snapshots are kept (the older as a fallback against
// at-rest damage of the newer), plus every delta and WAL segment at or
// after the oldest kept full image. Deltas between the two kept fulls
// stay because they are the older full's chain — a base is never
// pruned out from under a delta that still names it, and vice versa.
func (s *Store) cleanup(gen uint64) {
	snaps, snapGens, err := s.genFiles("snap-", ".snap")
	if err != nil {
		return
	}
	keepFrom := gen
	var kept int
	for i := len(snaps) - 1; i >= 0; i-- {
		if kept < 2 {
			kept++
			keepFrom = snapGens[i]
			continue
		}
		os.Remove(snaps[i])
	}
	deltas, deltaGens, err := s.genFiles("snap-", ".delta")
	if err != nil {
		return
	}
	for i, d := range deltas {
		if deltaGens[i] < keepFrom {
			os.Remove(d)
		}
	}
	wals, walGens, err := s.genFiles("wal-", ".wal")
	if err != nil {
		return
	}
	for i, w := range wals {
		if walGens[i] < keepFrom {
			os.Remove(w)
		}
	}
}

// WALSince collects the raw framed WAL records with generations past
// fromGen, in order, concatenated — the byte stream `GET /wal` serves
// and DecodeWALStream parses. maxBytes (0 = unbounded) caps the
// response at a record boundary once at least that many bytes have
// accumulated; the follower re-requests from its new position. The
// returned generation is the engine's current one, read after the
// collection so it bounds every record served. ErrGone means fromGen
// predates every retained segment and the follower must resync from
// the snapshot chain.
func (s *Store) WALSince(fromGen uint64, maxBytes int) ([]byte, uint64, error) {
	s.mu.Lock()
	eng := s.eng
	s.mu.Unlock()
	if eng == nil {
		return nil, 0, fmt.Errorf("persist: store not attached to an engine")
	}
	dim := len(eng.Schema().Cards())

	wals, walGens, err := s.genFiles("wal-", ".wal")
	if err != nil {
		return nil, 0, err
	}
	// The record at fromGen+1 lives in the newest segment that starts
	// at or before fromGen; all segments after it carry later records.
	start := -1
	for i := range walGens {
		if walGens[i] <= fromGen {
			start = i
		}
	}
	if start < 0 {
		return nil, 0, fmt.Errorf("%w: generation %d predates the oldest retained segment", ErrGone, fromGen)
	}

	var out []byte
	for i := start; i < len(wals) && (maxBytes <= 0 || len(out) < maxBytes); i++ {
		data, err := os.ReadFile(wals[i])
		if err != nil {
			return nil, 0, err
		}
		if len(data) < walHeaderSize {
			continue // segment being created concurrently
		}
		// The tail record may be mid-append under a concurrent writer;
		// the parse simply stops there and the follower re-requests.
		off := int64(walHeaderSize)
		for {
			rec, next, ok := parseWALRecord(data, off, dim)
			if !ok {
				break
			}
			if rec.gen > fromGen {
				out = append(out, data[off:next]...)
			}
			off = next
			if maxBytes > 0 && len(out) >= maxBytes {
				break
			}
		}
	}
	return out, eng.Generation(), nil
}

// notifyCommit advances the durable-generation watermark and wakes
// every parked feed waiter by closing the current notification
// channel. Waiters behind gen return with data; waiters already at or
// past it re-park on the replacement channel.
func (s *Store) notifyCommit(gen uint64) {
	s.hubMu.Lock()
	if gen > s.commitGen {
		s.commitGen = gen
		if s.commitCh != nil {
			close(s.commitCh)
		}
		s.commitCh = make(chan struct{})
	}
	s.hubMu.Unlock()
}

// commitSignal reads the hub: the durable generation and the channel
// that closes on the next commit past it.
func (s *Store) commitSignal() (uint64, <-chan struct{}) {
	s.hubMu.Lock()
	defer s.hubMu.Unlock()
	if s.commitCh == nil {
		s.commitCh = make(chan struct{})
	}
	return s.commitGen, s.commitCh
}

// DurableGeneration returns the newest generation whose WAL record has
// been written (and, with SyncWAL, fsynced).
func (s *Store) DurableGeneration() uint64 {
	s.hubMu.Lock()
	defer s.hubMu.Unlock()
	return s.commitGen
}

// AwaitGeneration parks until a commit advances the durable generation
// past from, the wait elapses, or ctx is done — the long-poll feed's
// wait primitive. It returns the durable generation at wake-up; the
// caller re-collects when it moved. Idle waiters cost one parked
// goroutine and zero work per unrelated commit.
func (s *Store) AwaitGeneration(ctx context.Context, from uint64, wait time.Duration) uint64 {
	gen, ch := s.commitSignal()
	if gen > from || wait <= 0 {
		return gen
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	s.hubMu.Lock()
	s.feedWaiters++
	s.hubMu.Unlock()
	defer func() {
		s.hubMu.Lock()
		s.feedWaiters--
		s.hubMu.Unlock()
	}()
	for {
		select {
		case <-ch:
		case <-timer.C:
			gen, _ = s.commitSignal()
			return gen
		case <-ctx.Done():
			gen, _ = s.commitSignal()
			return gen
		}
		gen, ch = s.commitSignal()
		if gen > from {
			return gen
		}
	}
}

// Dirty reports whether the engine has mutated past the last
// snapshot — the background scheduler's "is a snapshot worth taking"
// check.
func (s *Store) Dirty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng != nil && s.eng.Generation() != s.lastSnapGen
}

// Stats returns the store's persistence counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Dir:                         s.dir,
		Snapshots:                   s.snapshots,
		DeltaSnapshots:              s.deltaSnapshots,
		DeltaChainLength:            s.chainLen,
		LastSnapshotGeneration:      s.lastSnapGen,
		LastSnapshotBytes:           s.lastSnapBytes,
		LastSnapshotDurationNs:      s.lastSnapDuration.Nanoseconds(),
		RecoveredSnapshotGeneration: s.recoveredGen,
		ReplayedRecords:             s.replayed,
		TornTailDropped:             s.tornDropped,
	}
	st.WALGroupCommits = s.groupCommits
	st.WALGroupRecords = s.groupRecords
	st.CoalescedAppends = s.coalescedAppends
	if s.wal != nil {
		st.WALRecords = s.wal.records
		st.WALBytes = s.wal.bytes
	}
	s.mu.Unlock()
	s.hubMu.Lock()
	st.DurableGeneration = s.commitGen
	st.FeedWaiters = s.feedWaiters
	s.hubMu.Unlock()
	return st
}

// Close drains the commit pipeline, then flushes and closes the
// current WAL segment. Queued mutations commit before the segment
// closes; anything submitted afterwards fails with ErrUnavailable.
// The store is unusable afterwards.
func (s *Store) Close() error {
	if c := s.committer.Swap(nil); c != nil {
		// Outside s.mu: the final drain commits through commitGroup,
		// which needs the lock.
		c.shutdown()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.close()
	s.wal = nil
	return err
}

// Park makes the directory self-contained and releases the store: a
// snapshot captures any acknowledged mutation past the last one, then
// the WAL handle is closed. After Park the directory alone
// reconstructs the engine through Open+Recover — the cold-tenant path
// a registry takes when it evicts a dataset from memory. The store is
// unusable afterwards even when the snapshot fails; the WAL still
// holds the tail in that case, so no acknowledged state is lost.
func (s *Store) Park() error {
	var snapErr error
	if s.Dirty() {
		_, snapErr = s.Snapshot()
	}
	if err := s.Close(); err != nil && snapErr == nil {
		snapErr = err
	}
	return snapErr
}
