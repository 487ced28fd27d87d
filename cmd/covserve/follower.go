package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coverage"
	"coverage/internal/persist"
)

// maxLagHeader lets a read request bound its staleness: the follower
// rejects the request with 503 when its generation lag behind the
// leader exceeds the header's value, instead of silently serving stale
// data. Absent, reads are served at whatever generation the follower
// has reached.
const maxLagHeader = "X-Max-Lag"

// follower tails a leader covserve: it bootstraps its own data
// directory from the leader's snapshot chain, then long-polls GET /wal
// and hands each response to its own persist.Store (ApplyWAL), which
// replays the records as recovery does and logs their bytes verbatim —
// so every applied mutation is durable locally and the follower
// survives restarts (and promotion to leader) like any covserve.
//
// Reads are served from the local engine at a bounded, observable
// staleness; mutations are refused with 403 and a Location pointing at
// the leader.
type follower struct {
	leader *url.URL
	client *http.Client
	// waitFor makes each tail request a long poll: the leader parks it
	// until a commit moves the WAL past our generation (or waitFor
	// elapses), so replication lag is one RTT.
	waitFor   time.Duration
	replicaID string
	dataDir   string
	opts      persist.Options

	// mu guards the store/server pair, which is rebuilt wholesale on a
	// resync (the leader pruned past our generation, so the local state
	// is re-derived from a fresh snapshot chain).
	mu    sync.RWMutex
	store *persist.Store
	an    *coverage.Analyzer
	srv   *server

	leaderGen atomic.Uint64
	applied   atomic.Int64
	polls     atomic.Int64
	resyncs   atomic.Int64
	lastErr   atomic.Value // string
}

// newFollower boots a follower for the given leader URL: recover the
// local data directory if it holds state, otherwise bootstrap from the
// leader's snapshot chain. waitFor (> 0) is the long-poll wait of each
// tail request; replicaID, when non-empty, identifies this replica to
// the leader's /topology.
func newFollower(dataDir, leaderURL string, waitFor time.Duration, replicaID string, opts persist.Options) (*follower, error) {
	u, err := url.Parse(leaderURL)
	if err != nil {
		return nil, fmt.Errorf("bad leader URL %q: %w", leaderURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("leader URL %q needs a scheme and host", leaderURL)
	}
	// The HTTP timeout must outlast a full long-poll park, or every
	// idle wait would be cut off as a client error.
	timeout := time.Minute
	if waitFor+30*time.Second > timeout {
		timeout = waitFor + 30*time.Second
	}
	f := &follower{
		leader:    u,
		client:    &http.Client{Timeout: timeout},
		waitFor:   waitFor,
		replicaID: replicaID,
		dataDir:   dataDir,
		opts:      opts,
	}
	f.lastErr.Store("")
	if err := f.open(true); err != nil {
		return nil, err
	}
	return f, nil
}

// open (re)builds the store/analyzer/server triple from the data
// directory, bootstrapping the snapshot chain from the leader when the
// directory is empty (or when resync forces a fresh fetch).
func (f *follower) open(allowBootstrap bool) error {
	store, err := persist.Open(f.dataDir, f.opts)
	if err != nil {
		return err
	}
	eng, _, err := store.Recover()
	if errors.Is(err, persist.ErrNoState) && allowBootstrap {
		if err := f.fetchChain(); err != nil {
			store.Close()
			return fmt.Errorf("bootstrapping from %s: %w", f.leader, err)
		}
		eng, _, err = store.Recover()
	}
	if err != nil {
		store.Close()
		return err
	}
	an := coverage.NewAnalyzerFromEngine(eng)
	srv := newServer(an, store)
	srv.replica = f.replicaStats

	f.mu.Lock()
	f.store, f.an, f.srv = store, an, srv
	f.mu.Unlock()
	return nil
}

// fetchChain downloads the leader's snapshot chain files into the data
// directory (temp file + rename, so a torn transfer never leaves a
// half-written chain file). Files already present by name are assumed
// identical — chain names embed the generation.
func (f *follower) fetchChain() error {
	resp, err := f.client.Get(f.leader.JoinPath("/chain").String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("leader /chain: %s", resp.Status)
	}
	var chain chainResponse
	if err := json.NewDecoder(resp.Body).Decode(&chain); err != nil {
		return fmt.Errorf("decoding leader /chain: %w", err)
	}
	if len(chain.Files) == 0 {
		return fmt.Errorf("leader has no snapshot chain to bootstrap from")
	}
	for _, cf := range chain.Files {
		if !chainFileName(cf.Name) {
			return fmt.Errorf("leader offered suspicious chain file %q", cf.Name)
		}
		dst := filepath.Join(f.dataDir, cf.Name)
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		if err := f.downloadChainFile(cf.Name, dst); err != nil {
			return err
		}
	}
	return nil
}

func (f *follower) downloadChainFile(name, dst string) error {
	resp, err := f.client.Get(f.leader.JoinPath("/chain/" + name).String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("leader /chain/%s: %s", name, resp.Status)
	}
	tmp, err := os.CreateTemp(f.dataDir, "fetch-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, resp.Body); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), dst)
}

// engineGen is the follower's local generation.
func (f *follower) engineGen() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.an.Engine().Generation()
}

// pollOnce fetches and applies one round of the leader's WAL tail.
// Gaps in the feed and a pruned tail (410) trigger a resync from the
// snapshot chain. It returns the number of records applied.
func (f *follower) pollOnce() (int, error) {
	f.polls.Add(1)
	n, err := f.tailOnce()
	if err != nil {
		f.lastErr.Store(err.Error())
	} else {
		f.lastErr.Store("")
	}
	return n, err
}

// errResync marks feed states only a chain resync can repair.
var errResync = errors.New("follower: WAL feed unusable from this generation")

func (f *follower) tailOnce() (int, error) {
	f.mu.RLock()
	store := f.store
	gen := f.an.Engine().Generation()
	f.mu.RUnlock()

	u := f.leader.JoinPath("/wal")
	q := u.Query()
	q.Set("from", strconv.FormatUint(gen, 10))
	q.Set("wait", f.waitFor.String())
	u.RawQuery = q.Encode()
	req, err := http.NewRequest(http.MethodGet, u.String(), nil)
	if err != nil {
		return 0, err
	}
	if f.replicaID != "" {
		req.Header.Set(replicaIDHeader, f.replicaID)
		// The contact cadence the leader should expect.
		req.Header.Set(replicaIntervalHeader, f.waitFor.String())
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	data, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusGone:
		return f.resync()
	case resp.StatusCode != http.StatusOK:
		return 0, fmt.Errorf("leader /wal: %s", resp.Status)
	case readErr != nil:
		// A transfer torn mid-record is fine — the store keeps the
		// intact prefix and the next poll re-requests the rest.
		data = data[:0]
	}
	if lg, err := strconv.ParseUint(resp.Header.Get(generationHeader), 10, 64); err == nil {
		f.leaderGen.Store(lg)
	}

	// The store applies the intact prefix (a stream torn mid-record is
	// re-requested from the new position next poll) and logs it as one
	// group commit. ErrGone is a hole in the feed: the leader no longer
	// serves the records between us and its next one.
	applied, err := store.ApplyWAL(data)
	f.applied.Add(int64(applied))
	if errors.Is(err, persist.ErrGone) {
		n, err := f.resync()
		return applied + n, err
	}
	if err != nil {
		return applied, fmt.Errorf("applying the leader's WAL: %w", err)
	}
	return applied, nil
}

// resync rebuilds the local state from the leader's current snapshot
// chain: the old store is closed, the chain files are fetched, and the
// store/analyzer/server triple is swapped wholesale. The old WAL
// segments predate the new base, so recovery skips them; the next
// local snapshot prunes them.
func (f *follower) resync() (int, error) {
	f.resyncs.Add(1)
	f.mu.Lock()
	old := f.store
	f.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if err := f.fetchChain(); err != nil {
		return 0, fmt.Errorf("%w: fetching chain: %v", errResync, err)
	}
	if err := f.open(false); err != nil {
		return 0, fmt.Errorf("%w: reopening after chain fetch: %v", errResync, err)
	}
	return 0, nil
}

// retryAfter is how long the tail loop pauses after a failed request.
const retryAfter = 200 * time.Millisecond

// run tails the leader until stop closes. Each request long-polls on
// the leader, so after a success the loop re-issues at once — lag is
// one RTT, and an idle leader holds the request instead of being
// hammered. After an error it pauses retryAfter; errors are recorded in
// /stats and retried — a follower outliving a leader restart simply
// resumes.
func (f *follower) run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if _, err := f.pollOnce(); err == nil {
			continue
		}
		select {
		case <-stop:
			return
		case <-time.After(retryAfter):
		}
	}
}

// snapshotLoop checkpoints the follower's own store — delta snapshots,
// retention and compaction run exactly as on a leader, so a follower
// restart recovers locally instead of re-bootstrapping.
func (f *follower) snapshotLoop(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			f.mu.RLock()
			store := f.store
			f.mu.RUnlock()
			if store != nil && store.Dirty() {
				store.Snapshot()
			}
		}
	}
}

func (f *follower) replicaStats() *replicaJSON {
	local := f.engineGen()
	leader := f.leaderGen.Load()
	var lag uint64
	if leader > local {
		lag = leader - local
	}
	lastErr, _ := f.lastErr.Load().(string)
	return &replicaJSON{
		Leader:           f.leader.String(),
		ReplicaID:        f.replicaID,
		LocalGeneration:  local,
		LeaderGeneration: leader,
		GenerationLag:    lag,
		AppliedRecords:   f.applied.Load(),
		Polls:            f.polls.Load(),
		Resyncs:          f.resyncs.Load(),
		LastError:        lastErr,
	}
}

// followerWrites lists the routes a follower refuses: every mutation,
// plus the manual snapshot trigger (the follower checkpoints on its
// own schedule; POST /snapshot on a replica is almost always a
// misdirected client).
var followerWrites = map[string]bool{
	"POST /append":   true,
	"POST /delete":   true,
	"POST /window":   true,
	"POST /snapshot": true,
}

// ServeHTTP serves reads from the local engine with the generation
// stamped on the response, refuses writes with a leader redirect, and
// enforces the X-Max-Lag staleness bound.
func (f *follower) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if followerWrites[r.Method+" "+r.URL.Path] {
		w.Header().Set("Location", f.leader.JoinPath(r.URL.Path).String())
		writeError(w, http.StatusForbidden,
			fmt.Errorf("this covserve is a read replica; send %s %s to the leader at %s", r.Method, r.URL.Path, f.leader))
		return
	}

	local := f.engineGen()
	leader := f.leaderGen.Load()
	var lag uint64
	if leader > local {
		lag = leader - local
	}
	w.Header().Set(generationHeader, strconv.FormatUint(local, 10))
	if v := r.Header.Get(maxLagHeader); v != "" {
		maxLag, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s %q: %w", maxLagHeader, v, err))
			return
		}
		if lag > maxLag {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("replica is %d generation(s) behind the leader, request allows %d", lag, maxLag))
			return
		}
	}

	f.mu.RLock()
	srv := f.srv
	f.mu.RUnlock()
	srv.ServeHTTP(w, r)
}
