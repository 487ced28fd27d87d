package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"coverage"
	"coverage/internal/enhance"
	"coverage/internal/persist"
	"coverage/internal/registry"
)

// serverConfig carries the per-tenant knobs a registry-managed server
// runs under. The zero value — used by the legacy single-dataset
// constructor — means no admission budget, no shared search pool and
// the package-default body caps.
type serverConfig struct {
	// budget admission-controls search-class requests (nil =
	// unlimited); pool caps cross-tenant search parallelism (nil = no
	// cap) and weight is how many slots this tenant's searches take.
	budget *registry.Budget
	pool   *registry.Pool
	weight int
	// maxBody / maxStream override the JSON and NDJSON body caps
	// (0 = the package defaults).
	maxBody   int64
	maxStream int64
}

// server wires the coverage analyzer's engine into HTTP handlers. All
// endpoints are safe for concurrent use: reads take the engine's read
// lock and appends its write lock. With a persist.Store attached,
// every mutation is written to the write-ahead log before it is
// acknowledged, and POST /snapshot is exposed.
type server struct {
	an    *coverage.Analyzer
	store *persist.Store // nil when running without -data-dir
	cfg   serverConfig
	mux   *http.ServeMux
	// desc is the schema's description table, shared by the three
	// hand-encoded list replies.
	desc *descTable
	// replica, when set, contributes the replication section of
	// /stats — a WAL-tailing follower installs it; leaders leave it
	// nil.
	replica func() *replicaJSON
	// topo tracks followers seen on the WAL feed (identified by their
	// X-Replica-ID header) for GET /topology; built only with a store.
	topo *topology
}

func newServer(an *coverage.Analyzer, store *persist.Store) *server {
	return newServerWith(an, store, serverConfig{})
}

func newServerWith(an *coverage.Analyzer, store *persist.Store, cfg serverConfig) *server {
	s := &server{an: an, store: store, cfg: cfg, mux: http.NewServeMux(), desc: newDescTable(an.Dataset().Schema())}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /coverage", s.handleCoverage)
	s.mux.HandleFunc("GET /mups", s.handleMUPs)
	s.mux.HandleFunc("POST /append", s.handleAppend)
	s.mux.HandleFunc("POST /delete", s.handleDelete)
	s.mux.HandleFunc("GET /window", s.handleWindowGet)
	s.mux.HandleFunc("POST /window", s.handleWindowSet)
	s.mux.HandleFunc("POST /plan", s.handlePlan)
	if store != nil {
		// These endpoints exist only when the server is durable; without
		// -data-dir there is nothing to snapshot or replicate and the
		// routes 404. /wal and /chain are the replication feed: a
		// follower bootstraps from the snapshot chain and then tails the
		// write-ahead log.
		s.mux.HandleFunc("POST /snapshot", s.handleSnapshot)
		s.mux.HandleFunc("GET /wal", s.handleWALFeed)
		s.mux.HandleFunc("GET /chain", s.handleChainList)
		s.mux.HandleFunc("GET /chain/{name}", s.handleChainFile)
		s.topo = newTopology()
		s.mux.HandleFunc("GET /topology", s.handleTopology)
	}
	return s
}

// appendRows, deleteRows and setWindow route mutations through the
// durable store when one is attached, so the WAL sees every mutation
// in apply order; otherwise they hit the engine directly.
func (s *server) appendRows(rows [][]uint8) error {
	if s.store != nil {
		return s.store.Append(rows)
	}
	return s.an.Append(rows)
}

func (s *server) deleteRows(rows [][]uint8) error {
	if s.store != nil {
		return s.store.Delete(rows)
	}
	return s.an.Delete(rows)
}

func (s *server) setWindow(maxRows int) error {
	if s.store != nil {
		return s.store.SetWindow(maxRows)
	}
	s.an.SetWindow(maxRows)
	return nil
}

// mutationStatus maps a mutation error to its HTTP status: a durable
// store that cannot log (disk full, tripped fail-stop) is the
// server's fault — 503, retryable — never the client's; any other
// error keeps the handler's own client-fault status.
func mutationStatus(err error, clientStatus int) int {
	if errors.Is(err, persist.ErrUnavailable) {
		return http.StatusServiceUnavailable
	}
	return clientStatus
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON sends v as compact JSON. The three list replies — /mups,
// /coverage, /plan — are hand-encoded instead (wire.go).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxRequestBytes caps JSON request bodies; oversized appends should
// be split into batches, not buffered wholesale.
const maxRequestBytes = 8 << 20

// bodyLimit and streamLimit are the effective per-server caps.
func (s *server) bodyLimit() int64 {
	if s.cfg.maxBody > 0 {
		return s.cfg.maxBody
	}
	return maxRequestBytes
}

func (s *server) streamLimit() int64 {
	if s.cfg.maxStream > 0 {
		return s.cfg.maxStream
	}
	return maxStreamBytes
}

// bodyStatus distinguishes "you sent too much" from "you sent
// garbage": a tripped MaxBytesReader is 413, anything else 400.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readBody reads the whole request body under the server's cap, into a
// buffer sized by Content-Length when the client sent one. Past the cap
// it returns the bytes read with the *http.MaxBytesError.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := r.ContentLength
	if size < 0 || size > s.bodyLimit() {
		size = 0
	}
	// MinRead spare: the read that sees EOF then needs no new buffer.
	body := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.bodyLimit()))
	return body.Bytes(), err
}

// errTrailingData refuses a body with more than space after its value.
var errTrailingData = errors.New("data after the JSON value")

// decodeJSON decodes the one JSON value of body into v, refusing
// unknown fields and anything but space after the value. readErr is
// what ended the read of body, if not EOF: a value that needs bytes past
// it fails with it, as it would have reading the stream.
func decodeJSON(body []byte, readErr error, v any) error {
	src := io.Reader(bytes.NewReader(body))
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if readErr != nil {
		return readErr
	}
	if len(skipJSONSpace(body[dec.InputOffset():])) > 0 {
		return errTrailingData
	}
	return nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, readErr := s.readBody(w, r)
	if err := decodeJSON(body, readErr, v); err != nil {
		writeError(w, bodyStatus(err), fmt.Errorf("decoding request body: %w", err))
		return false
	}
	return true
}

// admit charges the tenant's search budget; on exhaustion it writes
// the 429 with a Retry-After and reports false.
func (s *server) admit(w http.ResponseWriter) bool {
	retry, ok := s.cfg.budget.Take()
	if ok {
		return true
	}
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("dataset search budget exhausted; retry in %ds", secs))
	return false
}

// acquireSlots takes the tenant's weight from the shared search pool,
// blocking while other tenants' searches drain. A client that
// disconnects while queued gets the usual 499.
func (s *server) acquireSlots(w http.ResponseWriter, r *http.Request) (func(), bool) {
	release, err := s.cfg.pool.Acquire(r.Context(), s.cfg.weight)
	if err != nil {
		writeError(w, statusClientClosedRequest, fmt.Errorf("canceled while queued for search slots: %w", err))
		return nil, false
	}
	return release, true
}

type healthResponse struct {
	Status string `json:"status"`
	Rows   int64  `json:"rows"`
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Rows: s.an.NumRows()})
}

type statsResponse struct {
	Rows           int64  `json:"rows"`
	Distinct       int    `json:"distinct_combinations"`
	DeltaDistinct  int    `json:"delta_combinations"`
	Generation     uint64 `json:"generation"`
	Appends        int64  `json:"appends"`
	Deletes        int64  `json:"deletes"`
	Evictions      int64  `json:"window_evictions"`
	Compactions    int64  `json:"compactions"`
	FullSearches   int64  `json:"full_searches"`
	Repairs        int64  `json:"incremental_repairs"`
	BidirRepairs   int64  `json:"bidirectional_repairs"`
	CacheHits      int64  `json:"cache_hits"`
	CachedSearches int    `json:"cached_searches"`
	// BodyBytes is the total length of the /mups replies kept with the
	// cached searches, part of the tenant's resident bytes.
	BodyBytes int64 `json:"cached_body_bytes"`
	// Window is the sliding-window configuration: the maximum number
	// of live rows (0 = unbounded), the count of deleted rows whose
	// window-log entries are still awaiting reconciliation, and the
	// window's resident bytes (key ring plus pending-delete table).
	Window      int   `json:"window_max_rows"`
	Tombstones  int64 `json:"window_tombstones"`
	WindowBytes int64 `json:"window_bytes"`
	// ShardCount is the number of shard cores the combo space is
	// hash-partitioned across; Shards holds one counter block per
	// core.
	ShardCount int         `json:"shard_count"`
	Shards     []shardJSON `json:"shards"`
	// PlanCache reports the incremental remediation planner.
	PlanCache planCacheJSON `json:"plan_cache"`
	// Persist reports the durability layer; absent without -data-dir.
	Persist *persistStats `json:"persist,omitempty"`
	// Replica reports the WAL-tailing follower loop; absent on leaders.
	Replica *replicaJSON `json:"replica,omitempty"`
}

// replicaJSON is the replication section of a follower's /stats: where
// it follows, how far behind it stands and how the tailing loop has
// fared.
type replicaJSON struct {
	Leader           string `json:"leader"`
	ReplicaID        string `json:"replica_id,omitempty"`
	LocalGeneration  uint64 `json:"local_generation"`
	LeaderGeneration uint64 `json:"leader_generation"`
	GenerationLag    uint64 `json:"generation_lag"`
	AppliedRecords   int64  `json:"applied_records"`
	Polls            int64  `json:"polls"`
	Resyncs          int64  `json:"resyncs"`
	LastError        string `json:"last_error,omitempty"`
}

// planCacheJSON is the remediation-plan cache section of /stats:
// probes and hits against the cache, plus how each non-hit was
// answered — a first build of the configuration (builds), a stale
// plan kept because its re-expanded targets were unchanged, with zero
// greedy work (target_repairs), or a stale plan re-planned from
// scratch because they changed (seeded_rebuilds — a name kept for
// existing readers of /stats; the re-plan takes no seeds).
type planCacheJSON struct {
	Probes        int64 `json:"probes"`
	Hits          int64 `json:"hits"`
	Builds        int64 `json:"builds"`
	TargetRepairs int64 `json:"target_repairs"`
	Rebuilds      int64 `json:"seeded_rebuilds"`
	CachedPlans   int   `json:"cached_plans"`
}

// shardJSON is one shard core's counters on /stats. The store fields
// report its count table's slot-fill ratio and the resident bytes of
// its count table and pending delta; marginal_bytes is its base
// index's marginal table (0 until a /coverage batch builds it).
type shardJSON struct {
	Rows           int64   `json:"rows"`
	Distinct       int     `json:"distinct_combinations"`
	DeltaDistinct  int     `json:"delta_combinations"`
	Compactions    int64   `json:"compactions"`
	StoreOccupancy float64 `json:"store_occupancy"`
	StoreBytes     int64   `json:"store_bytes"`
	MarginalBytes  int64   `json:"marginal_bytes"`
}

// persistStats is the durability section of /stats.
type persistStats struct {
	DataDir                string `json:"data_dir"`
	Snapshots              int64  `json:"snapshots"`
	LastSnapshotGeneration uint64 `json:"last_snapshot_generation"`
	LastSnapshotBytes      int64  `json:"last_snapshot_bytes"`
	WALRecords             int64  `json:"wal_records"`
	WALBytes               int64  `json:"wal_bytes"`
	// RecoveredSnapshotGeneration and ReplayedWALRecords describe this
	// process's boot, ReplayRuns the engine batches that replayed those
	// records (one per run of consecutive appends and deletes);
	// TornWALTailDropped reports whether a torn record from the
	// previous crash was truncated away. RefusedSnapshots lists the
	// generations of full snapshots the boot passed over for their
	// format version: left on disk, and kept out of retention.
	RecoveredSnapshotGeneration uint64   `json:"recovered_snapshot_generation"`
	ReplayedWALRecords          int64    `json:"replayed_wal_records"`
	ReplayRuns                  int64    `json:"replay_runs"`
	TornWALTailDropped          bool     `json:"torn_wal_tail_dropped"`
	RefusedSnapshots            []uint64 `json:"refused_snapshots"`
	// DeltaSnapshots counts snapshots written as deltas against the
	// previous one; DeltaChainLength is how many deltas currently
	// stack on the newest full image.
	DeltaSnapshots   int64 `json:"delta_snapshots"`
	DeltaChainLength int   `json:"delta_chain_length"`
	// The commit pipeline: write+fsync calls, the records they
	// carried (one per request, or one per record of a follower's
	// feed; records ÷ commits = group size), the newest durably
	// logged generation, and feed long-pollers currently parked on
	// the commit hub.
	WALGroupCommits   int64  `json:"wal_group_commits"`
	WALGroupRecords   int64  `json:"wal_grouped_records"`
	DurableGeneration uint64 `json:"durable_generation"`
	FeedWaiters       int64  `json:"feed_waiters"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.an.Engine().Stats()
	resp := statsResponse{
		Rows:           st.Rows,
		Distinct:       st.Distinct,
		DeltaDistinct:  st.DeltaDistinct,
		Generation:     st.Generation,
		Appends:        st.Appends,
		Deletes:        st.Deletes,
		Evictions:      st.Evictions,
		Compactions:    st.Compactions,
		FullSearches:   st.FullSearches,
		Repairs:        st.Repairs,
		BidirRepairs:   st.BidirectionalRepairs,
		CacheHits:      st.CacheHits,
		CachedSearches: st.CachedSearches,
		BodyBytes:      st.BodyBytes,
		Window:         st.Window,
		Tombstones:     st.Tombstones,
		WindowBytes:    st.WindowBytes,
		ShardCount:     st.ShardCount,
		Shards:         make([]shardJSON, len(st.Shards)),
		PlanCache: planCacheJSON{
			Probes:        st.PlanProbes,
			Hits:          st.PlanHits,
			Builds:        st.PlanBuilds,
			TargetRepairs: st.PlanRepairs,
			Rebuilds:      st.PlanRebuilds,
			CachedPlans:   st.CachedPlans,
		},
	}
	for i, sh := range st.Shards {
		resp.Shards[i] = shardJSON{
			Rows:           sh.Rows,
			Distinct:       sh.Distinct,
			DeltaDistinct:  sh.DeltaDistinct,
			Compactions:    sh.Compactions,
			StoreOccupancy: sh.StoreOccupancy,
			StoreBytes:     sh.StoreBytes,
			MarginalBytes:  sh.MarginalBytes,
		}
	}
	if s.store != nil {
		ps := s.store.Stats()
		resp.Persist = &persistStats{
			DataDir:                     ps.Dir,
			Snapshots:                   ps.Snapshots,
			LastSnapshotGeneration:      ps.LastSnapshotGeneration,
			LastSnapshotBytes:           ps.LastSnapshotBytes,
			WALRecords:                  ps.WALRecords,
			WALBytes:                    ps.WALBytes,
			RecoveredSnapshotGeneration: ps.RecoveredSnapshotGeneration,
			ReplayedWALRecords:          ps.ReplayedRecords,
			ReplayRuns:                  ps.ReplayRuns,
			TornWALTailDropped:          ps.TornTailDropped,
			RefusedSnapshots:            ps.RefusedSnapshots,
		}
		resp.Persist.DeltaSnapshots = ps.DeltaSnapshots
		resp.Persist.DeltaChainLength = ps.DeltaChainLength
		resp.Persist.WALGroupCommits = ps.WALGroupCommits
		resp.Persist.WALGroupRecords = ps.WALGroupRecords
		resp.Persist.DurableGeneration = ps.DurableGeneration
		resp.Persist.FeedWaiters = ps.FeedWaiters
	}
	if s.replica != nil {
		resp.Replica = s.replica()
	}
	writeJSON(w, http.StatusOK, resp)
}

// snapshotResponse reports the outcome of an on-demand snapshot.
type snapshotResponse struct {
	// Skipped is true when the engine has not mutated since the last
	// snapshot, so none was written.
	Skipped    bool    `json:"skipped,omitempty"`
	Generation uint64  `json:"generation"`
	Bytes      int64   `json:"bytes,omitempty"`
	DurationMs float64 `json:"duration_ms,omitempty"`
}

// handleSnapshot triggers an immediate snapshot + WAL rotation. It is
// registered only when the server runs with -data-dir.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	res, err := s.store.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{
		Skipped:    res.Skipped,
		Generation: res.Generation,
		Bytes:      res.Bytes,
		DurationMs: float64(res.Duration.Microseconds()) / 1000,
	})
}

// coverageRequest is a batch of pattern probes in the compact notation
// ("X1X0", "[12]XX"). Threshold, when positive, additionally reports
// whether each pattern is covered.
type coverageRequest struct {
	Patterns  []string `json:"patterns"`
	Threshold int64    `json:"threshold,omitempty"`
}

// patternCoverage, coverageResponse and — below — mupsResponse and
// planResponse with their elements declare the shape of the three list
// replies. The handlers do not marshal them: wireBuf's encoders write
// the same bytes without reflection, and TestWireBodiesMatchMarshal
// holds the two together.
type patternCoverage struct {
	Pattern     string `json:"pattern"`
	Description string `json:"description"`
	Coverage    int64  `json:"coverage"`
	Covered     *bool  `json:"covered,omitempty"`
}

type coverageResponse struct {
	Rows    int64             `json:"rows"`
	Results []patternCoverage `json:"results"`
}

func (s *server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	var req coverageRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Patterns) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("patterns must be non-empty"))
		return
	}
	if !s.admit(w) {
		return
	}
	schema := s.an.Dataset().Schema()
	ps := make([]coverage.Pattern, len(req.Patterns))
	for i, raw := range req.Patterns {
		p, err := coverage.ParsePattern(raw, schema)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ps[i] = p
	}
	// The row count is read under the same lock as the counts, so a
	// concurrent append cannot pair its total with older counts.
	covs, rows, err := s.an.Engine().CoverageBatchRows(ps)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	b := newWireBuf()
	b.coverage(s.desc, rows, ps, covs, req.Threshold)
	b.send(w)
}

type mupJSON struct {
	Pattern     string `json:"pattern"`
	Level       int    `json:"level"`
	Description string `json:"description"`
}

type mupsResponse struct {
	Rows      int64     `json:"rows"`
	Threshold int64     `json:"threshold"`
	TotalMUPs int       `json:"total_mups"`
	MUPs      []mupJSON `json:"mups"`
	Algorithm string    `json:"algorithm"`
	Probes    int64     `json:"coverage_probes"`
}

// queryFindOptions parses tau= / rate= / maxlevel= query parameters.
func queryFindOptions(r *http.Request) (coverage.FindOptions, error) {
	var opts coverage.FindOptions
	q := r.URL.Query()
	if v := q.Get("tau"); v != "" {
		tau, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad tau %q: %w", v, err)
		}
		opts.Threshold = tau
	}
	if v := q.Get("rate"); v != "" {
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return opts, fmt.Errorf("bad rate %q: %w", v, err)
		}
		opts.ThresholdRate = rate
	}
	if v := q.Get("maxlevel"); v != "" {
		l, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad maxlevel %q: %w", v, err)
		}
		opts.MaxLevel = l
	}
	return opts, nil
}

func (s *server) handleMUPs(w http.ResponseWriter, r *http.Request) {
	opts, err := queryFindOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admit(w) {
		return
	}
	release, ok := s.acquireSlots(w, r)
	if !ok {
		return
	}
	rep, err := s.an.FindMUPs(opts)
	// The slots cover the search only: encoding and writing a
	// multi-megabyte reply to a slow reader must not pin capacity other
	// tenants are queued for.
	release()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A reply answered from the engine's cache is encoded once and kept
	// with the cached result: every later hit writes the stored bytes.
	// The first reply to a repaired result copies the elements of the
	// MUPs that survived from the body of the result it replaced. A
	// result a racing search superseded has no entry to keep it.
	body := rep.Body(func(prev []coverage.Pattern, prevBody []byte) []byte {
		return s.desc.mupsBodyFrom(rep, prev, prevBody)
	})
	if body == nil {
		body = s.desc.mupsBody(rep)
	}
	writeBody(w, body)
}

// mutateRequest carries rows to append or delete, either as value
// labels resolved against the schema ("rows") or as raw value codes
// ("codes"). The two forms may be mixed in one request.
type mutateRequest struct {
	Rows  [][]string `json:"rows,omitempty"`
	Codes codeRows   `json:"codes"`
}

type mutateResponse struct {
	Appended   int    `json:"appended,omitempty"`
	Deleted    int    `json:"deleted,omitempty"`
	TotalRows  int64  `json:"total_rows"`
	Generation uint64 `json:"generation"`
}

// rowFromLabels resolves one row of value labels to codes.
func rowFromLabels(schema *coverage.Schema, n int, labels []string) ([]uint8, error) {
	if len(labels) != schema.Dim() {
		return nil, fmt.Errorf("row %d has %d values, schema has %d attributes", n, len(labels), schema.Dim())
	}
	row := make([]uint8, len(labels))
	for i, label := range labels {
		code, ok := schema.ValueCode(i, label)
		if !ok {
			return nil, fmt.Errorf("row %d: unknown value %q for attribute %q", n, label, schema.Attr(i).Name)
		}
		row[i] = code
	}
	return row, nil
}

// mutateBatch decodes a JSON mutate body into a code batch, reading it
// once: the body {"codes": rows} — all a code-row client sends — goes
// straight to the row scanner. Every other body, and one the read cut
// short (readErr), takes the encoding/json path, jsonMutateBatch, which
// decides it exactly as the scan would have. A non-nil error is the
// reply's text; bodyStatus gives its status.
func mutateBatch(schema *coverage.Schema, body []byte, readErr error) ([][]uint8, error) {
	if readErr == nil {
		if rows, ok := scanCodesBody(body, schema.Dim()); ok {
			if err := checkCodeRows(schema, rows); err != nil {
				return nil, fmt.Errorf("decoding request body: %w", err)
			}
			return rows, nil
		}
	}
	return jsonMutateBatch(schema, body, readErr)
}

// jsonMutateBatch is mutateBatch by encoding/json: label rows, base64
// code rows, unknown or duplicate fields, keys in another case and
// escaped keys are all decided here.
func jsonMutateBatch(schema *coverage.Schema, body []byte, readErr error) ([][]uint8, error) {
	req := mutateRequest{Codes: codeRows{schema: schema}}
	if err := decodeJSON(body, readErr, &req); err != nil {
		return nil, fmt.Errorf("decoding request body: %w", err)
	}
	batch := make([][]uint8, 0, len(req.Rows)+len(req.Codes.rows))
	for n, labels := range req.Rows {
		row, err := rowFromLabels(schema, n, labels)
		if err != nil {
			return nil, err
		}
		batch = append(batch, row)
	}
	return append(batch, req.Codes.rows...), nil
}

// decodeMutateBatch parses a JSON mutate request into a code batch.
// Both label and code rows are validated against the schema here, so a
// malformed request is always a 400 (a 413 past the body cap) and
// handlers can reserve other statuses for genuine state conflicts.
func (s *server) decodeMutateBatch(w http.ResponseWriter, r *http.Request, verb string) ([][]uint8, bool) {
	body, readErr := s.readBody(w, r)
	batch, err := mutateBatch(s.an.Dataset().Schema(), body, readErr)
	if err != nil {
		writeError(w, bodyStatus(err), err)
		return nil, false
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%s needs rows or codes", verb))
		return nil, false
	}
	return batch, true
}

// ndjsonBatchRows is how many streamed NDJSON rows are buffered before
// each engine feed: large enough to amortize the engine's per-batch
// lock and shard work over heavy ingest, small enough to bound memory.
// The chunk bounds memory only: no feed rebuilds a base, so the
// engine compacts once, on the first read after the load.
const ndjsonBatchRows = 4096

// maxStreamBytes caps streamed NDJSON bodies. Streaming exists for
// bulk ingest, so the cap is far above the JSON body cap.
const maxStreamBytes = 1 << 30

// ndjsonRow decodes one non-blank NDJSON line — value labels or raw
// codes — into a row, cutting code rows from slab.
func (s *server) ndjsonRow(slab *rowSlab, line int, raw []byte) ([]uint8, error) {
	row, rest, ok := scanCodeRow(slab.next(), raw)
	ok = ok && len(skipJSONSpace(rest)) == 0
	if !ok || bytes.IndexByte(raw, 'n') >= 0 {
		// Not a plain code row. Decide as encoding/json always has
		// here: labels first — a []string takes null elements too —
		// then codes, which adds the base64 string a []uint8 accepts.
		var labels []string
		if json.Unmarshal(raw, &labels) == nil {
			return rowFromLabels(s.an.Dataset().Schema(), line, labels)
		}
		if !ok {
			var decoded []uint8 // not &row: that would move the hot path's row to the heap
			if raw[0] != '"' || json.Unmarshal(raw, &decoded) != nil {
				return nil, fmt.Errorf("line %d: not a JSON array of labels or codes: %q", line, raw)
			}
			row = decoded
		}
	}
	if err := checkCodeRow(s.an.Dataset().Schema(), row); err != nil {
		return nil, fmt.Errorf("line %d: %w", line, err)
	}
	if ok {
		slab.keep(row)
	}
	return row, nil
}

// appendNDJSON consumes an application/x-ndjson body: one JSON array
// per line, either value labels (["male","white"]) or raw codes
// ([1,2]), fed to the engine in batches. Rows accepted before a
// malformed line remain appended; the error response reports how many.
func (s *server) appendNDJSON(w http.ResponseWriter, r *http.Request) {
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.streamLimit()))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	slab := rowSlab{dim: s.an.Dataset().Schema().Dim(), rows: ndjsonBatchRows}
	batch := make([][]uint8, 0, ndjsonBatchRows)
	appended := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := s.appendRows(batch); err != nil {
			return err
		}
		appended += len(batch)
		batch = batch[:0]
		return nil
	}
	fail := func(err error) {
		writeError(w, mutationStatus(err, bodyStatus(err)),
			fmt.Errorf("%w (%d rows appended before the error)", err, appended))
	}
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		row, err := s.ndjsonRow(&slab, line, raw)
		if err != nil {
			fail(err)
			return
		}
		batch = append(batch, row)
		if len(batch) >= ndjsonBatchRows {
			if err := flush(); err != nil {
				fail(err)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		fail(fmt.Errorf("reading body: %w", err))
		return
	}
	if err := flush(); err != nil {
		fail(err)
		return
	}
	if appended == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("append needs at least one NDJSON row"))
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		Appended:   appended,
		TotalRows:  s.an.NumRows(),
		Generation: s.an.Engine().Generation(),
	})
}

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/x-ndjson") {
		s.appendNDJSON(w, r)
		return
	}
	batch, ok := s.decodeMutateBatch(w, r, "append")
	if !ok {
		return
	}
	if err := s.appendRows(batch); err != nil {
		writeError(w, mutationStatus(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		Appended:   len(batch),
		TotalRows:  s.an.NumRows(),
		Generation: s.an.Engine().Generation(),
	})
}

// handleDelete retracts rows. Deleting rows whose combination is not
// present (in sufficient multiplicity) is a state conflict, not a
// malformed request: the whole batch is rejected with 409 and the
// dataset is left untouched.
func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	batch, ok := s.decodeMutateBatch(w, r, "delete")
	if !ok {
		return
	}
	if err := s.deleteRows(batch); err != nil {
		writeError(w, mutationStatus(err, http.StatusConflict), err)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		Deleted:    len(batch),
		TotalRows:  s.an.NumRows(),
		Generation: s.an.Engine().Generation(),
	})
}

// windowResponse reports the sliding-window configuration alongside
// the live row count it currently bounds.
type windowResponse struct {
	MaxRows    int    `json:"max_rows"`
	Rows       int64  `json:"rows"`
	Generation uint64 `json:"generation"`
}

type windowRequest struct {
	MaxRows int `json:"max_rows"`
}

func (s *server) handleWindowGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, windowResponse{
		MaxRows:    s.an.Window(),
		Rows:       s.an.NumRows(),
		Generation: s.an.Engine().Generation(),
	})
}

func (s *server) handleWindowSet(w http.ResponseWriter, r *http.Request) {
	var req windowRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.MaxRows < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("max_rows must be >= 0 (0 disables the window)"))
		return
	}
	if err := s.setWindow(req.MaxRows); err != nil {
		writeError(w, mutationStatus(err, http.StatusInternalServerError), err)
		return
	}
	writeJSON(w, http.StatusOK, windowResponse{
		MaxRows:    s.an.Window(),
		Rows:       s.an.NumRows(),
		Generation: s.an.Engine().Generation(),
	})
}

// planRequest configures a remediation plan: a threshold spec (tau or
// rate) plus one objective (max_level λ or min_value_count).
type planRequest struct {
	Tau           int64   `json:"tau,omitempty"`
	Rate          float64 `json:"rate,omitempty"`
	MaxLevel      int     `json:"max_level,omitempty"`
	MinValueCount uint64  `json:"min_value_count,omitempty"`
}

type suggestionJSON struct {
	Collect     string `json:"collect"`
	Description string `json:"description"`
	Combo       string `json:"example_combination"`
	GapsClosed  int    `json:"gaps_closed"`
}

type planResponse struct {
	Threshold   int64            `json:"threshold"`
	Targets     int              `json:"targets"`
	Tuples      int              `json:"tuples_to_collect"`
	Algorithm   string           `json:"algorithm"`
	Suggestions []suggestionJSON `json:"suggestions"`
}

// statusClientClosedRequest is nginx's de-facto status for "the client
// disconnected before the response was ready". The reply never reaches
// the client; the status exists for access logs and tests.
const statusClientClosedRequest = 499

func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// A bad objective is refused before it costs a MUP search.
	obj := enhance.Objective{MaxLevel: req.MaxLevel, MinValueCount: req.MinValueCount}
	if err := obj.Validate(s.an.Dataset().Cards()); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admit(w) {
		return
	}
	release, ok := s.acquireSlots(w, r)
	if !ok {
		return
	}
	rep, err := s.an.FindMUPs(coverage.FindOptions{Threshold: req.Tau, ThresholdRate: req.Rate})
	if err != nil {
		release()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The request context rides into the greedy searcher's pruning
	// loop: a disconnected client cancels it, and the handler stops
	// burning CPU on a plan nobody will read.
	plan, err := s.an.PlanContext(r.Context(), rep, coverage.PlanOptions{
		MaxLevel:      req.MaxLevel,
		MinValueCount: req.MinValueCount,
	})
	release()
	if err != nil {
		status := http.StatusBadRequest
		if r.Context().Err() != nil {
			status = statusClientClosedRequest
		}
		writeError(w, status, err)
		return
	}
	b := newWireBuf()
	b.plan(s.desc, rep.Threshold, plan)
	b.send(w)
}

// Replication feed. A follower bootstraps by downloading the snapshot
// chain (GET /chain, GET /chain/{name}) into its own data directory,
// recovering from it, and then tailing GET /wal?from=<gen> — the raw
// framed, per-record-CRC WAL stream persist.Store.ApplyWAL replays.

// walFeedMaxBytes caps one /wal response; the follower resumes from
// the generation of the last record it received.
const walFeedMaxBytes = 4 << 20

// generationHeader carries the serving engine's generation on
// replication responses (and the follower's local generation on its
// read responses).
const generationHeader = "X-Coverage-Generation"

// replicaIDHeader and replicaIntervalHeader identify a follower on its
// feed requests: a stable replica name, and how often the leader
// should expect to hear from it (its long-poll wait) — the TTL
// base for /topology expiry.
const (
	replicaIDHeader       = "X-Replica-ID"
	replicaIntervalHeader = "X-Replica-Interval"
)

// maxWALWait caps how long one /wal long-poll may park, so a follower
// asking for an hour still re-contacts (and re-registers in the
// topology) at a bounded cadence.
const maxWALWait = 30 * time.Second

func (s *server) handleWALFeed(w http.ResponseWriter, r *http.Request) {
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from %q: %w", v, err))
			return
		}
		from = parsed
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: %w", v, err))
			return
		}
		if parsed < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: must be >= 0", v))
			return
		}
		wait = min(parsed, maxWALWait)
	}
	s.observeReplica(r, from)

	data, gen, err := s.store.WALSince(from, walFeedMaxBytes)
	if err == nil && len(data) == 0 && wait > 0 {
		// Long poll: park on the commit hub until a commit moves the
		// durable generation past the follower's position, the wait
		// elapses, or the client goes away — then re-collect. A commit
		// landing between the WALSince above and the park is not lost:
		// AwaitGeneration returns immediately when the watermark is
		// already past from.
		if woke := s.store.AwaitGeneration(r.Context(), from, wait); woke > from {
			data, gen, err = s.store.WALSince(from, walFeedMaxBytes)
		}
	}
	if err != nil {
		if errors.Is(err, persist.ErrGone) {
			// The tail was pruned by snapshot retention: the follower
			// must resync from the snapshot chain.
			writeError(w, http.StatusGone, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(generationHeader, strconv.FormatUint(gen, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// observeReplica records a feed request in the topology when the
// caller identifies itself as a replica.
func (s *server) observeReplica(r *http.Request, from uint64) {
	if s.topo == nil {
		return
	}
	id := r.Header.Get(replicaIDHeader)
	if id == "" {
		return
	}
	var interval time.Duration
	if v := r.Header.Get(replicaIntervalHeader); v != "" {
		if parsed, err := time.ParseDuration(v); err == nil && parsed > 0 {
			interval = parsed
		}
	}
	s.topo.observe(id, r.RemoteAddr, from, interval)
}

func (s *server) handleTopology(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.topo.snapshot(s.an.Engine().Generation()))
}

// chainFileName reports whether name is a well-formed snapshot-chain
// file name (snap-<16 hex digits>.snap or .delta) — the only files
// /chain/{name} will serve, so the route cannot traverse paths.
func chainFileName(name string) bool {
	rest, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return false
	}
	switch {
	case strings.HasSuffix(rest, ".snap"):
		rest = strings.TrimSuffix(rest, ".snap")
	case strings.HasSuffix(rest, ".delta"):
		rest = strings.TrimSuffix(rest, ".delta")
	default:
		return false
	}
	if len(rest) != 16 {
		return false
	}
	for _, c := range rest {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

type chainFileJSON struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

type chainResponse struct {
	Generation uint64          `json:"generation"`
	Files      []chainFileJSON `json:"files"`
}

func (s *server) handleChainList(w http.ResponseWriter, r *http.Request) {
	entries, err := os.ReadDir(s.store.Dir())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := chainResponse{Generation: s.an.Engine().Generation(), Files: []chainFileJSON{}}
	for _, e := range entries {
		if !chainFileName(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		resp.Files = append(resp.Files, chainFileJSON{Name: e.Name(), Bytes: info.Size()})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleChainFile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !chainFileName(name) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%q is not a snapshot chain file", name))
		return
	}
	f, err := os.Open(filepath.Join(s.store.Dir(), name))
	if err != nil {
		if os.IsNotExist(err) {
			// Pruned between the chain listing and this fetch; the
			// follower re-requests the listing.
			writeError(w, http.StatusNotFound, fmt.Errorf("chain file %s no longer retained", name))
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}
