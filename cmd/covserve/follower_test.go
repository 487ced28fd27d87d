package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"coverage"
	"coverage/internal/persist"
)

// startLeader builds a durable covserve over the crash-test fixture
// and serves it over real HTTP (the follower dials it).
func startLeader(t *testing.T, dir string, opts persist.Options) (*server, *httptest.Server) {
	t.Helper()
	csv := strings.Join([]string{
		"sex,race",
		"male,white", "male,black", "male,other",
		"female,white", "female,black",
	}, "\n")
	ds, err := coverage.ReadCSV(strings.NewReader(csv), coverage.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return startLeaderOver(t, dir, coverage.NewAnalyzer(ds), opts)
}

// startLeaderOver is startLeader over any analyzer.
func startLeaderOver(t *testing.T, dir string, an *coverage.Analyzer, opts persist.Options) (*server, *httptest.Server) {
	t.Helper()
	store, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(an.Engine()); err != nil {
		t.Fatal(err)
	}
	s := newServer(an, store)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// testWait is the long-poll wait of in-process followers: tests drive
// pollOnce explicitly, so an idle poll must return quickly.
const testWait = 10 * time.Millisecond

// startFollower bootstraps a follower of ts into its own directory.
func startFollower(t *testing.T, ts *httptest.Server) *follower {
	t.Helper()
	f, err := newFollower(t.TempDir(), ts.URL, testWait, "", persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// doF sends a request through the follower's HTTP front (so the
// write-refusal and staleness gates apply).
func doF(t *testing.T, f *follower, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	f.ServeHTTP(w, req)
	return w
}

// TestFollowerTailsLeader is the core replication loop: bootstrap from
// the chain, tail appends/deletes/window changes, and answer /coverage
// and /mups byte-identically to the leader at the same generation.
func TestFollowerTailsLeader(t *testing.T) {
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{})
	f := startFollower(t, ts)

	if got, want := f.engineGen(), leaderSrv.an.Engine().Generation(); got != want {
		t.Fatalf("bootstrapped at generation %d, leader at %d", got, want)
	}

	// Mutations of every kind on the leader.
	do(t, leaderSrv, "POST", "/append", `{"rows": [["female", "other"], ["male", "white"]]}`)
	do(t, leaderSrv, "POST", "/delete", `{"rows": [["male", "black"]]}`)
	do(t, leaderSrv, "POST", "/window", `{"max_rows": 50}`)
	do(t, leaderSrv, "POST", "/append", `{"rows": [["female", "white"]]}`)

	applied, err := f.pollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 4 {
		t.Fatalf("applied %d records, want 4", applied)
	}
	leaderGen := leaderSrv.an.Engine().Generation()
	if got := f.engineGen(); got != leaderGen {
		t.Fatalf("follower at generation %d, leader at %d", got, leaderGen)
	}

	// Byte-identical answers at the same generation.
	for _, probe := range []struct{ method, target, body string }{
		{"POST", "/coverage", `{"patterns": ["XX", "0X", "12", "X1"], "threshold": 2}`},
		{"GET", "/mups?tau=2", ""},
		{"GET", "/window", ""},
	} {
		want := do(t, leaderSrv, probe.method, probe.target, probe.body)
		got := doF(t, f, probe.method, probe.target, probe.body, nil)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s %s diverges:\nleader (%d): %s\nfollower (%d): %s",
				probe.method, probe.target, want.Code, want.Body, got.Code, got.Body)
		}
		if g := got.Header().Get(generationHeader); g != fmt.Sprint(leaderGen) {
			t.Errorf("%s %s: %s = %q, want %d", probe.method, probe.target, generationHeader, g, leaderGen)
		}
	}

	// An idle poll applies nothing and is not an error.
	if applied, err := f.pollOnce(); err != nil || applied != 0 {
		t.Fatalf("idle poll: applied=%d err=%v", applied, err)
	}

	// The replica section of /stats.
	st := decode[statsResponse](t, doF(t, f, "GET", "/stats", "", nil))
	if st.Replica == nil {
		t.Fatal("/stats lacks the replica section on a follower")
	}
	if st.Replica.Leader != ts.URL || st.Replica.GenerationLag != 0 ||
		st.Replica.AppliedRecords != 4 || st.Replica.Polls != 2 || st.Replica.LastError != "" {
		t.Errorf("replica stats = %+v", st.Replica)
	}
	if st.Persist == nil {
		t.Error("/stats lacks the persist section: the follower's state is durable")
	}
	// The leader's /stats has no replica section.
	if decode[statsResponse](t, do(t, leaderSrv, "GET", "/stats", "")).Replica != nil {
		t.Error("leader /stats reports a replica section")
	}
}

// TestFollowerCatchUpOneGroupCommit: a follower that catches up many
// records from one feed response logs them with one WAL group commit —
// one write, one fsync — and its segment holds the leader's bytes for
// those generations.
func TestFollowerCatchUpOneGroupCommit(t *testing.T) {
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{})
	f := startFollower(t, ts)
	from := f.engineGen()
	labels := []string{`["male", "white"]`, `["female", "black"]`, `["male", "other"]`}
	const n = 60
	for i := range n {
		do(t, leaderSrv, "POST", "/append", `{"rows": [`+labels[i%3]+`, `+labels[(i+1)%3]+`]}`)
		if i%10 == 9 {
			do(t, leaderSrv, "POST", "/delete", `{"rows": [`+labels[i%3]+`]}`)
		}
	}
	leaderGen := leaderSrv.an.Engine().Generation()

	before := f.store.Stats()
	applied, err := f.pollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(applied) != leaderGen-from || f.engineGen() != leaderGen {
		t.Fatalf("applied %d records to generation %d, leader at %d from %d", applied, f.engineGen(), leaderGen, from)
	}
	after := f.store.Stats()
	if commits := after.WALGroupCommits - before.WALGroupCommits; commits != 1 {
		t.Fatalf("%d WAL group commits for %d records from one feed response, want 1", commits, applied)
	}
	if recs := after.WALGroupRecords - before.WALGroupRecords; recs != int64(applied) {
		t.Fatalf("the group carried %d records, want %d", recs, applied)
	}
	want, _, err := leaderSrv.store.WALSince(from, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.store.WALSince(from, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("follower logged %d bytes that are not the leader's %d", len(got), len(want))
	}
}

// TestFollowerRefusesWrites pins the write fence: every mutating route
// answers 403 with a Location naming the leader, and the local state
// does not move.
func TestFollowerRefusesWrites(t *testing.T) {
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{})
	f := startFollower(t, ts)
	gen := f.engineGen()

	for _, probe := range []struct{ target, body string }{
		{"/append", `{"rows": [["male", "white"]]}`},
		{"/delete", `{"rows": [["male", "white"]]}`},
		{"/window", `{"max_rows": 10}`},
		{"/snapshot", ""},
	} {
		w := doF(t, f, "POST", probe.target, probe.body, nil)
		if w.Code != http.StatusForbidden {
			t.Errorf("POST %s on a follower: status %d, want 403", probe.target, w.Code)
		}
		if loc := w.Header().Get("Location"); loc != ts.URL+probe.target {
			t.Errorf("POST %s: Location %q, want %q", probe.target, loc, ts.URL+probe.target)
		}
	}
	if f.engineGen() != gen {
		t.Error("refused writes moved the follower's generation")
	}
	// GET /window is a read and keeps working.
	if w := doF(t, f, "GET", "/window", "", nil); w.Code != http.StatusOK {
		t.Errorf("GET /window on a follower: status %d", w.Code)
	}
	_ = leaderSrv
}

// TestFollowerMaxLag pins the staleness bound: a read that allows less
// lag than the follower currently has is refused with 503, never
// answered stale.
func TestFollowerMaxLag(t *testing.T) {
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{})
	f := startFollower(t, ts)

	// Leader advances 3 generations; the follower learns the leader's
	// generation (simulating the poll loop's header read) but has not
	// applied the records.
	for i := 0; i < 3; i++ {
		do(t, leaderSrv, "POST", "/append", `{"rows": [["male", "white"]]}`)
	}
	f.leaderGen.Store(leaderSrv.an.Engine().Generation())

	if w := doF(t, f, "GET", "/mups?tau=2", "", map[string]string{maxLagHeader: "2"}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("lag 3 > max 2: status %d, want 503", w.Code)
	}
	if w := doF(t, f, "GET", "/mups?tau=2", "", map[string]string{maxLagHeader: "3"}); w.Code != http.StatusOK {
		t.Errorf("lag 3 ≤ max 3: status %d, want 200: %s", w.Code, w.Body)
	}
	if w := doF(t, f, "POST", "/coverage", `{"patterns": ["XX"]}`, map[string]string{maxLagHeader: "0"}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("lag 3 > max 0: status %d, want 503", w.Code)
	}
	if w := doF(t, f, "GET", "/mups?tau=2", "", map[string]string{maxLagHeader: "teapot"}); w.Code != http.StatusBadRequest {
		t.Errorf("garbage max-lag: status %d, want 400", w.Code)
	}

	// After catching up, the same bound passes.
	if _, err := f.pollOnce(); err != nil {
		t.Fatal(err)
	}
	if w := doF(t, f, "GET", "/mups?tau=2", "", map[string]string{maxLagHeader: "0"}); w.Code != http.StatusOK {
		t.Errorf("caught up, max 0: status %d, want 200", w.Code)
	}
}

// TestFollowerTornFeed pins live tailing over a torn WAL tail: the
// follower applies the intact prefix, keeps its position, and resumes
// cleanly once the tail is whole again.
func TestFollowerTornFeed(t *testing.T) {
	leaderDir := t.TempDir()
	leaderSrv, ts := startLeader(t, leaderDir, persist.Options{})
	f := startFollower(t, ts)

	do(t, leaderSrv, "POST", "/append", `{"rows": [["male", "white"]]}`)
	do(t, leaderSrv, "POST", "/append", `{"rows": [["female", "black"]]}`)

	// Tear the newest segment: garbage where the next record would go.
	seg := newestWALSegment(t, leaderDir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	goodSize := st.Size()
	g, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte{0xAB, 0xCD, 0xEF, 0x01, 0x23}); err != nil {
		t.Fatal(err)
	}
	g.Close()

	applied, err := f.pollOnce()
	if err != nil {
		t.Fatalf("poll over a torn tail: %v", err)
	}
	if applied != 2 {
		t.Fatalf("applied %d records from the intact prefix, want 2", applied)
	}
	genAfterTorn := f.engineGen()

	// Heal the tail (the leader's writer offset is unaffected: it sits
	// at the good size) and keep mutating.
	if err := os.Truncate(seg, goodSize); err != nil {
		t.Fatal(err)
	}
	do(t, leaderSrv, "POST", "/append", `{"rows": [["male", "other"]]}`)

	applied, err = f.pollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("applied %d records after healing, want 1", applied)
	}
	if f.engineGen() != genAfterTorn+1 {
		t.Fatalf("follower at generation %d, want %d", f.engineGen(), genAfterTorn+1)
	}
	want := do(t, leaderSrv, "POST", "/coverage", `{"patterns": ["XX", "00", "12"]}`)
	got := doF(t, f, "POST", "/coverage", `{"patterns": ["XX", "00", "12"]}`, nil)
	if got.Body.String() != want.Body.String() {
		t.Errorf("post-heal coverage diverges:\nleader: %s\nfollower: %s", want.Body, got.Body)
	}
}

// TestFollowerResyncAfterPrune pins the 410 path: a follower so far
// behind that the leader pruned its WAL position resyncs from the
// snapshot chain instead of failing forever.
func TestFollowerResyncAfterPrune(t *testing.T) {
	// A chain of at most one delta: after Attach's full image the
	// snapshots alternate delta and full, so retention prunes WAL
	// segments within a few rounds.
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{MaxDeltaChain: 1})
	f := startFollower(t, ts)

	// Four mutate+snapshot rounds leave three full images: cleanup
	// keeps the two newest and drops every WAL segment before the
	// older one — which is past the follower's bootstrap generation.
	for i := 0; i < 4; i++ {
		do(t, leaderSrv, "POST", "/append", `{"rows": [["male", "white"], ["female", "black"]]}`)
		if w := do(t, leaderSrv, "POST", "/snapshot", ""); w.Code != http.StatusOK {
			t.Fatalf("leader snapshot %d: %s", w.Code, w.Body)
		}
	}

	applied, err := f.pollOnce()
	if err != nil {
		t.Fatalf("poll after prune: %v", err)
	}
	if f.resyncs.Load() != 1 {
		t.Fatalf("resyncs = %d, want 1", f.resyncs.Load())
	}
	_ = applied
	if got, want := f.engineGen(), leaderSrv.an.Engine().Generation(); got != want {
		t.Fatalf("resynced to generation %d, leader at %d", got, want)
	}
	want := do(t, leaderSrv, "GET", "/mups?tau=2", "")
	got := doF(t, f, "GET", "/mups?tau=2", "", nil)
	if got.Body.String() != want.Body.String() {
		t.Errorf("post-resync MUPs diverge:\nleader: %s\nfollower: %s", want.Body, got.Body)
	}

	// The resynced follower keeps tailing.
	do(t, leaderSrv, "POST", "/append", `{"rows": [["male", "other"]]}`)
	if applied, err := f.pollOnce(); err != nil || applied != 1 {
		t.Fatalf("tail after resync: applied=%d err=%v", applied, err)
	}
}

// TestFollowerRestartRecoversLocally pins the follower's own
// durability: a restarted follower recovers from its own directory (no
// chain re-fetch) and resumes tailing where it stopped.
func TestFollowerRestartRecoversLocally(t *testing.T) {
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{})
	f := startFollower(t, ts)
	do(t, leaderSrv, "POST", "/append", `{"rows": [["female", "other"]]}`)
	if _, err := f.pollOnce(); err != nil {
		t.Fatal(err)
	}
	gen := f.engineGen()
	f.store.Close()

	f2, err := newFollower(f.dataDir, ts.URL, testWait, "", persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f2.engineGen() != gen {
		t.Fatalf("restarted follower at generation %d, want %d", f2.engineGen(), gen)
	}
	do(t, leaderSrv, "POST", "/append", `{"rows": [["male", "black"]]}`)
	if applied, err := f2.pollOnce(); err != nil || applied != 1 {
		t.Fatalf("restarted follower tail: applied=%d err=%v", applied, err)
	}
}

// TestChainFileNameValidation pins the path-traversal fence on
// /chain/{name}.
func TestChainFileNameValidation(t *testing.T) {
	valid := []string{"snap-0000000000000000.snap", "snap-00000000000000ff.delta"}
	for _, name := range valid {
		if !chainFileName(name) {
			t.Errorf("chainFileName(%q) = false, want true", name)
		}
	}
	invalid := []string{
		"", "snap-.snap", "snap-0000000000000000.wal", "wal-0000000000000000.wal",
		"snap-00000000000000.snap", "snap-00000000000000GG.snap",
		"../snap-0000000000000000.snap", "snap-0000000000000000.snap.corrupt",
	}
	for _, name := range invalid {
		if chainFileName(name) {
			t.Errorf("chainFileName(%q) = true, want false", name)
		}
	}

	leaderSrv, _ := startLeader(t, t.TempDir(), persist.Options{})
	if w := do(t, leaderSrv, "GET", "/chain/..%2Fsecret", ""); w.Code != http.StatusBadRequest {
		t.Errorf("traversal chain fetch: status %d, want 400", w.Code)
	}
	if w := do(t, leaderSrv, "GET", "/chain/snap-ffffffffffffffff.snap", ""); w.Code != http.StatusNotFound {
		t.Errorf("missing chain file: status %d, want 404", w.Code)
	}
}

// newestWALSegment returns the path of the lexicographically newest
// WAL segment in dir (names embed the generation, so this is the
// active one).
func newestWALSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments")
	}
	sort.Strings(segs)
	return filepath.Join(dir, segs[len(segs)-1])
}
