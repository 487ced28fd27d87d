package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coverage"
	"coverage/internal/persist"
)

// TestDurableServerEndpoints exercises the persistence surface of the
// HTTP layer in-process: /snapshot, the persist section of /stats,
// and a recover-into-a-new-server round trip.
func TestDurableServerEndpoints(t *testing.T) {
	dir := t.TempDir()
	csv := strings.Join([]string{
		"sex,race",
		"male,white", "male,black", "female,white", "female,black",
	}, "\n")
	ds, err := coverage.ReadCSV(strings.NewReader(csv), coverage.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	an := coverage.NewAnalyzer(ds)
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(an.Engine()); err != nil {
		t.Fatal(err)
	}
	s := newServer(an, store)

	do(t, s, "POST", "/append", `{"rows": [["female", "white"]]}`)
	w := do(t, s, "POST", "/snapshot", "")
	if w.Code != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", w.Code, w.Body)
	}
	snap := decode[snapshotResponse](t, w)
	if snap.Skipped || snap.Bytes == 0 || snap.Generation == 0 {
		t.Errorf("snapshot = %+v", snap)
	}
	// Idle snapshot is reported as skipped.
	if again := decode[snapshotResponse](t, do(t, s, "POST", "/snapshot", "")); !again.Skipped {
		t.Errorf("idle snapshot = %+v, want skipped", again)
	}
	do(t, s, "POST", "/delete", `{"rows": [["male", "black"]]}`)

	st := decode[statsResponse](t, do(t, s, "GET", "/stats", ""))
	if st.Persist == nil {
		t.Fatal("/stats lacks the persist section on a durable server")
	}
	if st.Persist.DataDir != dir || st.Persist.Snapshots != 2 || st.Persist.WALRecords != 1 {
		t.Errorf("persist stats = %+v", st.Persist)
	}

	// A new store over the same dir recovers the post-delete state.
	store2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, info, err := store2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// The on-demand snapshot was a delta against the attach image, so
	// recovery restores the full base, layers that delta, and replays
	// only the post-snapshot WAL tail (the delete).
	if info.SnapshotGeneration != 0 || info.DeltasApplied != 1 || info.Replayed != 1 {
		t.Errorf("recovery info = %+v, want base gen 0 + 1 delta + 1 replayed record", info)
	}
	s2 := newServer(coverage.NewAnalyzerFromEngine(eng), store2)
	for _, target := range []string{"XX", "0X", "10"} {
		body := fmt.Sprintf(`{"patterns": [%q]}`, target)
		want := decode[coverageResponse](t, do(t, s, "POST", "/coverage", body))
		got := decode[coverageResponse](t, do(t, s2, "POST", "/coverage", body))
		if want.Results[0].Coverage != got.Results[0].Coverage {
			t.Errorf("cov(%s): recovered %d, want %d", target, got.Results[0].Coverage, want.Results[0].Coverage)
		}
	}

	// The in-memory server has no snapshot endpoint.
	mem := serveFixture(t)
	if w := do(t, mem, "POST", "/snapshot", ""); w.Code != http.StatusNotFound {
		t.Errorf("in-memory /snapshot status %d, want 404", w.Code)
	}
	if decode[statsResponse](t, do(t, mem, "GET", "/stats", "")).Persist != nil {
		t.Error("in-memory /stats reports a persist section")
	}
}

// TestStatsAfterRestartListsRefusedAndRuns: after a restart the persist
// section of /stats names the full snapshots the boot refused for their
// format version and the engine batches its WAL replay took. A full
// image at generation 3 rewritten in the v2 layout is refused; recovery
// falls back to the attach image and replays the three logged
// mutations, an append, a delete and an append, as one run.
func TestStatsAfterRestartListsRefusedAndRuns(t *testing.T) {
	dir := t.TempDir()
	ds, err := coverage.ReadCSV(strings.NewReader("sex,race\nmale,white\nfemale,black\n"), coverage.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	an := coverage.NewAnalyzer(ds)
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Attach(an.Engine()); err != nil {
		t.Fatal(err)
	}
	s := newServer(an, store)
	do(t, s, "POST", "/append", `{"rows": [["female", "white"]]}`)
	do(t, s, "POST", "/delete", `{"rows": [["male", "white"]]}`)
	do(t, s, "POST", "/append", `{"rows": [["male", "black"]]}`)
	if st := decode[statsResponse](t, do(t, s, "GET", "/stats", "")); len(st.Persist.RefusedSnapshots) != 0 || st.Persist.ReplayRuns != 0 {
		t.Fatalf("fresh server: persist stats = %+v", st.Persist)
	}
	var buf bytes.Buffer
	if _, err := persist.WriteSnapshot(&buf, an.Engine().ExportState()); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	v2[8], v2[9], v2[10], v2[11] = 2, 0, 0, 0 // the format version, little-endian
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", 3)), v2, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	eng, info, err := store2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotGeneration != 0 || info.Replayed != 3 || info.ReplayRuns != 1 {
		t.Fatalf("recovery info = %+v, want gen 0 + 3 records in 1 run", info)
	}
	st := decode[statsResponse](t, do(t, newServer(coverage.NewAnalyzerFromEngine(eng), store2), "GET", "/stats", ""))
	if p := st.Persist; p.ReplayedWALRecords != 3 || p.ReplayRuns != 1 || len(p.RefusedSnapshots) != 1 || p.RefusedSnapshots[0] != 3 {
		t.Errorf("persist stats after restart = %+v, want 3 records in 1 run and refused snapshot [3]", p)
	}
	if st.Rows != 3 || st.Generation != 3 {
		t.Errorf("restarted server at %d rows, generation %d, want 3 and 3", st.Rows, st.Generation)
	}
}

// TestMutationStatus pins the durable-failure status mapping: store
// infrastructure errors are 503 (retryable, server's fault); anything
// else keeps the handler's client-fault status.
func TestMutationStatus(t *testing.T) {
	walFail := fmt.Errorf("append: %w", persist.ErrUnavailable)
	if got := mutationStatus(walFail, http.StatusBadRequest); got != http.StatusServiceUnavailable {
		t.Errorf("WAL failure on append → %d, want 503", got)
	}
	if got := mutationStatus(walFail, http.StatusConflict); got != http.StatusServiceUnavailable {
		t.Errorf("WAL failure on delete → %d, want 503", got)
	}
	plain := fmt.Errorf("engine: cannot delete")
	if got := mutationStatus(plain, http.StatusConflict); got != http.StatusConflict {
		t.Errorf("client fault → %d, want 409", got)
	}
}

// ---------------------------------------------------------------------
// Kill-and-restart harness: the acceptance check that a covserve
// process SIGKILLed mid-workload comes back answering /coverage and
// /mups exactly as an in-process shadow engine that lived through the
// same acknowledged mutations.

var (
	covserveBinOnce sync.Once
	covserveBinDir  string
	covserveBin     string
	covserveBinErr  error
)

// TestMain removes the directory buildCovserveBinary built the covserve
// binary in, whether the build succeeded or failed.
func TestMain(m *testing.M) {
	code := m.Run()
	if covserveBinDir != "" {
		os.RemoveAll(covserveBinDir)
	}
	os.Exit(code)
}

// buildCovserveBinary compiles the covserve command once per test run
// into a temporary directory that TestMain removes.
func buildCovserveBinary(t *testing.T) string {
	t.Helper()
	covserveBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "covserve-harness-*")
		if err != nil {
			covserveBinErr = err
			return
		}
		covserveBinDir = dir
		bin := filepath.Join(dir, "covserve")
		cmd := exec.Command("go", "build", "-o", bin, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			covserveBinErr = fmt.Errorf("building covserve: %v\n%s", err, out)
			return
		}
		covserveBin = bin
	})
	if covserveBinErr != nil {
		t.Fatal(covserveBinErr)
	}
	return covserveBin
}

// harnessCSV writes the workload dataset: 3 attributes, 120 rows,
// deterministic. Labels sort alphabetically, so label order here is
// code order in both the server and the shadow.
func harnessCSV(t *testing.T, dir string) string {
	t.Helper()
	sexes := []string{"female", "male"}
	races := []string{"black", "other", "white"}
	ages := []string{"a25", "b45", "c65", "d99"}
	rng := rand.New(rand.NewSource(9001))
	var sb strings.Builder
	sb.WriteString("sex,race,age\n")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&sb, "%s,%s,%s\n", sexes[rng.Intn(2)], races[rng.Intn(3)], ages[rng.Intn(4)])
	}
	path := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// covserveProc is one running covserve subprocess.
type covserveProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// awaitListening starts the prepared covserve command and waits for
// its "listening on" line.
func awaitListening(t *testing.T, cmd *exec.Cmd, what string) *covserveProc {
	t.Helper()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &covserveProc{cmd: cmd, base: "http://" + addr}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("%s did not report a listening address within 15s", what)
		return nil
	}
}

// startCovserve launches the binary against the data dir.
// -wal-sync=false: SIGKILL only tests process death, and every record
// is written to the kernel before the mutation is acknowledged.
func startCovserve(t *testing.T, bin, csv, dataDir string) *covserveProc {
	t.Helper()
	return awaitListening(t, exec.Command(bin,
		"-csv", csv,
		"-data-dir", dataDir,
		"-addr", "127.0.0.1:0",
		"-wal-sync=false",
		"-snapshot-interval", "0",
	), "covserve")
}

// startCovserveSync is startCovserve with real fsyncs: acknowledgments
// only after the group commit is durable on disk.
func startCovserveSync(t *testing.T, bin, csv, dataDir string) *covserveProc {
	t.Helper()
	return awaitListening(t, exec.Command(bin,
		"-csv", csv,
		"-data-dir", dataDir,
		"-addr", "127.0.0.1:0",
		"-wal-sync=true",
		"-snapshot-interval", "0",
	), "covserve")
}

func (p *covserveProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// harnessClient wraps the tiny HTTP surface the harness needs.
type harnessClient struct {
	base string
	hc   *http.Client
}

func newHarnessClient(base string) *harnessClient {
	return &harnessClient{base: base, hc: &http.Client{Timeout: 10 * time.Second}}
}

func (c *harnessClient) postJSON(path string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, raw)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

func (c *harnessClient) getJSON(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

// harnessOp is one mutation in a schedule.
type harnessOp struct {
	kind    string // "append", "delete", "window", "snapshot"
	rows    [][]uint8
	maxRows int
}

// applyToShadow replays an acknowledged (or resolved-as-applied) op
// onto the shadow analyzer.
func (op harnessOp) applyToShadow(t *testing.T, shadow *coverage.Analyzer) {
	t.Helper()
	var err error
	switch op.kind {
	case "append":
		err = shadow.Append(op.rows)
	case "delete":
		err = shadow.Delete(op.rows)
	case "window":
		shadow.SetWindow(op.maxRows)
	case "snapshot":
		// server-side only
	}
	if err != nil {
		t.Fatalf("shadow diverged applying %s: %v", op.kind, err)
	}
}

// isMutation reports whether the op advances the engine generation by
// exactly one (the property the ambiguity resolution relies on). A
// window op is one: SetWindow advances the generation whether or not
// it evicts, even when it sets the bound already in force.
func (op harnessOp) isMutation() bool { return op.kind != "snapshot" }

// randomOp draws the next op against the shadow's current state.
func randomOp(rng *rand.Rand, shadow *coverage.Analyzer, cards []int) harnessOp {
	switch r := rng.Intn(20); {
	case r < 11:
		n := 1 + rng.Intn(5)
		rows := make([][]uint8, n)
		for i := range rows {
			row := make([]uint8, len(cards))
			for j, c := range cards {
				row[j] = uint8(rng.Intn(c))
			}
			rows[i] = row
		}
		return harnessOp{kind: "append", rows: rows}
	case r < 16:
		// Delete rows the shadow proves are present (the durable side
		// is in the same state, so it must accept them too).
		var rows [][]uint8
		want := 1 + rng.Intn(3)
		for attempts := 0; len(rows) < want && attempts < 40; attempts++ {
			row := make([]uint8, len(cards))
			for j, c := range cards {
				row[j] = uint8(rng.Intn(c))
			}
			cov, err := shadow.Coverage(coverage.Pattern(row))
			if err != nil {
				continue
			}
			pending := int64(0)
			for _, r := range rows {
				if string(r) == string(row) {
					pending++
				}
			}
			if pending < cov {
				rows = append(rows, row)
			}
		}
		if len(rows) == 0 {
			return harnessOp{kind: "append", rows: [][]uint8{{0, 0, 0}}}
		}
		return harnessOp{kind: "delete", rows: rows}
	case r < 18:
		n := 0
		if rng.Intn(4) > 0 {
			n = 20 + rng.Intn(150)
		}
		return harnessOp{kind: "window", maxRows: n}
	default:
		return harnessOp{kind: "snapshot"}
	}
}

// sendOp issues the op against the server. For snapshot ops, skipped
// reports whether the server declined because nothing mutated since
// the last one.
func sendOp(c *harnessClient, op harnessOp) (skipped bool, err error) {
	switch op.kind {
	case "append":
		return false, c.postJSON("/append", map[string]any{"codes": op.rows}, nil)
	case "delete":
		return false, c.postJSON("/delete", map[string]any{"codes": op.rows}, nil)
	case "window":
		return false, c.postJSON("/window", map[string]any{"max_rows": op.maxRows}, nil)
	case "snapshot":
		var resp snapshotResponse
		if err := c.postJSON("/snapshot", struct{}{}, &resp); err != nil {
			return false, err
		}
		return resp.Skipped, nil
	}
	return false, fmt.Errorf("unknown op %q", op.kind)
}

// verifyAgainstShadow compares /coverage over a pattern sample and
// /mups at two thresholds between the server and the shadow.
func verifyAgainstShadow(t *testing.T, c *harnessClient, shadow *coverage.Analyzer, rng *rand.Rand, cards []int) {
	t.Helper()
	patterns := []string{}
	sample := make([]coverage.Pattern, 0, 24)
	for i := 0; i < 24; i++ {
		p := make(coverage.Pattern, len(cards))
		for j, card := range cards {
			if rng.Intn(2) == 0 {
				p[j] = coverage.Wildcard
			} else {
				p[j] = uint8(rng.Intn(card))
			}
		}
		sample = append(sample, p)
		patterns = append(patterns, p.String())
	}
	var covResp coverageResponse
	if err := c.postJSON("/coverage", map[string]any{"patterns": patterns}, &covResp); err != nil {
		t.Fatal(err)
	}
	for i, p := range sample {
		want, err := shadow.Coverage(p)
		if err != nil {
			t.Fatal(err)
		}
		if covResp.Results[i].Coverage != want {
			t.Fatalf("cov(%s): server %d, shadow %d", p, covResp.Results[i].Coverage, want)
		}
	}
	if covResp.Rows != shadow.NumRows() {
		t.Fatalf("rows: server %d, shadow %d", covResp.Rows, shadow.NumRows())
	}
	for _, tau := range []int64{1, 3} {
		var mupResp mupsResponse
		if err := c.getJSON(fmt.Sprintf("/mups?tau=%d", tau), &mupResp); err != nil {
			t.Fatal(err)
		}
		rep, err := shadow.FindMUPs(coverage.FindOptions{Threshold: tau})
		if err != nil {
			t.Fatal(err)
		}
		if len(mupResp.MUPs) != len(rep.MUPs) {
			t.Fatalf("τ=%d: server reports %d MUPs, shadow %d\nserver: %+v\nshadow: %v",
				tau, len(mupResp.MUPs), len(rep.MUPs), mupResp.MUPs, rep.MUPs)
		}
		got := make(map[string]bool, len(mupResp.MUPs))
		for _, m := range mupResp.MUPs {
			got[m.Pattern] = true
		}
		for _, p := range rep.MUPs {
			if !got[p.String()] {
				t.Fatalf("τ=%d: shadow MUP %v missing from server response %+v", tau, p, mupResp.MUPs)
			}
		}
	}
}

// startCovserveFollower launches the binary as a read replica of the
// leader at leaderBase. The tail loop long-polls, so a commit reaches
// it within one round trip.
func startCovserveFollower(t *testing.T, bin, dataDir, leaderBase string) *covserveProc {
	t.Helper()
	return awaitListening(t, exec.Command(bin,
		"-follow", leaderBase,
		"-data-dir", dataDir,
		"-addr", "127.0.0.1:0",
		"-wal-sync=false",
		"-snapshot-interval", "0",
	), "covserve follower")
}

// waitForCatchup polls the replica's /stats until its generation
// reaches want.
func waitForCatchup(t *testing.T, c *harnessClient, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st statsResponse
		err := c.getJSON("/stats", &st)
		if err == nil && st.Generation >= want {
			if st.Generation > want {
				t.Fatalf("replica at generation %d, past the leader's %d", st.Generation, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached generation %d (last: %+v, err=%v)", want, st, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFollowerCrashHarness SIGKILLs a tailing read replica
// mid-workload and requires the restarted replica — recovering from
// its own data dir, then resuming the tail — to answer /coverage and
// /mups exactly as the shadow that lived through every leader-side
// mutation.
func TestFollowerCrashHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness skipped in -short mode")
	}
	bin := buildCovserveBinary(t)
	csv := harnessCSV(t, t.TempDir())
	f, err := os.Open(csv)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := coverage.ReadCSV(f, coverage.CSVOptions{})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	const schedules = 3
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("schedule%02d", sched), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(sched)*31337 + 5))
			base := t.TempDir()
			shadow := coverage.NewAnalyzer(ds.Clone())
			cards := ds.Cards()

			leader := startCovserve(t, bin, csv, filepath.Join(base, "leader"))
			defer leader.kill()
			lc := newHarnessClient(leader.base)

			folDir := filepath.Join(base, "follower")
			fol := startCovserveFollower(t, bin, folDir, leader.base)
			defer fol.kill()
			fc := newHarnessClient(fol.base)

			// Phase 1: mutate the leader while the replica tails live.
			for i := 0; i < 10+rng.Intn(6); i++ {
				op := randomOp(rng, shadow, cards)
				if _, err := sendOp(lc, op); err != nil {
					t.Fatalf("leader op %d (%s): %v", i, op.kind, err)
				}
				op.applyToShadow(t, shadow)
			}
			waitForCatchup(t, fc, shadow.Engine().Generation())
			verifyAgainstShadow(t, fc, shadow, rng, cards)

			// The replica refuses writes with a leader redirect.
			resp, err := http.Post(fol.base+"/append", "application/json",
				strings.NewReader(`{"codes": [[0, 0, 0]]}`))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusForbidden {
				t.Fatalf("replica accepted a write: status %d", resp.StatusCode)
			}
			if loc := resp.Header.Get("Location"); loc != leader.base+"/append" {
				t.Fatalf("replica redirect Location = %q, want %q", loc, leader.base+"/append")
			}

			// Phase 2: SIGKILL the replica, keep mutating the leader.
			fol.kill()
			for i := 0; i < 6+rng.Intn(6); i++ {
				op := randomOp(rng, shadow, cards)
				if _, err := sendOp(lc, op); err != nil {
					t.Fatalf("leader op after replica death (%s): %v", op.kind, err)
				}
				op.applyToShadow(t, shadow)
			}

			// Phase 3: the restarted replica recovers locally and tails
			// the gap (resyncing from the chain if a leader snapshot
			// pruned past its position).
			fol2 := startCovserveFollower(t, bin, folDir, leader.base)
			defer fol2.kill()
			fc2 := newHarnessClient(fol2.base)
			waitForCatchup(t, fc2, shadow.Engine().Generation())
			verifyAgainstShadow(t, fc2, shadow, rng, cards)

			var st statsResponse
			if err := fc2.getJSON("/stats", &st); err != nil {
				t.Fatal(err)
			}
			if st.Replica == nil {
				t.Fatal("restarted replica /stats lacks the replica section")
			}
			if st.Replica.Leader != leader.base || st.Replica.GenerationLag != 0 {
				t.Errorf("replica stats = %+v", st.Replica)
			}
		})
	}
}

// TestFollowerPromotion kills the leader and restarts the replica's
// data dir as a plain durable covserve — the promoted process must
// hold the full replicated state and accept writes.
func TestFollowerPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness skipped in -short mode")
	}
	bin := buildCovserveBinary(t)
	csv := harnessCSV(t, t.TempDir())
	f, err := os.Open(csv)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := coverage.ReadCSV(f, coverage.CSVOptions{})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	const schedules = 3
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("schedule%02d", sched), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(sched)*86243 + 11))
			base := t.TempDir()
			shadow := coverage.NewAnalyzer(ds.Clone())
			cards := ds.Cards()

			leader := startCovserve(t, bin, csv, filepath.Join(base, "leader"))
			defer leader.kill()
			lc := newHarnessClient(leader.base)

			folDir := filepath.Join(base, "follower")
			fol := startCovserveFollower(t, bin, folDir, leader.base)
			defer fol.kill()
			fc := newHarnessClient(fol.base)

			for i := 0; i < 12+rng.Intn(8); i++ {
				op := randomOp(rng, shadow, cards)
				if _, err := sendOp(lc, op); err != nil {
					t.Fatalf("leader op %d (%s): %v", i, op.kind, err)
				}
				op.applyToShadow(t, shadow)
			}
			waitForCatchup(t, fc, shadow.Engine().Generation())

			// The leader dies; the replica is stopped and its data dir
			// is promoted to a plain durable covserve.
			leader.kill()
			fol.kill()
			promoted := startCovserve(t, bin, csv, folDir)
			defer promoted.kill()
			pc := newHarnessClient(promoted.base)

			verifyAgainstShadow(t, pc, shadow, rng, cards)

			// The promoted process is a leader: it accepts writes.
			for i := 0; i < 5; i++ {
				op := randomOp(rng, shadow, cards)
				if _, err := sendOp(pc, op); err != nil {
					t.Fatalf("promoted op %d (%s): %v", i, op.kind, err)
				}
				op.applyToShadow(t, shadow)
			}
			verifyAgainstShadow(t, pc, shadow, rng, cards)
		})
	}
}

// TestCrashRecoveryHarness is the acceptance harness: ≥20 randomized
// mutation schedules, each SIGKILLing covserve mid-workload and
// requiring the restarted process to answer /coverage and /mups
// identically to the shadow engine that lived through the same
// acknowledged mutations. Schedules that snapshot mid-flight also
// assert the restart replayed only the WAL tail.
func TestCrashRecoveryHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness skipped in -short mode")
	}
	bin := buildCovserveBinary(t)
	csv := harnessCSV(t, t.TempDir())

	// The shadow template: the same CSV the server loads.
	f, err := os.Open(csv)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := coverage.ReadCSV(f, coverage.CSVOptions{})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	const schedules = 20
	for sched := 0; sched < schedules; sched++ {
		sched := sched
		t.Run(fmt.Sprintf("schedule%02d", sched), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(sched)*104729 + 7))
			dataDir := filepath.Join(t.TempDir(), "state")
			shadow := coverage.NewAnalyzer(ds.Clone())
			cards := ds.Cards()

			proc := startCovserve(t, bin, csv, dataDir)
			defer proc.kill()
			client := newHarnessClient(proc.base)

			nOps := 25 + rng.Intn(15)
			killAt := 5 + rng.Intn(nOps-8)
			var pending *harnessOp // the op in flight when the process died
			killed := false
			ackedSinceSnapshot := 0
			snapshotTaken := false

			for i := 0; i < nOps; i++ {
				op := randomOp(rng, shadow, cards)
				if i == killAt {
					// Race the kill against this op: depending on
					// timing it lands before, during or after the
					// request — exactly the mid-workload crash. The
					// delay is drawn before the goroutine starts so the
					// schedule's rng stays single-threaded.
					delay := time.Duration(rng.Intn(12)) * time.Millisecond
					go func() {
						time.Sleep(delay)
						proc.cmd.Process.Kill()
					}()
				}
				skipped, err := sendOp(client, op)
				if err != nil {
					if i < killAt {
						t.Fatalf("op %d (%s) failed before the kill: %v", i, op.kind, err)
					}
					pending = &op
					killed = true
					break
				}
				op.applyToShadow(t, shadow)
				if op.kind != "snapshot" {
					// Every acknowledged append/delete/window op is one
					// WAL record the next restart may have to replay.
					ackedSinceSnapshot++
				} else if !skipped {
					snapshotTaken = true
					ackedSinceSnapshot = 0
				}
			}
			proc.cmd.Wait()
			if !killed {
				// Every op was acknowledged before the kill landed;
				// finish the crash with the process down.
				proc.kill()
			}

			// Restart on the same data dir and resolve the in-flight
			// op: an append, delete or window op landed iff the
			// generation advanced past the shadow's. A window op to
			// the bound already in force leaves /window unchanged, so
			// the generation is the only evidence that it landed.
			proc2 := startCovserve(t, bin, csv, dataDir)
			defer proc2.kill()
			client2 := newHarnessClient(proc2.base)

			var st statsResponse
			if err := client2.getJSON("/stats", &st); err != nil {
				t.Fatal(err)
			}
			if st.Persist == nil {
				t.Fatal("restarted covserve reports no persist stats")
			}
			shadowGen := shadow.Engine().Generation()
			if pending != nil && pending.isMutation() {
				switch st.Generation {
				case shadowGen:
					// did not land
				case shadowGen + 1:
					pending.applyToShadow(t, shadow)
				default:
					t.Fatalf("generation %d after crash, shadow at %d: more than the in-flight op diverged", st.Generation, shadowGen)
				}
			}
			if g := shadow.Engine().Generation(); st.Generation != g {
				t.Fatalf("restarted generation %d, shadow %d", st.Generation, g)
			}
			var win windowResponse
			if err := client2.getJSON("/window", &win); err != nil {
				t.Fatal(err)
			}
			if win.MaxRows != shadow.Window() {
				t.Fatalf("window %d after crash, shadow has %d", win.MaxRows, shadow.Window())
			}

			// Warm restart: with a mid-schedule snapshot, the replay
			// must cover only the tail written after it (+1 for a
			// possibly-landed in-flight mutation).
			if snapshotTaken && int(st.Persist.ReplayedWALRecords) > ackedSinceSnapshot+1 {
				t.Errorf("replayed %d WAL records, want ≤ %d (tail after the last snapshot)",
					st.Persist.ReplayedWALRecords, ackedSinceSnapshot+1)
			}
			if st.Persist.RecoveredSnapshotGeneration == 0 && snapshotTaken {
				t.Error("restart did not recover from the mid-schedule snapshot")
			}

			verifyAgainstShadow(t, client2, shadow, rng, cards)

			// The restarted server keeps serving mutations durably: a
			// few more acknowledged ops, then a clean equivalence pass.
			for i := 0; i < 5; i++ {
				op := randomOp(rng, shadow, cards)
				if _, err := sendOp(client2, op); err != nil {
					t.Fatalf("post-restart op %d (%s): %v", i, op.kind, err)
				}
				op.applyToShadow(t, shadow)
			}
			verifyAgainstShadow(t, client2, shadow, rng, cards)
		})
	}
}

// TestGroupCommitCrashHarness hammers a fsyncing covserve with
// concurrent appenders, SIGKILLs it mid-flight, and requires the
// restarted process to serve every row whose append was acknowledged:
// group commit may share fsyncs, but an ack must still mean durable.
func TestGroupCommitCrashHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness skipped in -short mode")
	}
	bin := buildCovserveBinary(t)
	csv := harnessCSV(t, t.TempDir())
	f, err := os.Open(csv)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := coverage.ReadCSV(f, coverage.CSVOptions{})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Each writer appends its own code combo, so per-writer ack counts
	// translate directly into exact-pattern coverage floors after the
	// restart. With cards 2/3/4, (w mod 2, w mod 3, w mod 4) is
	// distinct for all six writers.
	const writers = 6
	cards := ds.Cards()
	combos := make([][]uint8, writers)
	base := make([]int64, writers)
	shadow := coverage.NewAnalyzer(ds.Clone())
	for w := range combos {
		combos[w] = []uint8{uint8(w % cards[0]), uint8(w % cards[1]), uint8(w % cards[2])}
		if base[w], err = shadow.Coverage(coverage.Pattern(combos[w])); err != nil {
			t.Fatal(err)
		}
	}

	dataDir := filepath.Join(t.TempDir(), "state")
	proc := startCovserveSync(t, bin, csv, dataDir)
	defer proc.kill()

	var acked [writers]int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newHarnessClient(proc.base)
			for {
				if err := c.postJSON("/append", map[string]any{"codes": [][]uint8{combos[w]}}, nil); err != nil {
					return // the kill landed
				}
				atomic.AddInt64(&acked[w], 1)
			}
		}()
	}

	// Let the writers race until the pipeline has committed several
	// groups and acknowledged a real workload, then SIGKILL mid-flight.
	sc := newHarnessClient(proc.base)
	deadline := time.Now().Add(30 * time.Second)
	var grouped, groupedRecords int64
	for time.Now().Before(deadline) {
		var st statsResponse
		if err := sc.getJSON("/stats", &st); err == nil && st.Persist != nil {
			grouped = st.Persist.WALGroupCommits
			groupedRecords = st.Persist.WALGroupRecords
			var total int64
			for w := range acked {
				total += atomic.LoadInt64(&acked[w])
			}
			if grouped >= 3 && total >= 30 {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	proc.cmd.Process.Kill()
	wg.Wait()
	proc.cmd.Wait()
	if grouped == 0 {
		t.Fatal("no group commits observed before the kill")
	}
	t.Logf("pre-kill: %d records over %d group commits, acked %v", groupedRecords, grouped, acked)

	// Restart on the same data dir: every acknowledged row must be
	// served. Coverage may exceed the floor (rows whose ack was lost
	// to the kill may still have committed) but never undershoot it.
	proc2 := startCovserve(t, bin, csv, dataDir)
	defer proc2.kill()
	patterns := make([]string, writers)
	for w := range combos {
		patterns[w] = coverage.Pattern(combos[w]).String()
	}
	var covResp coverageResponse
	if err := newHarnessClient(proc2.base).postJSON("/coverage", map[string]any{"patterns": patterns}, &covResp); err != nil {
		t.Fatal(err)
	}
	for w := range combos {
		want := base[w] + atomic.LoadInt64(&acked[w])
		if got := covResp.Results[w].Coverage; got < want {
			t.Errorf("combo %v: restarted coverage %d < %d acked (group commit acked a row the restart cannot serve)",
				combos[w], got, want)
		}
	}
}
