package persist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"coverage/internal/pattern"
)

// TestGroupCommitConcurrentAppends hammers the pipeline from many
// goroutines and checks that every acknowledged row survives a
// recovery — group commit must not weaken the ack-means-durable
// contract the single-record path had.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)

	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				row := []uint8{uint8(w % 2), uint8(i % 3), uint8((w + i) % 4)}
				if err := s.Append([][]uint8{row}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	st := s.Stats()
	if st.WALGroupCommits <= 0 || st.WALGroupRecords <= 0 {
		t.Fatalf("pipeline counters not advancing: %+v", st)
	}
	if st.WALGroupRecords < st.WALGroupCommits {
		t.Fatalf("group records %d < group commits %d", st.WALGroupRecords, st.WALGroupCommits)
	}
	if st.DurableGeneration != eng.Generation() {
		t.Fatalf("durable generation %d, engine at %d", st.DurableGeneration, eng.Generation())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng2, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertEquivalent(t, eng, eng2)
}

// TestGroupCommitPerRequestErrors drives commitGroup directly with a
// mixed batch: a request the engine rejects must hear its own error
// while its groupmates, appends on either side of it, commit.
func TestGroupCommitPerRequestErrors(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	defer s.Close()
	base := eng.Generation()

	mk := func(op byte, rows [][]uint8) *commitReq {
		return &commitReq{op: op, rows: rows, errc: make(chan error, 1)}
	}
	good1 := mk(opAppend, [][]uint8{{0, 0, 0}})
	bad := mk(opAppend, [][]uint8{{0, 0}}) // wrong width: engine rejects
	good2 := mk(opAppend, [][]uint8{{1, 1, 1}})
	s.commitGroup([]*commitReq{good1, bad, good2})

	if err := <-good1.errc; err != nil {
		t.Fatalf("good1: %v", err)
	}
	if err := <-bad.errc; err == nil {
		t.Fatal("bad request acknowledged")
	}
	if err := <-good2.errc; err != nil {
		t.Fatalf("good2: %v", err)
	}
	if got := eng.Generation(); got != base+2 {
		t.Fatalf("generation %d, want %d (two applied mutations)", got, base+2)
	}
	// The store must stay healthy: the rejection left no record and no
	// broken state.
	if err := s.Append([][]uint8{{1, 2, 3}}); err != nil {
		t.Fatalf("append after rejection: %v", err)
	}
}

// TestGroupCommitOneRecordPerRequest pins the log shape: every request
// in a group is applied and logged as its own record, at its own
// generation and holding only its own rows, in arrival order — and the
// group still costs one write.
func TestGroupCommitOneRecordPerRequest(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	defer s.Close()
	base := eng.Generation()
	commits := s.Stats().WALGroupCommits

	mk := func(op byte, rows [][]uint8, maxRows int) *commitReq {
		return &commitReq{op: op, rows: rows, maxRows: maxRows, errc: make(chan error, 1)}
	}
	group := []*commitReq{
		mk(opAppend, [][]uint8{{0, 0, 0}}, 0),
		mk(opAppend, [][]uint8{{1, 1, 1}, {1, 2, 3}}, 0),
		mk(opWindow, nil, 500),
		mk(opAppend, [][]uint8{{0, 2, 2}}, 0),
	}
	s.commitGroup(group)
	for _, req := range group {
		if err := <-req.errc; err != nil {
			t.Fatal(err)
		}
	}

	if got := eng.Generation(); got != base+4 {
		t.Fatalf("generation %d, want %d", got, base+4)
	}
	st := s.Stats()
	if st.WALGroupCommits != commits+1 || st.CoalescedAppends != 0 {
		t.Fatalf("%d group commits, %d coalesced appends; want 1 and 0", st.WALGroupCommits-commits, st.CoalescedAppends)
	}
	data, _, err := s.WALSince(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, complete := feedRecords(data, 3)
	if !complete || len(recs) != len(group) {
		t.Fatalf("%d records (complete=%v), want %d", len(recs), complete, len(group))
	}
	for i, rec := range recs {
		req := group[i]
		if rec.op != req.op || rec.gen != base+uint64(i)+1 || rec.maxRows != req.maxRows {
			t.Fatalf("record %d: op %d gen %d window %d, want op %d gen %d window %d",
				i, rec.op, rec.gen, rec.maxRows, req.op, base+uint64(i)+1, req.maxRows)
		}
		if want := slices.Concat(req.rows...); string(rec.rows) != string(want) {
			t.Fatalf("record %d holds rows %v, want %v", i, rec.rows, want)
		}
	}
}

// TestEmptyMutationsNotLogged: an append or delete with no rows
// changes nothing, so it writes no record, makes no group commit and
// leaves the generation where it was.
func TestEmptyMutationsNotLogged(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	defer s.Close()
	if err := s.Append([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	before, gen := s.Stats(), eng.Generation()
	if err := s.Append(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([][]uint8{}); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.WALRecords != before.WALRecords || after.WALGroupCommits != before.WALGroupCommits ||
		after.WALBytes != before.WALBytes || eng.Generation() != gen {
		t.Fatalf("empty mutations moved the log: %d → %d records, %d → %d group commits, %d → %d bytes, generation %d → %d",
			before.WALRecords, after.WALRecords, before.WALGroupCommits, after.WALGroupCommits,
			before.WALBytes, after.WALBytes, gen, eng.Generation())
	}
}

// TestGroupCommitBrokenStore checks the sticky fail-stop survives the
// pipeline: a WAL write failure after the engine applied must refuse
// every later mutation until a full snapshot re-roots durability.
func TestGroupCommitBrokenStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)
	defer s.Close()

	if err := s.Append([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.wal.f.Close() // sabotage the segment handle
	s.mu.Unlock()
	err := s.Append([][]uint8{{1, 1, 1}})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append on sabotaged WAL: %v", err)
	}
	if err := s.Append([][]uint8{{1, 2, 3}}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("store not fail-stopped: %v", err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([][]uint8{{1, 2, 3}}); err != nil {
		t.Fatalf("append after rescue snapshot: %v", err)
	}
}

// TestAwaitGeneration pins the hub's wake semantics: a commit wakes
// exactly the waiters at or behind the new durable generation, a
// timeout returns promptly, and cancellation frees the parked waiter.
func TestAwaitGeneration(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	defer s.Close()
	// Seed one commit so base ≥ 1 and "a generation behind base" exists.
	if err := s.Append([][]uint8{{1, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	base := eng.Generation()

	// Timeout path: no commit arrives, the waiter returns promptly.
	start := time.Now()
	if gen := s.AwaitGeneration(context.Background(), base, 30*time.Millisecond); gen != base {
		t.Fatalf("timeout wait returned gen %d, want %d", gen, base)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout wait blocked %v", elapsed)
	}

	// A waiter behind the watermark returns immediately.
	if gen := s.AwaitGeneration(context.Background(), base-1, time.Hour); gen != base {
		t.Fatalf("satisfied wait returned %d, want %d", gen, base)
	}

	// Two parked waiters: one at the current generation, one a commit
	// ahead. The first commit must wake exactly the first.
	atCh := make(chan uint64, 1)
	aheadCh := make(chan uint64, 1)
	go func() { atCh <- s.AwaitGeneration(context.Background(), base, 10*time.Second) }()
	go func() { aheadCh <- s.AwaitGeneration(context.Background(), base+1, 10*time.Second) }()
	waitForWaiters(t, s, 2)

	if err := s.Append([][]uint8{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case gen := <-atCh:
		if gen != base+1 {
			t.Fatalf("woken waiter saw gen %d, want %d", gen, base+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit did not wake the waiter behind it")
	}
	select {
	case gen := <-aheadCh:
		t.Fatalf("waiter ahead of the commit woke with gen %d", gen)
	case <-time.After(50 * time.Millisecond):
	}
	waitForWaiters(t, s, 1)

	// The second commit reaches it.
	if err := s.Append([][]uint8{{1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case gen := <-aheadCh:
		if gen != base+2 {
			t.Fatalf("second waiter saw gen %d, want %d", gen, base+2)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second commit did not wake the remaining waiter")
	}

	// Cancellation frees a parked waiter without a commit.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.AwaitGeneration(ctx, base+2, 10*time.Second); close(done) }()
	waitForWaiters(t, s, 1)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not free the waiter")
	}
	waitForWaiters(t, s, 0)
}

// waitForWaiters polls the FeedWaiters gauge until it reaches n.
func waitForWaiters(t *testing.T, s *Store, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().FeedWaiters == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("feed waiters never reached %d (now %d)", n, s.Stats().FeedWaiters)
}

// TestAppendBurstPipelines: a burst of concurrent Append calls, most
// of which queue behind the group in flight and are handed on from
// leader to leader, all acknowledge durably and in a replayable order.
func TestAppendBurstPipelines(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)

	const n = 40
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Append([][]uint8{{uint8(i % 2), uint8(i % 3), uint8(i % 4)}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng2, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertEquivalent(t, eng, eng2)
}

// TestStoreStartsNoGoroutine: group commit is led by the writers, so
// Attach and Recover leave nothing running — the goroutine count does
// not grow past its count before Attach, after a commit, after Close,
// or across a Recover and a commit on the recovered store.
func TestStoreStartsNoGoroutine(t *testing.T) {
	dir := t.TempDir()
	// Let goroutines an earlier test left winding down finish first.
	before := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	// A goroutine a finished call started (a fan-out worker, or one the
	// runtime or an earlier test owns) may not have exited yet when the
	// call returns, so each check waits up to a second for the count to
	// settle at or below before; one that stays above fails.
	check := func(stage string) {
		t.Helper()
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > before && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Fatalf("%s: %d goroutines, %d before Attach", stage, n, before)
		}
	}
	s, _ := attachFresh(t, dir)
	check("after Attach")
	if err := s.Append([][]uint8{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	check("after Append")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")

	s2 := openStore(t, dir)
	if _, _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	check("after Recover")
	if err := s2.Delete([][]uint8{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	check("after Delete")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	check("after the second Close")
}

// TestHandoffUnderClose races eight writers — appends, deletes, window
// changes, and batches the engine refuses — against Close. Every
// mutation acknowledged nil is in the recovered log (and nothing else
// is); a refused batch fails only its own sender; a mutation that
// loses the race to Close hears ErrUnavailable and leaves no trace.
func TestHandoffUnderClose(t *testing.T) {
	dir := t.TempDir()
	s, eng := attachFresh(t, dir)
	// Enough of every combination that no delete runs out of rows.
	cards := eng.Cards()
	var preload [][]uint8
	for _, p := range allPatterns(cards) {
		if slices.Contains(p, pattern.Wildcard) {
			continue
		}
		for range 200 {
			preload = append(preload, []uint8(p.Clone()))
		}
	}
	if err := s.Append(preload); err != nil {
		t.Fatal(err)
	}
	base := eng.Generation()

	const writers = 8
	type acked struct {
		op      byte
		rows    [][]uint8
		maxRows int
	}
	logs := make([][]acked, writers)
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range 100000 { // bounded, should Close never refuse
				req := acked{op: opAppend, rows: randomBatch(rng, cards, 1+rng.Intn(3))}
				var err error
				switch k := rng.Intn(10); {
				case k == 0:
					// The engine refuses a row of the wrong width: only
					// this sender may hear about it.
					err = s.Append([][]uint8{{0, 0}})
					if err == nil {
						errs <- fmt.Errorf("writer %d: a malformed batch was acknowledged", w)
						return
					}
					if errors.Is(err, ErrUnavailable) {
						return // closed
					}
					continue
				case k == 1:
					req = acked{op: opWindow, maxRows: []int{0, 50000}[rng.Intn(2)]}
					err = s.SetWindow(req.maxRows)
				case k < 5:
					req.op = opDelete
					err = s.Delete(req.rows)
				default:
					err = s.Append(req.rows)
				}
				if errors.Is(err, ErrUnavailable) {
					return // closed
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d: a well-formed mutation was refused: %w", w, err)
					return
				}
				logs[w] = append(logs[w], req)
			}
		}(w)
	}
	// Close once the writers are well into their hand-offs.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().WALGroupCommits < 100 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	s2 := openStore(t, dir)
	eng2, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertEquivalent(t, eng, eng2)

	// The log past the preload holds exactly the acknowledged
	// mutations: the same rows appended and deleted, the same number of
	// window changes.
	data, _, err := s2.WALSince(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, complete := feedRecords(data, len(cards))
	if !complete {
		t.Fatal("torn log after a clean Close")
	}
	tally := func(op byte, rows []uint8, sign int, into map[string]int) {
		for r := range slices.Chunk(rows, len(cards)) {
			into[string([]byte{op})+string(r)] += sign
		}
	}
	diff := map[string]int{}
	windows, nacked := 0, 0
	for _, log := range logs {
		for _, m := range log {
			tally(m.op, slices.Concat(m.rows...), 1, diff)
			if m.op == opWindow {
				windows++
			}
			nacked++
		}
	}
	for _, rec := range recs {
		tally(rec.op, rec.rows, -1, diff)
		if rec.op == opWindow {
			windows--
		}
	}
	if len(recs) != nacked {
		t.Fatalf("%d records for %d acknowledged mutations, want one each", len(recs), nacked)
	}
	for k, v := range diff {
		if v != 0 {
			t.Fatalf("op %d row %v: %+d acknowledged rows the log does not hold", k[0], []byte(k[1:]), v)
		}
	}
	if windows != 0 {
		t.Fatalf("%+d acknowledged window changes the log does not hold", windows)
	}
	if len(recs) == 0 {
		t.Fatal("no mutation committed before Close")
	}
	st := s.Stats()
	t.Logf("%d records in %d groups", len(recs), st.WALGroupCommits)
}

// TestCloseDrainsPipeline: mutations in flight when Close lands either
// commit durably (ack nil, row recoverable) or are refused — never
// acknowledged and lost.
func TestCloseDrainsPipeline(t *testing.T) {
	dir := t.TempDir()
	s, _ := attachFresh(t, dir)

	const n = 24
	type outcome struct {
		row []uint8
		err error
	}
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := []uint8{uint8(i % 2), uint8(i % 3), uint8(i % 4)}
			results <- outcome{row: row, err: s.Append([][]uint8{row})}
		}(i)
	}
	time.Sleep(time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)

	var acked int
	for r := range results {
		if r.err == nil {
			acked++
		} else if !errors.Is(r.err, ErrUnavailable) {
			t.Fatalf("unexpected error shape: %v", r.err)
		}
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng2, _, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if total := eng2.Stats().Rows; total < int64(acked) {
		t.Fatalf("recovered %d rows, but %d appends were acknowledged", total, acked)
	}
}
