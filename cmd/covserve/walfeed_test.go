package main

import (
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"coverage/internal/persist"
)

// feedGet issues one GET /wal against a live leader and returns the
// status, body and response headers.
func feedGet(t *testing.T, url string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// feedGens walks the frames of a /wal body — length uint32le, CRC
// uint32le, then a payload of op byte and uvarint generation — and
// returns each whole record's generation.
func feedGens(body []byte) []uint64 {
	var gens []uint64
	for off := 0; off+8 <= len(body); {
		end := off + 8 + int(binary.LittleEndian.Uint32(body[off:]))
		if end > len(body) || end < off+10 {
			break
		}
		gen, _ := binary.Uvarint(body[off+9 : end])
		gens = append(gens, gen)
		off = end
	}
	return gens
}

// TestWALFeedWaitTimeout: a long-poll with nothing to serve parks for
// the wait, then returns promptly and empty, with the capability
// header set so followers know streaming is live.
func TestWALFeedWaitTimeout(t *testing.T) {
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{})
	gen := leaderSrv.an.Engine().Generation()

	start := time.Now()
	status, body, hdr := feedGet(t, ts.URL+"/wal?from="+strconv.FormatUint(gen, 10)+"&wait=80ms", nil)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(body) != 0 {
		t.Fatalf("idle long-poll returned %d bytes", len(body))
	}
	if elapsed < 60*time.Millisecond {
		t.Fatalf("long-poll returned after %v, did not park for the wait", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("long-poll blocked %v past its wait", elapsed)
	}
	if hdr.Get(generationHeader) != strconv.FormatUint(gen, 10) {
		t.Fatalf("generation header %q, want %d", hdr.Get(generationHeader), gen)
	}
	if st := leaderSrv.store.Stats(); st.FeedWaiters != 0 {
		t.Fatalf("%d feed waiters still parked after timeout", st.FeedWaiters)
	}
}

// TestWALFeedWaitWake: a commit mid-wait wakes the parked poll with
// the new records, well before the wait elapses.
func TestWALFeedWaitWake(t *testing.T) {
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{})
	gen := leaderSrv.an.Engine().Generation()

	type result struct {
		status  int
		body    []byte
		elapsed time.Duration
	}
	got := make(chan result, 1)
	start := time.Now()
	go func() {
		status, body, _ := feedGet(t, ts.URL+"/wal?from="+strconv.FormatUint(gen, 10)+"&wait=20s", nil)
		got <- result{status, body, time.Since(start)}
	}()
	waitForFeedWaiters(t, leaderSrv.store, 1)

	do(t, leaderSrv, "POST", "/append", `{"rows": [["female", "other"]]}`)
	select {
	case r := <-got:
		if r.status != http.StatusOK {
			t.Fatalf("status %d", r.status)
		}
		if gens := feedGens(r.body); len(gens) != 1 || gens[0] != gen+1 {
			t.Fatalf("woken poll served generations %v, want [%d]", gens, gen+1)
		}
		if r.elapsed > 10*time.Second {
			t.Fatalf("commit wake took %v; the long-poll timed out instead", r.elapsed)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("commit never woke the parked long-poll")
	}
}

// TestWALFeedWaitWakesOnlyBehind: a commit wakes exactly the waiters
// at or behind the committed generation; a waiter already ahead of it
// stays parked.
func TestWALFeedWaitWakesOnlyBehind(t *testing.T) {
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{})
	gen := leaderSrv.an.Engine().Generation()

	behind := make(chan []byte, 1)
	ahead := make(chan []byte, 1)
	go func() {
		_, body, _ := feedGet(t, ts.URL+"/wal?from="+strconv.FormatUint(gen, 10)+"&wait=20s", nil)
		behind <- body
	}()
	go func() {
		_, body, _ := feedGet(t, ts.URL+"/wal?from="+strconv.FormatUint(gen+1, 10)+"&wait=20s", nil)
		ahead <- body
	}()
	waitForFeedWaiters(t, leaderSrv.store, 2)

	do(t, leaderSrv, "POST", "/append", `{"rows": [["female", "other"]]}`)
	select {
	case body := <-behind:
		if gens := feedGens(body); len(gens) != 1 {
			t.Fatalf("behind waiter read %d records, want 1", len(gens))
		}
	case <-time.After(15 * time.Second):
		t.Fatal("commit never woke the waiter behind it")
	}
	select {
	case body := <-ahead:
		t.Fatalf("waiter ahead of the commit woke with %d bytes", len(body))
	case <-time.After(100 * time.Millisecond):
	}
	// The second commit reaches it.
	do(t, leaderSrv, "POST", "/append", `{"rows": [["male", "white"]]}`)
	select {
	case body := <-ahead:
		if gens := feedGens(body); len(gens) != 1 || gens[0] != gen+2 {
			t.Fatalf("ahead waiter read generations %v, want [%d] (only the record past its position)", gens, gen+2)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("second commit never woke the remaining waiter")
	}
}

// TestWALFeedWaitClientDisconnect: a client that gives up mid-wait
// frees the parked waiter instead of pinning it until the timeout.
func TestWALFeedWaitClientDisconnect(t *testing.T) {
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{})
	gen := leaderSrv.an.Engine().Generation()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/wal?from="+strconv.FormatUint(gen, 10)+"&wait=30s", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	waitForFeedWaiters(t, leaderSrv.store, 1)
	cancel()
	<-done
	waitForFeedWaiters(t, leaderSrv.store, 0)
}

// TestWALFeedBadWait pins the parameter validation: garbage or
// negative waits are 400, and a request without a wait is answered at
// once instead of parking.
func TestWALFeedBadWait(t *testing.T) {
	_, ts := startLeader(t, t.TempDir(), persist.Options{})
	for _, q := range []string{"wait=teapot", "wait=-5s"} {
		if status, _, _ := feedGet(t, ts.URL+"/wal?from=0&"+q, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, status)
		}
	}
	start := time.Now()
	if status, _, _ := feedGet(t, ts.URL+"/wal?from=0", nil); status != http.StatusOK {
		t.Errorf("no wait: status %d, want 200", status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("request without a wait parked for %v", elapsed)
	}
}

// waitForFeedWaiters polls the store's parked-waiter gauge.
func waitForFeedWaiters(t *testing.T, store *persist.Store, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if store.Stats().FeedWaiters == n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("feed waiters never reached %d (now %d)", n, store.Stats().FeedWaiters)
}

// TestFollowerStreams: the tail loop long-polls — it catches up with a
// commit at once, parks on an idle leader instead of re-polling, and
// registers in the leader's topology.
func TestFollowerStreams(t *testing.T) {
	leaderSrv, ts := startLeader(t, t.TempDir(), persist.Options{})
	f, err := newFollower(t.TempDir(), ts.URL, 150*time.Millisecond, "stream-test", persist.Options{})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	followerDone := make(chan struct{})
	go func() { f.run(stop); close(followerDone) }()
	defer func() { close(stop); <-followerDone }()

	do(t, leaderSrv, "POST", "/append", `{"rows": [["female", "other"]]}`)
	leaderGen := leaderSrv.an.Engine().Generation()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && f.engineGen() != leaderGen {
		time.Sleep(2 * time.Millisecond)
	}
	if f.engineGen() != leaderGen {
		t.Fatalf("follower at generation %d, leader at %d", f.engineGen(), leaderGen)
	}
	// Idle for 450 ms: each request parks for the 150 ms wait, so only
	// a handful are issued.
	polls := f.polls.Load()
	time.Sleep(450 * time.Millisecond)
	if n := f.polls.Load() - polls; n > 6 {
		t.Fatalf("%d polls against an idle leader in 450ms, want long-polls of 150ms", n)
	}

	// The leader's topology lists the replica.
	topo := leaderSrv.topo.snapshot(leaderGen)
	if len(topo.Replicas) != 1 || topo.Replicas[0].ID != "stream-test" {
		t.Fatalf("topology = %+v, want the one streaming replica", topo)
	}
}
