package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coverage"
	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/pattern"
	"coverage/internal/persist"
	"coverage/internal/registry"
)

// scanWhole is scanCodeRow applied to a whole document, as
// json.Unmarshal applies: nothing but space may follow the value.
func scanWhole(data []byte) ([]uint8, bool) {
	row, rest, ok := scanCodeRow(nil, data)
	return row, ok && len(skipJSONSpace(rest)) == 0
}

func TestScanCodeRow(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []uint8
		ok   bool
	}{
		{`[0,1,255]`, []uint8{0, 1, 255}, true},
		{" [ 7 ,\t12\r\n, 0 ] ", []uint8{7, 12, 0}, true},
		{`[]`, nil, true},
		{`[ ]`, nil, true},
		{`null`, nil, true},
		{`[null,3]`, []uint8{0, 3}, true},
		{`[1.0]`, nil, false},
		{`[1e2]`, nil, false},
		{`[-1]`, nil, false},
		{`[-0]`, nil, false},
		{`[+1]`, nil, false},
		{`[256]`, nil, false},
		{`[1000000000000000000000]`, nil, false},
		{`[01]`, nil, false},
		{`[00]`, nil, false},
		{`[1,]`, nil, false},
		{`[,1]`, nil, false},
		{`[1 2]`, nil, false},
		{`[1`, nil, false},
		{`[`, nil, false},
		{`1`, nil, false},
		{`[1]]`, nil, false},
		{`[1] x`, nil, false},
		{`["1"]`, nil, false},
		{`[true]`, nil, false},
		{`[[1]]`, nil, false},
		{`[nul]`, nil, false},
		{`"AAE="`, nil, false}, // base64: left to encoding/json
		{``, nil, false},
	} {
		got, ok := scanWhole([]byte(tc.in))
		if ok != tc.ok || (ok && !bytes.Equal(got, tc.want)) {
			t.Errorf("scanCodeRow(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// FuzzCodeRowScanner holds the scanner to encoding/json: over every
// input but a base64 string — which the scanner must refuse, so that
// callers hand it over — scanCodeRow and json.Unmarshal into a []uint8
// accept the same documents and produce the same bytes; and whatever
// scanCodeRows accepts, json.Unmarshal into a [][]uint8 decodes alike.
// Read as a whole /append or /delete body, every input decodes through
// mutateBatch — the one-pass scan where it applies — to the rows and
// the error text of the encoding/json path alone.
func FuzzCodeRowScanner(f *testing.F) {
	for _, seed := range []string{
		`[0,1,2]`, ` [ 12 , 255 ] `, `[]`, `null`, `[null]`, `[256]`, `[01]`, `[1.0]`, `[-1]`, `[1e1]`,
		`"AAE="`, `[1,"a"]`, `[[0,1],[2,3]]`, `[[0], null, [1]]`, `[[0,1] [2]]`, `[[]]`, `{"a":1}`, "[1]\n[2]",
		// Whole mutate bodies.
		`{"codes": [[1,0],[0,2]]}`, " {\t\"codes\" :\n[ [1 ,0] ] }\r\n", `{"codes":[[1,3]]}`, `{"codes":[[1]]}`,
		`{"codes":[[1,0]],"codes":[[0,1]]}`, `{"CODES":[[1,0]]}`, `{"Codes":[[1,0]]}`, `{"cod\u0065s":[[1,0]]}`,
		`{"codes":[[1,0]],"rows":[["male","black"]]}`, `{"rows":[["male","white"]],"codes":null}`, `{"rows":[["x","y"]]}`,
		`{"codes":null}`, `null`, `{"codes":["AQI=",[0,1]]}`, `{"codes":[[1,0]],"code":1}`,
		`{"codes":[[1,0]]}{"codes":[[0,1]]}`, `{"codes":[[1,0]]} x`, `{"codes":[[1,0]]`, `{"codes":[[1,0]]}}`,
	} {
		f.Add([]byte(seed))
	}
	schema, err := coverage.NewSchema([]coverage.Attribute{
		{Name: "sex", Values: []string{"female", "male"}},
		{Name: "race", Values: []string{"black", "other", "white"}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, batchErr := mutateBatch(schema, data, nil)
		wantBatch, wantErr := jsonMutateBatch(schema, data, nil)
		if (batchErr == nil) != (wantErr == nil) || (batchErr != nil && batchErr.Error() != wantErr.Error()) {
			t.Fatalf("%q: mutateBatch err=%v, encoding/json path err=%v", data, batchErr, wantErr)
		}
		if bodyStatus(batchErr) != bodyStatus(wantErr) {
			t.Fatalf("%q: status %d, encoding/json path %d", data, bodyStatus(batchErr), bodyStatus(wantErr))
		}
		if !slices.EqualFunc(batch, wantBatch, bytes.Equal) {
			t.Fatalf("%q: mutateBatch %v, encoding/json path %v", data, batch, wantBatch)
		}

		got, ok := scanWhole(data)
		var want []uint8
		err := json.Unmarshal(data, &want)
		if s := skipJSONSpace(data); len(s) > 0 && s[0] == '"' {
			if ok {
				t.Fatalf("scanner accepted the string %q", data)
			}
		} else if ok != (err == nil) {
			t.Fatalf("%q: scanner ok=%v, encoding/json err=%v", data, ok, err)
		} else if ok && !bytes.Equal(got, want) {
			t.Fatalf("%q: scanner %v, encoding/json %v", data, got, want)
		}

		rows, rest, ok := scanCodeRows(data, 2)
		if !ok || len(skipJSONSpace(rest)) > 0 {
			return
		}
		var wantRows [][]uint8
		if err := json.Unmarshal(data, &wantRows); err != nil {
			t.Fatalf("%q: scanner took rows encoding/json refuses: %v", data, err)
		}
		if len(rows) != len(wantRows) {
			t.Fatalf("%q: scanner %v, encoding/json %v", data, rows, wantRows)
		}
		for i := range rows {
			if !bytes.Equal(rows[i], wantRows[i]) {
				t.Fatalf("%q row %d: scanner %v, encoding/json %v", data, i, rows[i], wantRows[i])
			}
		}
	})
}

// FuzzAppendJSONString holds the string encoder to json.Marshal byte
// for byte, for both instantiations. (The round trip is therefore
// json's: each invalid byte comes back as one U+FFFD. That is not
// strings.ToValidUTF8, which folds a run of them into one.)
func FuzzAppendJSONString(f *testing.F) {
	for _, seed := range []string{
		"", "plain", `quo"te`, `back\slash`, "new\nline\ttab\r\b\f", "\x00\x1f\x7f", "<script>&amp;",
		"sep\u2028\u2029", "café 日本 \U0001F600", "\xff\xfe", "a\xe2\x80", "\xed\xa0\x80",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		if got := appendJSONString([]byte("x"), []byte(s)); !bytes.Equal(got[1:], want) {
			t.Fatalf("appendJSONString([]byte(%q)) = %s, json.Marshal = %s", s, got[1:], want)
		}
	})
}

// nastyServer serves a dataset whose attribute names and labels hold
// every character class the string encoder treats specially, and whose
// third attribute has value codes past 9 (the "[12]" notation).
func nastyServer(t *testing.T) *server {
	t.Helper()
	return newServer(coverage.NewAnalyzer(nastyDataset(t)), nil)
}

func nastyDataset(t *testing.T) *coverage.Dataset {
	t.Helper()
	wide := make([]string, 14)
	for i := range wide {
		wide[i] = "v" + strconv.Itoa(i)
	}
	wide[12] = "twelve\u2028<&>"
	schema, err := coverage.NewSchema([]coverage.Attribute{
		{Name: `na"me`, Values: []string{`back\slash`, "new\nline", "tab\tbell\a"}},
		{Name: "bad\xffutf8", Values: []string{"<b>", "café\xe2\x80", "\u2029"}},
		{Name: "wide", Values: wide},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := coverage.NewDataset(schema)
	for i := 0; i < 60; i++ {
		// Codes 12 and 13 of "wide" stay rare: they make the MUPs.
		ds.MustAppend([]uint8{uint8(i % 3), uint8(i / 3 % 3), uint8(i % 12)})
	}
	ds.MustAppend([]uint8{0, 0, 12})
	return ds
}

// TestWireBodiesMatchMarshal pins the three hand-written encoders to
// the response structs: each body is byte for byte what json.Marshal
// (plus the Encoder's newline) writes for the struct built the way the
// handlers built it before — so it also unmarshals into that struct.
func TestWireBodiesMatchMarshal(t *testing.T) {
	s := nastyServer(t)
	schema := s.an.Dataset().Schema()
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	check := func(name string, w *httptest.ResponseRecorder, want string) {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, w.Code, w.Body)
		}
		if got := w.Body.String(); got != want {
			t.Errorf("%s body\n got %s\nwant %s", name, got, want)
		}
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("%s: Content-Length %q, body is %d bytes", name, cl, len(want))
		}
	}

	w := do(t, s, "GET", "/mups?tau=2", "")
	got := decode[mupsResponse](t, w)
	rep, err := s.an.FindMUPs(coverage.FindOptions{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	mups := mupsResponse{Rows: s.an.NumRows(), Threshold: 2, TotalMUPs: len(rep.MUPs), MUPs: []mupJSON{},
		Algorithm: got.Algorithm, Probes: got.Probes}
	seen12 := false
	for i, p := range rep.MUPs {
		mups.MUPs = append(mups.MUPs, mupJSON{Pattern: p.String(), Level: p.Level(), Description: rep.Describe(i)})
		seen12 = seen12 || strings.Contains(p.String(), "[12]")
	}
	if !seen12 || len(rep.MUPs) < 3 {
		t.Fatalf("fixture lost its MUPs over code 12: %v", rep.MUPs)
	}
	check("/mups", w, marshal(mups))
	// An empty list is [], not null: the plain fixture's one MUP sits
	// at level 2.
	plain := serveFixture(t)
	w = do(t, plain, "GET", "/mups?tau=1&maxlevel=1", "")
	got = decode[mupsResponse](t, w)
	check("/mups empty", w, marshal(mupsResponse{Rows: 10, Threshold: 1, MUPs: []mupJSON{},
		Algorithm: got.Algorithm, Probes: got.Probes}))

	patterns := []string{"XXX", "0X[12]", "21X", "X2[13]"}
	for _, threshold := range []int64{0, 2} {
		cov := coverageResponse{Rows: s.an.NumRows()}
		for _, raw := range patterns {
			p, err := coverage.ParsePattern(raw, schema)
			if err != nil {
				t.Fatal(err)
			}
			c, err := s.an.Coverage(p)
			if err != nil {
				t.Fatal(err)
			}
			pc := patternCoverage{Pattern: p.String(), Description: schema.DescribePattern(p), Coverage: c}
			if threshold > 0 {
				covered := c >= threshold
				pc.Covered = &covered
			}
			cov.Results = append(cov.Results, pc)
		}
		body, _ := json.Marshal(coverageRequest{Patterns: patterns, Threshold: threshold})
		check(fmt.Sprintf("/coverage threshold=%d", threshold), do(t, s, "POST", "/coverage", string(body)), marshal(cov))
	}

	w = do(t, s, "POST", "/plan", `{"tau": 2, "max_level": 2}`)
	plan, err := s.an.Plan(rep, coverage.PlanOptions{MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	pr := planResponse{Threshold: 2, Targets: len(plan.Targets), Tuples: plan.NumTuples(),
		Algorithm: decode[planResponse](t, w).Algorithm, Suggestions: []suggestionJSON{}}
	for _, sg := range plan.Suggestions {
		pr.Suggestions = append(pr.Suggestions, suggestionJSON{
			Collect:     sg.Collect.String(),
			Description: schema.DescribePattern(sg.Collect),
			Combo:       coverage.Pattern(sg.Combo).String(),
			GapsClosed:  len(sg.Hits),
		})
	}
	if len(pr.Suggestions) == 0 {
		t.Fatal("fixture plan is empty")
	}
	check("/plan", w, marshal(pr))
}

// freshMUPsBody is the /mups body json.Marshal writes for an answer
// computed from scratch — the naive enumeration, past every cache —
// over an's current rows, with the algorithm and probe count the
// server reported (a hit reports the search that made its entry).
func freshMUPsBody(t *testing.T, an *coverage.Analyzer, tau int64, algorithm string, probes int64) string {
	t.Helper()
	rep, err := an.FindMUPs(coverage.FindOptions{Threshold: tau, Algorithm: coverage.NaiveAlgorithm})
	if err != nil {
		t.Fatal(err)
	}
	resp := mupsResponse{Rows: rep.Rows(), Threshold: tau, TotalMUPs: len(rep.MUPs), MUPs: []mupJSON{},
		Algorithm: algorithm, Probes: probes}
	for i, p := range rep.MUPs {
		resp.MUPs = append(resp.MUPs, mupJSON{Pattern: p.String(), Level: p.Level(), Description: rep.Describe(i)})
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestStoredMUPsBodyNeverStale: a /mups body kept with the engine's
// cached result is the reply a fresh computation encodes, over the
// nasty-label fixture, after every way the data or the cache can move
// under it.
func TestStoredMUPsBodyNeverStale(t *testing.T) {
	// check asks twice — the reply that stores the body, then the hit
	// that writes it — and holds both to a fresh answer.
	check := func(t *testing.T, step string, an *coverage.Analyzer, tau int64, get func(target string) *httptest.ResponseRecorder) {
		t.Helper()
		target := fmt.Sprintf("/mups?tau=%d", tau)
		for _, reply := range []string{"first reply", "hit"} {
			w := get(target)
			if w.Code != http.StatusOK {
				t.Fatalf("%s, %s: status %d: %s", step, reply, w.Code, w.Body)
			}
			got := decode[mupsResponse](t, w)
			if want := freshMUPsBody(t, an, tau, got.Algorithm, got.Probes); w.Body.String() != want {
				t.Errorf("%s, %s:\n got %s\nwant %s", step, reply, w.Body, want)
			}
		}
		if an.Engine().Stats().BodyBytes == 0 {
			t.Errorf("%s: no body stored with the cached result", step)
		}
	}
	local := func(s *server) func(string) *httptest.ResponseRecorder {
		return func(target string) *httptest.ResponseRecorder { return do(t, s, "GET", target, "") }
	}

	t.Run("mutations", func(t *testing.T) {
		s := nastyServer(t)
		check(t, "initial", s.an, 2, local(s))
		for _, m := range []struct{ step, target, body string }{
			{"append", "/append", `{"codes": [[1, 1, 13], [2, 2, 13]]}`},
			{"delete", "/delete", `{"codes": [[0, 0, 12], [1, 1, 13]]}`},
			{"window eviction", "/window", `{"max_rows": 40}`},
			{"append past the window", "/append", `{"codes": [[0, 2, 12], [0, 2, 12], [1, 0, 13]]}`},
		} {
			if w := do(t, s, "POST", m.target, m.body); w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", m.step, w.Code, w.Body)
			}
			check(t, m.step, s.an, 2, local(s))
		}
	})

	t.Run("snapshot restore", func(t *testing.T) {
		s := nastyServer(t)
		check(t, "before the snapshot", s.an, 2, local(s))
		var snap bytes.Buffer
		if _, err := s.an.SnapshotTo(&snap); err != nil {
			t.Fatal(err)
		}
		an, err := coverage.RestoreAnalyzer(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if st := an.Engine().Stats(); st.CachedSearches == 0 || st.BodyBytes != 0 {
			t.Fatalf("restored %d cached searches with %d body bytes, want the search without its body",
				st.CachedSearches, st.BodyBytes)
		}
		restored := newServer(an, nil)
		check(t, "restored", an, 2, local(restored))
	})

	t.Run("LRU eviction", func(t *testing.T) {
		s := newServer(coverage.NewAnalyzerFromDataset(nastyDataset(t), engine.Options{MaxCachedSearches: 1}), nil)
		check(t, "tau=2", s.an, 2, local(s))
		check(t, "tau=3 evicting tau=2", s.an, 3, local(s))
		do(t, s, "POST", "/append", `{"codes": [[1, 1, 13]]}`)
		check(t, "tau=2 searched again", s.an, 2, local(s))
	})

	t.Run("follower", func(t *testing.T) {
		leader, ts := startLeaderOver(t, t.TempDir(), coverage.NewAnalyzer(nastyDataset(t)), persist.Options{})
		f := startFollower(t, ts)
		follow := func(target string) *httptest.ResponseRecorder { return doF(t, f, "GET", target, "", nil) }
		check(t, "bootstrapped", f.an, 2, follow)
		do(t, leader, "POST", "/append", `{"codes": [[1, 1, 13], [2, 2, 13]]}`)
		if applied, err := f.pollOnce(); err != nil || applied != 1 {
			t.Fatalf("poll: applied %d records, err %v; want 1", applied, err)
		}
		check(t, "after a WAL record", f.an, 2, follow)
	})
}

// TestResidentBytesCountsStoredBodies: the bodies kept with cached
// results are resident bytes, so the engine counts them while their
// entries live and stops when they go — replaced by a repair, evicted
// past MaxCachedSearches, or dropped with their tenant.
func TestResidentBytesCountsStoredBodies(t *testing.T) {
	s := newServer(coverage.NewAnalyzerFromDataset(nastyDataset(t), engine.Options{MaxCachedSearches: 2}), nil)
	e := s.an.Engine()
	// bodies is what ResidentBytes counts past the count stores.
	bodies := func() int64 {
		b := e.ResidentBytes()
		for _, sh := range e.Stats().Shards {
			b -= sh.StoreBytes
		}
		return b
	}
	mups := func(tau int) int64 {
		w := do(t, s, "GET", fmt.Sprintf("/mups?tau=%d", tau), "")
		if w.Code != http.StatusOK {
			t.Fatalf("tau=%d: status %d: %s", tau, w.Code, w.Body)
		}
		return int64(w.Body.Len())
	}
	expect := func(step string, want int64) {
		t.Helper()
		if got := bodies(); got != want {
			t.Errorf("%s: ResidentBytes counts %d body bytes, want %d", step, got, want)
		}
		if got := decode[statsResponse](t, do(t, s, "GET", "/stats", "")).BodyBytes; got != want {
			t.Errorf("%s: /stats cached_body_bytes %d, want %d", step, got, want)
		}
	}

	expect("before any /mups", 0)
	b2 := mups(2)
	expect("after /mups tau=2", b2)
	mups(2)
	expect("after a hit", b2)
	do(t, s, "POST", "/append", `{"codes": [[1, 1, 13], [2, 2, 13], [2, 2, 13]]}`)
	expect("after an append, before the repair", b2)
	b2 = mups(2)
	expect("after the repair replaced the entry", b2)
	b3, b4 := mups(3), mups(4)
	expect("after tau=4 evicted tau=2", b3+b4)

	g, reg := gatewayFixture(t, false)
	if w := doG(t, g, "PUT", "/datasets/a", schemaA); w.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	doG(t, g, "POST", "/datasets/a/append", `{"codes": [[0, 0], [1, 2], [1, 2], [1, 1]]}`)
	// The /mups folds the append's pending delta into the bases, which
	// gives the delta's store bytes back; the rest must grow by the body.
	storeBytes := func() (n int64) {
		for _, sh := range decode[statsResponse](t, doG(t, g, "GET", "/datasets/a/stats", "")).Shards {
			n += sh.StoreBytes
		}
		return n
	}
	before := reg.Stats().ResidentBytes - storeBytes()
	body := doG(t, g, "GET", "/datasets/a/mups?tau=2", "").Body.Len()
	if after := reg.Stats().ResidentBytes - storeBytes(); after < before+int64(body) {
		t.Errorf("registry resident bytes beside the stores %d → %d after a %d-byte /mups body", before, after, body)
	}
	if w := doG(t, g, "DELETE", "/datasets/a", ""); w.Code != http.StatusOK {
		t.Fatalf("drop: status %d: %s", w.Code, w.Body)
	}
	if after := reg.Stats().ResidentBytes; after != 0 {
		t.Errorf("registry resident bytes %d after the only tenant was dropped", after)
	}
}

// TestMUPsRowsMatchGeneration: a /mups reply's rows are those of the
// generation its MUPs were found at. One writer appends 100-row
// batches while readers ask; every reply's rows must be an
// acknowledged count, and its MUPs the naive enumeration's over exactly
// that prefix of the batches.
func TestMUPsRowsMatchGeneration(t *testing.T) {
	const (
		batches   = 60
		batchRows = 100
		readers   = 3
		tau       = 8
	)
	attrs := make([]coverage.Attribute, 4)
	for i := range attrs {
		attrs[i] = coverage.Attribute{Name: fmt.Sprint("a", i), Values: []string{"0", "1", "2", "3"}}
	}
	schema, err := coverage.NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	// Values lean towards 0, so combinations cross τ batch after batch
	// and the MUP set keeps moving.
	rng := rand.New(rand.NewSource(7))
	rows := make([][]uint8, batches*batchRows)
	for i := range rows {
		rows[i] = make([]uint8, len(attrs))
		for j := range rows[i] {
			rows[i][j] = uint8(min(rng.Intn(4), rng.Intn(4)))
		}
	}
	s := newServer(coverage.NewAnalyzer(coverage.NewDataset(schema)), nil)

	type reply struct {
		rows int64
		mups []string
	}
	replies := make([][]reply, readers)
	replied := make(chan struct{}, 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/mups?tau=%d", tau), nil))
				var resp mupsResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Errorf("reader %d: %v: %s", r, err, w.Body)
					return
				}
				got := reply{rows: resp.Rows}
				for _, m := range resp.MUPs {
					got.mups = append(got.mups, m.Pattern)
				}
				replies[r] = append(replies[r], got)
				select {
				case replied <- struct{}{}:
				default:
				}
			}
		}(r)
	}
	// Each batch waits for a reply since the last, so the appends land
	// among the searches rather than before them all.
	for b := 0; b < batches; b++ {
		<-replied
		if err := s.an.Append(rows[b*batchRows : (b+1)*batchRows]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	want := make(map[int64][]string)
	for _, rs := range replies {
		for _, got := range rs {
			if got.rows%batchRows != 0 || got.rows < 0 || got.rows > batches*batchRows {
				t.Fatalf("reply reports %d rows, not an acknowledged count", got.rows)
			}
			if _, ok := want[got.rows]; !ok {
				ds := coverage.NewDataset(schema)
				for _, row := range rows[:got.rows] {
					ds.MustAppend(row)
				}
				rep, err := coverage.NewAnalyzer(ds).FindMUPs(coverage.FindOptions{Threshold: tau, Algorithm: coverage.NaiveAlgorithm})
				if err != nil {
					t.Fatal(err)
				}
				want[got.rows] = []string{}
				for _, p := range rep.MUPs {
					want[got.rows] = append(want[got.rows], p.String())
				}
			}
			if !slices.Equal(got.mups, want[got.rows]) {
				t.Fatalf("reply at %d rows lists %d MUPs, the naive enumeration over those rows %d:\n got %v\nwant %v",
					got.rows, len(got.mups), len(want[got.rows]), got.mups, want[got.rows])
			}
		}
	}
	t.Logf("%d replies over %d row counts", len(replies[0])+len(replies[1])+len(replies[2]), len(want))
}

// TestCoverageRowsMatchGeneration: a /coverage reply's rows are those
// of the generation its counts were read at. One writer appends while
// readers ask for a batch led by the all-wildcard pattern, whose
// coverage is the row count itself, so every reply must report it
// equal to rows.
func TestCoverageRowsMatchGeneration(t *testing.T) {
	const (
		appends = 400
		readers = 2
	)
	attrs := make([]coverage.Attribute, 3)
	for i := range attrs {
		attrs[i] = coverage.Attribute{Name: fmt.Sprint("a", i), Values: []string{"0", "1", "2"}}
	}
	schema, err := coverage.NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(coverage.NewAnalyzer(coverage.NewDataset(schema)), nil)
	body := `{"patterns": ["XXX", "0XX", "X12", "201"]}`

	var checked atomic.Int64
	replied := make(chan struct{}, 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest("POST", "/coverage", strings.NewReader(body)))
				var resp coverageResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Errorf("reader %d: %v: %s", r, err, w.Body)
					return
				}
				if len(resp.Results) != 4 || resp.Results[0].Coverage != resp.Rows {
					t.Errorf("reader %d: reply reports %d rows but cov(XXX) = %v", r, resp.Rows, resp.Results)
					return
				}
				checked.Add(1)
				select {
				case replied <- struct{}{}:
				default:
				}
			}
		}(r)
	}
	stopped := make(chan struct{}) // closed once every reader has returned
	go func() {
		wg.Wait()
		close(stopped)
	}()
	rng := rand.New(rand.NewSource(11))
writes:
	for a := 0; a < appends; a++ {
		if a%8 == 0 {
			// Keep the appends among the reads rather than before them
			// all; a reader that failed has stopped replying.
			select {
			case <-replied:
			case <-stopped:
				break writes
			}
		}
		row := []uint8{uint8(rng.Intn(3)), uint8(rng.Intn(3)), uint8(rng.Intn(3))}
		if err := s.an.Append([][]uint8{row}); err != nil {
			close(done)
			<-stopped
			t.Fatal(err)
		}
	}
	close(done)
	<-stopped
	t.Logf("%d replies checked", checked.Load())
}

// TestCodeRowAcceptSet walks the code-row forms whose answer must not
// depend on which decoder reads them, through both carriers: an NDJSON
// line and a {"codes": [...]} body (for /append and /delete alike).
func TestCodeRowAcceptSet(t *testing.T) {
	for _, tc := range []struct {
		row  string
		want int
	}{
		{`[1,2]`, 200},
		{` [ 1 , 2 ] `, 200},
		{`[null,2]`, 200},    // encoding/json leaves a 0 for null
		{`"AQI="`, 200},      // and reads a string as base64: [1,2]
		{`[]`, 400},          // arity
		{`null`, 400},        // arity
		{`[0]`, 400},         // arity
		{`[0,1,2]`, 400},     // arity
		{`[0,3]`, 400},       // race has 3 values
		{`[2,0]`, 400},       // sex has 2
		{`[1.0,1]`, 400},     // not an integer
		{`[-1,1]`, 400},      // sign
		{`[256,1]`, 400},     // not a uint8
		{`[01,1]`, 400},      // leading zero
		{`[0,1]]`, 400},      // trailing garbage
		{`[0,"other"]`, 400}, // mixed
		{`{"0":1}`, 400},
	} {
		ndjson := func(s *server) *httptest.ResponseRecorder {
			req := httptest.NewRequest("POST", "/append", strings.NewReader(tc.row+"\n"))
			req.Header.Set("Content-Type", "application/x-ndjson")
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			return w
		}
		// (male, black) and whatever row lands on are in the fixture, so
		// that an accepted delete finds them.
		body := `{"codes": [[1,0],` + tc.row + `]}`
		for name, w := range map[string]*httptest.ResponseRecorder{
			"ndjson":      ndjson(serveFixture(t)),
			"append body": do(t, serveFixture(t), "POST", "/append", body),
			"delete body": do(t, serveFixture(t), "POST", "/delete", body),
		} {
			if w.Code != tc.want {
				t.Errorf("%s %s: status %d, want %d: %s", name, tc.row, w.Code, tc.want, w.Body)
			}
		}
	}
	// The forms around the rows: a null or absent codes field is no
	// rows, an unknown field is refused, a non-array is a type error,
	// and nothing but space may follow the body's value.
	s := serveFixture(t)
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/append", `{"codes": null, "rows": [["male","white"]]}`, 200},
		{"/append", `{"codes": []}`, 400},
		{"/append", `{"codes": null}`, 400},
		{"/append", `{"codes": [[0,1]], "code": 1}`, 400},
		{"/append", `{"codes": 7}`, 400},
		{"/append", `{"codes": [[0,1]`, 400},
		{"/append", `{"codes":[[1,0]]}{"codes":[[0,1]]}`, 400},
		{"/coverage", `{"patterns":["12"]} [`, 400},
	} {
		if w := do(t, s, "POST", tc.path, tc.body); w.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d: %s", tc.path, tc.body, w.Code, tc.want, w.Body)
		}
	}
	// A row of nothing but nulls is the one form both decoders take. On
	// an NDJSON line labels are tried first, so it is a row of ""
	// labels, unknown here; under "codes" it is a row of zeros.
	s = serveFixture(t)
	req := httptest.NewRequest("POST", "/append", strings.NewReader("[null,null]\n"))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "unknown value") {
		t.Errorf("ndjson [null,null]: status %d, want the label path's 400: %s", rec.Code, rec.Body)
	}
	if w := do(t, s, "POST", "/append", `{"codes": [[null,null]]}`); w.Code != 200 {
		t.Errorf("codes [[null,null]]: status %d, want 200: %s", w.Code, w.Body)
	}
	// Both accidents of encoding/json decode to the row they stand for.
	s = serveFixture(t)
	do(t, s, "POST", "/append", `{"codes": ["AQI=", [null, 2]]}`)
	w := do(t, s, "POST", "/coverage", `{"patterns": ["12", "02"]}`)
	if cov := decode[coverageResponse](t, w); cov.Results[0].Coverage != 4 || cov.Results[1].Coverage != 3 {
		t.Errorf("after two odd-form appends cov = %d, %d, want 4, 3", cov.Results[0].Coverage, cov.Results[1].Coverage)
	}
}

// TestAppendNDJSONRowErrorNamesLine: a code row of the wrong arity or
// with a value past its attribute's cardinality used to be refused by
// the engine for its whole 4 096-row batch, under a batch-relative
// index. The scanner refuses it where malformed lines are refused: by
// stream line, naming the attribute, with the count of rows appended
// before it equal to the rows actually applied.
func TestAppendNDJSONRowErrorNamesLine(t *testing.T) {
	const badLine = ndjsonBatchRows + 903
	for _, tc := range []struct{ bad, want string }{
		{`[0]`, fmt.Sprintf("line %d: 1 values for a 2-attribute schema", badLine)},
		{`[0,1,2]`, fmt.Sprintf("line %d: 3 values for a 2-attribute schema", badLine)},
		{`[1,7]`, fmt.Sprintf(`line %d: value 7 for attribute "race" exceeds cardinality 3`, badLine)},
	} {
		s := serveFixture(t)
		var sb strings.Builder
		for line := 1; line < badLine+50; line++ {
			if line == badLine {
				sb.WriteString(tc.bad + "\n")
			} else {
				sb.WriteString("[0,1]\n")
			}
		}
		req := httptest.NewRequest("POST", "/append", strings.NewReader(sb.String()))
		req.Header.Set("Content-Type", "application/x-ndjson")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.bad, w.Code, w.Body)
		}
		msg := decode[errorResponse](t, w).Error
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.bad, msg, tc.want)
		}
		if strings.Contains(msg, "engine") {
			t.Errorf("%s: error %q came from the engine, not the scanner", tc.bad, msg)
		}
		applied := s.an.NumRows() - 10
		if applied != ndjsonBatchRows {
			t.Errorf("%s: %d rows applied, want the one full batch before the bad line", tc.bad, applied)
		}
		if want := fmt.Sprintf("(%d rows appended before the error)", applied); !strings.Contains(msg, want) {
			t.Errorf("%s: error %q does not report %q", tc.bad, msg, want)
		}
	}
}

// stalledWriter is a client that stops reading: Write blocks until
// released.
type stalledWriter struct {
	header  http.Header
	writing chan struct{} // closed on the first Write
	release chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	select {
	case <-w.writing:
	default:
		close(w.writing)
	}
	<-w.release
	return len(p), nil
}

// TestSearchSlotsReleasedBeforeWrite: the shared search pool bounds
// searches, not replies. With one slot and one tenant's /mups (and
// /plan) reply stuck on a reader that went away, a second tenant's
// /mups must still get the slot.
func TestSearchSlotsReleasedBeforeWrite(t *testing.T) {
	pool := registry.NewPool(1)
	tenant := func() *server {
		s := serveFixture(t)
		return newServerWith(s.an, nil, serverConfig{pool: pool, weight: 1})
	}
	for _, tc := range []struct{ method, target, body string }{
		{"GET", "/mups?tau=1", ""},
		{"POST", "/plan", `{"tau": 1, "max_level": 2}`},
	} {
		slow := &stalledWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
		stalled := make(chan struct{})
		go func() {
			defer close(stalled)
			tenant().ServeHTTP(slow, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
		}()
		<-slow.writing

		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- do(t, tenant(), "GET", "/mups?tau=1", "") }()
		select {
		case w := <-done:
			if w.Code != http.StatusOK {
				t.Errorf("%s stalled: second tenant's /mups status %d: %s", tc.target, w.Code, w.Body)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s stalled in Write: second tenant's /mups still queued for the slot", tc.target)
		}
		close(slow.release)
		<-stalled
	}
}

// wireFixture is the bulk-load shape of the benchmark's refresh and
// audit workloads: n AirBnB rows of 13 boolean attributes as an NDJSON
// body, and an empty server over the same schema.
func wireFixture(tb testing.TB, n int) (*dataset.Dataset, []byte) {
	tb.Helper()
	ds := datagen.AirBnB(n, 13, 20190408)
	var body bytes.Buffer
	for i := 0; i < ds.NumRows(); i++ {
		body.WriteByte('[')
		for j, v := range ds.Row(i) {
			if j > 0 {
				body.WriteByte(',')
			}
			body.WriteString(strconv.Itoa(int(v)))
		}
		body.WriteString("]\n")
	}
	return ds, body.Bytes()
}

// discardWriter is a ResponseWriter that costs nothing, so that
// allocation counts are the handler's own.
type discardWriter struct {
	header http.Header
	status int
	bytes  int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

func bulkLoad(tb testing.TB, s *server, body []byte) {
	req := httptest.NewRequest("POST", "/append", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := &discardWriter{header: http.Header{}}
	s.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		tb.Fatalf("bulk load: status %d", w.status)
	}
}

// TestWireAllocs pins what the wire path is for: a bulk load allocates
// per batch, not per row, and a /mups cache hit allocates per reply,
// not per MUP.
func TestWireAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 20 000 rows")
	}
	const n = 20000
	ds, body := wireFixture(t, n)

	// The engine's own cost of applying the batches is not the wire's:
	// take it out by measuring it on the decoded rows.
	rows := make([][]uint8, n)
	for i := range rows {
		rows[i] = ds.Row(i)
	}
	engineOnly := testing.AllocsPerRun(3, func() {
		an := coverage.NewAnalyzer(coverage.NewDataset(ds.Schema()))
		for lo := 0; lo < n; lo += ndjsonBatchRows {
			if err := an.Append(rows[lo:min(lo+ndjsonBatchRows, n)]); err != nil {
				t.Fatal(err)
			}
		}
	})
	load := testing.AllocsPerRun(3, func() {
		bulkLoad(t, newServer(coverage.NewAnalyzer(coverage.NewDataset(ds.Schema())), nil), body)
	})
	if wire := load - engineOnly; wire > n/64 {
		t.Errorf("NDJSON load of %d rows: %.0f allocations over the engine's %.0f, want at most one per 64 rows (%d)",
			n, wire, engineOnly, n/64)
	}

	s := newServer(coverage.NewAnalyzer(ds), nil)
	req := httptest.NewRequest("GET", "/mups?tau=20", nil)
	w := &discardWriter{header: http.Header{}}
	s.ServeHTTP(w, req) // the search; every later call is a cache hit
	if total := decode[mupsResponse](t, do(t, s, "GET", "/mups?tau=20", "")).TotalMUPs; total < 1000 {
		t.Fatalf("fixture has %d MUPs, the pin needs at least 1000", total)
	}
	hit := testing.AllocsPerRun(10, func() { s.ServeHTTP(w, req) })
	if hit > 64 {
		t.Errorf("/mups cache hit: %.0f allocations, want at most 64", hit)
	}
}

// BenchmarkWireBulk is the bulk load of the benchmark's refresh and
// audit workloads — 100 000 rows of 13 codes as NDJSON — through the
// handler into a memory-only engine.
func BenchmarkWireBulk(b *testing.B) {
	const n = 100000
	ds, body := wireFixture(b, n)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bulkLoad(b, newServer(coverage.NewAnalyzer(coverage.NewDataset(ds.Schema())), nil), body)
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkWireMUPsHit is a /mups answered from the engine's cache at
// the refresh workload's shape (100 000 rows, τ=100: ~13 000 MUPs). The
// body was stored with the cached result by the first reply, so the
// time is the handler writing stored bytes; BenchmarkWireMUPsEncode is
// the encoding.
func BenchmarkWireMUPsHit(b *testing.B) {
	ds, _ := wireFixture(b, 100000)
	s := newServer(coverage.NewAnalyzer(ds), nil)
	req := httptest.NewRequest("GET", "/mups?tau=100", nil)
	w := &discardWriter{header: http.Header{}}
	s.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.bytes = 0
		s.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(w.bytes), "B/reply")
}

// BenchmarkWireMUPsEncode is a fresh /mups encode at the refresh
// workload's shape, bypassing the body stored with the cached result:
// the wire cost of a first reply with no earlier body to splice from
// (BenchmarkWireMUPsSplice prices one that has it).
func BenchmarkWireMUPsEncode(b *testing.B) {
	ds, _ := wireFixture(b, 100000)
	s := newServer(coverage.NewAnalyzer(ds), nil)
	rep, err := s.an.FindMUPs(coverage.FindOptions{Threshold: 100})
	if err != nil {
		b.Fatal(err)
	}
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = s.desc.mupsBody(rep)
	}
	b.ReportMetric(float64(len(body)), "B/reply")
	b.ReportMetric(float64(len(rep.MUPs)), "MUPs")
}

// BenchmarkWireMUPsSplice is the first /mups reply to a repaired
// search at the refresh workload's shape: the result after a 100-row
// append, its body spliced from the body of the result it replaced.
// BenchmarkWireMUPsEncode prices the same reply encoded from scratch.
func BenchmarkWireMUPsSplice(b *testing.B) {
	ds, _ := wireFixture(b, 100000)
	an := coverage.NewAnalyzer(ds)
	s := newServer(an, nil)
	more := datagen.AirBnB(100, 13, 11)
	rows := make([][]uint8, more.NumRows())
	for i := range rows {
		rows[i] = more.Row(i)
	}
	prev, err := an.FindMUPs(coverage.FindOptions{Threshold: 100})
	if err != nil {
		b.Fatal(err)
	}
	prevBody := s.desc.mupsBody(prev)
	if err := an.Append(rows); err != nil {
		b.Fatal(err)
	}
	rep, err := an.FindMUPs(coverage.FindOptions{Threshold: 100})
	if err != nil {
		b.Fatal(err)
	}
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = s.desc.mupsBodyFrom(rep, prev.MUPs, prevBody)
	}
	b.StopTimer()
	if !bytes.Equal(body, s.desc.mupsBody(rep)) {
		b.Fatal("spliced body differs from the fresh encode")
	}
	b.ReportMetric(float64(len(body)), "B/reply")
	b.ReportMetric(float64(len(rep.MUPs)), "MUPs")
}

// FuzzMupsBodySplice holds the spliced /mups body to the fresh encode:
// over random schemas (labels with brackets, quotes and escapes) and
// random old and new MUP sets sharing a random part, with the old set
// sometimes out of order, the new one sometimes holding duplicates or
// codes past the schema, and the old body sometimes absent, mupsBodyFrom
// must write mupsBody's bytes, into a buffer of exactly their length.
func FuzzMupsBodySplice(f *testing.F) {
	for _, seed := range []struct {
		spec  string
		seed  int64
		flags uint8
	}{
		{"sex\x1ffemale\x1fmale\x1erace\x1fblack\x1fother\x1fwhite", 1, 0},
		{"a\x1f[x]\x1fy\x1eb\x1fz\x1f\"q\"\x1ec\x1f]\x1f[\x1f\\", 2, 0},
		{"a\x1fx\x1fy\x1eb\x1fz", 3, 1},
		{"a\x1fx\x1fy\x1eb\x1fz", 4, 2},
		{"a\x1fx\x1fy\x1eb\x1fz\x1fw", 5, 4},
		{"a\x1fx", 6, 8},
		{"a\x1fx\x1fy\x1eb\x1fz\x1eb\x1fu\x1fv\x1fw", 7, 15},
	} {
		f.Add(seed.spec, seed.seed, seed.flags)
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64, flags uint8) {
		var attrs []coverage.Attribute
		for _, a := range strings.Split(spec, "\x1e") {
			fields := strings.Split(a, "\x1f")
			attrs = append(attrs, coverage.Attribute{Name: fields[0], Values: fields[1:]})
		}
		schema, err := coverage.NewSchema(attrs)
		if err != nil {
			return
		}
		d := newDescTable(schema)
		rng := rand.New(rand.NewSource(seed))
		random := func() coverage.Pattern {
			p := make(coverage.Pattern, schema.Dim())
			for i := range p {
				switch c := len(schema.Attr(i).Values); {
				case rng.Intn(3) == 0:
					p[i] = coverage.Wildcard
				case flags&4 != 0 && rng.Intn(16) == 0:
					p[i] = uint8(c + rng.Intn(3)) // past the schema
				default:
					p[i] = uint8(rng.Intn(c))
				}
			}
			return p
		}
		set := func(ps []coverage.Pattern) []coverage.Pattern {
			slices.SortFunc(ps, pattern.Compare)
			if flags&8 == 0 {
				ps = slices.CompactFunc(ps, coverage.Pattern.Equal)
			}
			return ps
		}
		var old, cur []coverage.Pattern
		for range rng.Intn(40) {
			p := random()
			switch rng.Intn(3) {
			case 0:
				old = append(old, p)
			case 1:
				cur = append(cur, p)
			default:
				old, cur = append(old, p), append(cur, p)
			}
		}
		old, cur = set(old), set(cur)
		if flags&1 != 0 {
			rng.Shuffle(len(old), func(i, j int) { old[i], old[j] = old[j], old[i] })
		}
		prev := &coverage.Report{MUPs: old, Threshold: rng.Int63n(1000),
			Stats: coverage.MUPStats{Algorithm: "pattern-cube", CoverageProbes: rng.Int63n(1000)}}
		var prevBody []byte
		if flags&2 == 0 {
			prevBody = d.mupsBody(prev)
		}
		rep := &coverage.Report{MUPs: cur, Threshold: rng.Int63n(1000),
			Stats: coverage.MUPStats{Algorithm: spec, CoverageProbes: rng.Int63n(1000)}}
		got, want := d.mupsBodyFrom(rep, old, prevBody), d.mupsBody(rep)
		if !bytes.Equal(got, want) {
			t.Fatalf("old %v, new %v: spliced body\n got %s\nwant %s", old, cur, got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("%d-byte spliced body in a buffer of %d", len(got), cap(got))
		}
	})
}

// FuzzDescriptionFragments holds the description table to the path it
// replaced: for random attribute names and labels (quotes, backslashes,
// the HTML trio, control bytes, U+2028/U+2029, invalid UTF-8 and
// multi-byte runes at label edges) and random patterns (wrong lengths
// and codes past the schema included), the joined fragments are
// appendJSONString(schema.AppendDescription(p)) byte for byte, and a
// /mups body holding the pattern is exactly as long as mupsBodySize
// priced it.
func FuzzDescriptionFragments(f *testing.F) {
	// spec is attributes separated by \x1e, each a name and its labels
	// separated by \x1f.
	for _, seed := range []struct {
		spec string
		pat  []byte
	}{
		{"sex\x1ffemale\x1fmale\x1erace\x1fblack\x1fother\x1fwhite", []byte{1, 0}},
		{"na\"me\x1fback\\slash\x1fnew\nline\x1ftab\tbell\a", []byte{2}},
		{"bad\xffutf8\x1f<b>\x1fcafé\xe2\x80\x1f\u2029\x1ewide\x1f\u2028<&>\x1f日本", []byte{0, 255}},
		{"\xe2\x80\x1f\x80x\x1e\x00\x1f\x1d\x1e\U0001F600\x1f\xf0\x9f\x98", []byte{1, 1, 1}},
		{"a\x1fx\x1fy", []byte{255}},
		{"a\x1fx\x1fy\x1eb\x1fz", []byte{7, 0}},
		{"a\x1fx", []byte{0, 0, 0}},
		{"a\x1fx", nil},
	} {
		f.Add(seed.spec, seed.pat)
	}
	f.Fuzz(func(t *testing.T, spec string, pat []byte) {
		var attrs []coverage.Attribute
		for _, a := range strings.Split(spec, "\x1e") {
			fields := strings.Split(a, "\x1f")
			attrs = append(attrs, coverage.Attribute{Name: fields[0], Values: fields[1:]})
		}
		schema, err := coverage.NewSchema(attrs)
		if err != nil {
			return
		}
		d := newDescTable(schema)
		p := make(coverage.Pattern, min(len(pat), 64))
		for i := range p {
			// Mostly codes inside the schema, some past it, some wildcards.
			switch c := pat[i]; {
			case c == coverage.Wildcard || i >= schema.Dim():
				p[i] = c
			default:
				p[i] = c % uint8(len(schema.Attr(i).Values)+2)
			}
		}
		want := appendJSONString(nil, schema.AppendDescription(nil, p))
		if got := d.appendJSON([]byte("x"), p); !bytes.Equal(got[1:], want) {
			t.Fatalf("pattern %v: fragments %s, escaped description %s", p, got[1:], want)
		}
		rep := &coverage.Report{MUPs: []coverage.Pattern{p, p}, Threshold: int64(len(spec)),
			Stats: coverage.MUPStats{Algorithm: spec, CoverageProbes: -int64(len(pat))}}
		body := d.mupsBody(rep)
		if len(body) != cap(body) {
			t.Fatalf("pattern %v: %d-byte body in a buffer of %d", p, len(body), cap(body))
		}
		elem := mupJSON{Pattern: p.String(), Level: p.Level(), Description: string(schema.AppendDescription(nil, p))}
		want, err = json.Marshal(mupsResponse{Threshold: rep.Threshold, TotalMUPs: 2, MUPs: []mupJSON{elem, elem},
			Algorithm: spec, Probes: rep.Stats.CoverageProbes})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, append(want, '\n')) {
			t.Fatalf("pattern %v: body\n got %s\nwant %s", p, body, want)
		}
	})
}
