package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"coverage"
	"coverage/internal/datagen"
	"coverage/internal/dataset"
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
func FuzzCodeRowScanner(f *testing.F) {
	for _, seed := range []string{
		`[0,1,2]`, ` [ 12 , 255 ] `, `[]`, `null`, `[null]`, `[256]`, `[01]`, `[1.0]`, `[-1]`, `[1e1]`,
		`"AAE="`, `[1,"a"]`, `[[0,1],[2,3]]`, `[[0], null, [1]]`, `[[0,1] [2]]`, `[[]]`, `{"a":1}`, "[1]\n[2]",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
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

		rows, ok := scanCodeRows(data, 2)
		if !ok {
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
	return newServer(coverage.NewAnalyzer(ds), nil)
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
	// rows, an unknown field is refused, a non-array is a type error.
	s := serveFixture(t)
	for body, want := range map[string]int{
		`{"codes": null, "rows": [["male","white"]]}`: 200,
		`{"codes": []}`:                 400,
		`{"codes": null}`:               400,
		`{"codes": [[0,1]], "code": 1}`: 400,
		`{"codes": 7}`:                  400,
		`{"codes": [[0,1]`:              400,
	} {
		if w := do(t, s, "POST", "/append", body); w.Code != want {
			t.Errorf("%s: status %d, want %d: %s", body, w.Code, want, w.Body)
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
// the refresh workload's shape (100 000 rows, τ=100: ~13 000 MUPs), so
// the time is the reply's encoding.
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
