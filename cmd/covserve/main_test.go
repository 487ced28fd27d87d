package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"coverage"
)

// serveFixture builds a server over the audit fixture of the root
// package tests: sex × race with no "female, other" rows.
func serveFixture(t *testing.T) *server {
	t.Helper()
	csv := strings.Join([]string{
		"sex,race",
		"male,white", "male,white", "male,white", "male,black",
		"male,black", "male,other", "male,other",
		"female,white", "female,white", "female,black",
	}, "\n")
	ds, err := coverage.ReadCSV(strings.NewReader(csv), coverage.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(coverage.NewAnalyzer(ds), nil)
}

func do(t *testing.T, s *server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	s := serveFixture(t)
	w := do(t, s, "GET", "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	resp := decode[healthResponse](t, w)
	if resp.Status != "ok" || resp.Rows != 10 {
		t.Errorf("health = %+v", resp)
	}
}

func TestCoverageEndpoint(t *testing.T) {
	s := serveFixture(t)
	w := do(t, s, "POST", "/coverage", `{"patterns": ["0X", "1X", "02"], "threshold": 2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode[coverageResponse](t, w)
	if resp.Rows != 10 || len(resp.Results) != 3 {
		t.Fatalf("response = %+v", resp)
	}
	// Codes are sorted labels: female=0, male=1; black=0, other=1, white=2.
	if resp.Results[0].Coverage != 3 || resp.Results[1].Coverage != 7 {
		t.Errorf("coverages = %d, %d, want 3, 7", resp.Results[0].Coverage, resp.Results[1].Coverage)
	}
	if resp.Results[2].Coverage != 2 {
		t.Errorf("cov(female, white) = %d, want 2", resp.Results[2].Coverage)
	}
	if resp.Results[0].Covered == nil || !*resp.Results[0].Covered {
		t.Error("female (3 rows) not marked covered at τ=2")
	}
	if !strings.Contains(resp.Results[0].Description, "sex=female") {
		t.Errorf("description = %q", resp.Results[0].Description)
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"empty patterns", `{"patterns": []}`},
		{"bad pattern", `{"patterns": ["0X9"]}`},
		{"bad json", `{`},
		{"unknown field", `{"pattern": ["0X"]}`},
	} {
		if w := do(t, s, "POST", "/coverage", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		} else if decode[errorResponse](t, w).Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	if w := do(t, s, "GET", "/coverage", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /coverage: status %d, want 405", w.Code)
	}
}

func TestMUPsEndpoint(t *testing.T) {
	s := serveFixture(t)
	w := do(t, s, "GET", "/mups?tau=1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode[mupsResponse](t, w)
	if resp.TotalMUPs != 1 || resp.Threshold != 1 {
		t.Fatalf("response = %+v", resp)
	}
	if resp.MUPs[0].Description != "sex=female, race=other" {
		t.Errorf("MUP description = %q", resp.MUPs[0].Description)
	}
	if resp.MUPs[0].Level != 2 {
		t.Errorf("MUP level = %d", resp.MUPs[0].Level)
	}

	// Rate-based threshold resolves against the current row count.
	w = do(t, s, "GET", "/mups?rate=0.2", "")
	if w.Code != http.StatusOK {
		t.Fatalf("rate status %d: %s", w.Code, w.Body)
	}
	if resp := decode[mupsResponse](t, w); resp.Threshold != 2 {
		t.Errorf("rate 0.2 of 10 rows resolved to τ=%d, want 2", resp.Threshold)
	}

	for _, target := range []string{"/mups", "/mups?tau=abc", "/mups?tau=1&rate=0.5", "/mups?rate=2", "/mups?tau=1&maxlevel=x"} {
		if w := do(t, s, "GET", target, ""); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", target, w.Code)
		}
	}
}

func TestAppendEndpoint(t *testing.T) {
	s := serveFixture(t)
	// The fixture's gap: no female+other rows. Close it by labels and
	// codes in one request, then watch the MUP disappear.
	w := do(t, s, "POST", "/append", `{"rows": [["female", "other"]], "codes": [[0, 1]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode[mutateResponse](t, w)
	if resp.Appended != 2 || resp.TotalRows != 12 {
		t.Errorf("append = %+v", resp)
	}
	if resp.Generation == 0 {
		t.Error("generation not advanced")
	}

	w = do(t, s, "GET", "/mups?tau=1", "")
	if got := decode[mupsResponse](t, w); got.TotalMUPs != 0 {
		t.Errorf("MUPs after closing the gap = %+v", got.MUPs)
	}
	// τ=2 is exactly met by the two appended rows.
	w = do(t, s, "GET", "/mups?tau=2", "")
	for _, m := range decode[mupsResponse](t, w).MUPs {
		if m.Description == "sex=female, race=other" {
			t.Error("closed gap still reported at τ=2")
		}
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"unknown label", `{"rows": [["female", "martian"]]}`},
		{"short row", `{"rows": [["female"]]}`},
		{"bad code", `{"codes": [[0, 9]]}`},
		{"bad json", `]`},
	} {
		if w := do(t, s, "POST", "/append", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
	}
}

func TestDeleteEndpoint(t *testing.T) {
	s := serveFixture(t)
	// Retract one of the two (female, white) rows by labels and one
	// (male, black) by codes: male=1, black=0.
	w := do(t, s, "POST", "/delete", `{"rows": [["female", "white"]], "codes": [[1, 0]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode[mutateResponse](t, w)
	if resp.Deleted != 2 || resp.TotalRows != 8 {
		t.Errorf("delete = %+v", resp)
	}
	if resp.Generation == 0 {
		t.Error("generation not advanced")
	}
	w = do(t, s, "POST", "/coverage", `{"patterns": ["02", "10"]}`)
	cov := decode[coverageResponse](t, w)
	if cov.Results[0].Coverage != 1 || cov.Results[1].Coverage != 1 {
		t.Errorf("coverages after delete = %d, %d, want 1, 1", cov.Results[0].Coverage, cov.Results[1].Coverage)
	}

	// Deleting the gap's rows makes a new MUP appear — the regime
	// downward-only repair cannot serve.
	do(t, s, "GET", "/mups?tau=1", "")
	w = do(t, s, "POST", "/delete", `{"rows": [["female", "white"]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	w = do(t, s, "GET", "/mups?tau=1", "")
	found := false
	for _, m := range decode[mupsResponse](t, w).MUPs {
		if m.Description == "sex=female, race=white" {
			found = true
		}
	}
	if !found {
		t.Error("deleting all (female, white) rows did not surface the new MUP")
	}

	// Absent rows are a state conflict, atomically rejected.
	w = do(t, s, "POST", "/delete", `{"rows": [["female", "white"]]}`)
	if w.Code != http.StatusConflict {
		t.Errorf("delete of absent combination: status %d, want 409", w.Code)
	}
	w = do(t, s, "POST", "/delete", `{"codes": [[0, 0], [0, 0]]}`)
	if w.Code != http.StatusConflict {
		t.Errorf("over-delete: status %d, want 409", w.Code)
	}
	if w := do(t, s, "GET", "/healthz", ""); decode[healthResponse](t, w).Rows != 7 {
		t.Error("rejected deletes mutated the dataset")
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"unknown label", `{"rows": [["female", "martian"]]}`},
		{"short row", `{"rows": [["female"]]}`},
		{"bad code", `{"codes": [[0, 9]]}`},
		{"short code row", `{"codes": [[0]]}`},
		{"bad json", `]`},
	} {
		// Malformed requests are 400s; only genuine multiplicity
		// conflicts earn the 409 above.
		if w := do(t, s, "POST", "/delete", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
	}
}

func TestAppendNDJSON(t *testing.T) {
	s := serveFixture(t)
	body := strings.Join([]string{
		`["female", "other"]`,
		``, // blank lines are skipped
		`[0, 1]`,
		`["male", "other"]`,
	}, "\n")
	req := httptest.NewRequest("POST", "/append", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode[mutateResponse](t, w)
	if resp.Appended != 3 || resp.TotalRows != 13 {
		t.Errorf("ndjson append = %+v", resp)
	}
	// Both label and code forms landed on (female, other).
	wc := do(t, s, "POST", "/coverage", `{"patterns": ["01"]}`)
	if cov := decode[coverageResponse](t, wc); cov.Results[0].Coverage != 2 {
		t.Errorf("cov(female, other) = %d, want 2", cov.Results[0].Coverage)
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"empty body", ""},
		{"not an array", `{"rows": []}`},
		{"unknown label", `["female", "martian"]`},
		{"mixed types", `["female", 2]`},
		{"bad code", `[0, 9]`},
	} {
		req := httptest.NewRequest("POST", "/append", strings.NewReader(tc.body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
	}
}

// TestAppendNDJSONBatching streams more rows than one engine batch to
// exercise the flush loop.
func TestAppendNDJSONBatching(t *testing.T) {
	s := serveFixture(t)
	var sb strings.Builder
	const n = ndjsonBatchRows + 100
	for i := 0; i < n; i++ {
		sb.WriteString(`[0, 1]` + "\n")
	}
	req := httptest.NewRequest("POST", "/append", strings.NewReader(sb.String()))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if resp := decode[mutateResponse](t, w); resp.Appended != n || resp.TotalRows != int64(10+n) {
		t.Errorf("bulk append = %+v, want %d rows appended", resp, n)
	}
}

func TestWindowEndpoint(t *testing.T) {
	s := serveFixture(t)
	w := do(t, s, "GET", "/window", "")
	if resp := decode[windowResponse](t, w); resp.MaxRows != 0 || resp.Rows != 10 {
		t.Errorf("initial window = %+v", resp)
	}
	w = do(t, s, "POST", "/window", `{"max_rows": 6}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if resp := decode[windowResponse](t, w); resp.MaxRows != 6 || resp.Rows != 6 {
		t.Errorf("window after truncation = %+v", resp)
	}
	// Appends now evict the oldest rows.
	do(t, s, "POST", "/append", `{"codes": [[0, 1], [0, 1], [0, 1]]}`)
	if resp := decode[healthResponse](t, do(t, s, "GET", "/healthz", "")); resp.Rows != 6 {
		t.Errorf("rows = %d with window 6, want 6", resp.Rows)
	}
	st := decode[statsResponse](t, do(t, s, "GET", "/stats", ""))
	if st.Window != 6 || st.Evictions == 0 {
		t.Errorf("stats window = %d, evictions = %d", st.Window, st.Evictions)
	}
	if want := s.an.Engine().Stats().WindowBytes; st.WindowBytes != want || want < 16*6 {
		t.Errorf("stats window_bytes = %d, want the engine's %d, at least 16 per live row", st.WindowBytes, want)
	}
	// Disable and verify unbounded growth resumes.
	do(t, s, "POST", "/window", `{"max_rows": 0}`)
	do(t, s, "POST", "/append", `{"codes": [[0, 1]]}`)
	if resp := decode[healthResponse](t, do(t, s, "GET", "/healthz", "")); resp.Rows != 7 {
		t.Errorf("rows = %d after disabling the window, want 7", resp.Rows)
	}

	if w := do(t, s, "POST", "/window", `{"max_rows": -1}`); w.Code != http.StatusBadRequest {
		t.Errorf("negative window: status %d, want 400", w.Code)
	}
	if w := do(t, s, "POST", "/window", `{`); w.Code != http.StatusBadRequest {
		t.Errorf("bad json: status %d, want 400", w.Code)
	}
}

// TestStatsMarginalBytes: a shard's marginal_bytes is 0 until the
// first /coverage batch builds its base's marginal table, then the
// table's size, counted in the engine's ResidentBytes.
func TestStatsMarginalBytes(t *testing.T) {
	s := serveFixture(t)
	sum := func() (b int64) {
		for _, sh := range decode[statsResponse](t, do(t, s, "GET", "/stats", "")).Shards {
			b += sh.MarginalBytes
		}
		return b
	}
	if b := sum(); b != 0 {
		t.Fatalf("marginal_bytes sum to %d before any /coverage", b)
	}
	before := s.an.Engine().ResidentBytes()
	if w := do(t, s, "POST", "/coverage", `{"patterns": ["0X"], "threshold": 2}`); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	// Two attributes of 2 and 3 values: 5 cells of level 1 and 6 of
	// level 2, with 3 offsets, per shard.
	want := int64(len(s.an.Engine().Stats().Shards)) * (8*(5+6) + 4*3)
	if b := sum(); b != want {
		t.Errorf("marginal_bytes sum to %d after a /coverage, want %d", b, want)
	}
	if got := s.an.Engine().ResidentBytes() - before; got != want {
		t.Errorf("ResidentBytes grew by %d, want %d", got, want)
	}
}

func TestPlanEndpoint(t *testing.T) {
	s := serveFixture(t)
	// A rejected request costs no MUP search: every 400 leaves
	// full_searches at 0.
	for _, tc := range []struct {
		name, body string
	}{
		{"no threshold", `{"max_level": 2}`},
		{"no objective", `{"tau": 1}`},
		{"both objectives", `{"tau": 1, "max_level": 1, "min_value_count": 2}`},
		{"level past d", `{"tau": 1, "max_level": 3}`},
		{"bad json", `nope`},
	} {
		if w := do(t, s, "POST", "/plan", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
		if st := decode[statsResponse](t, do(t, s, "GET", "/stats", "")); st.FullSearches != 0 {
			t.Errorf("%s: full_searches = %d after a rejected /plan, want 0", tc.name, st.FullSearches)
		}
	}

	w := do(t, s, "POST", "/plan", `{"tau": 1, "max_level": 2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode[planResponse](t, w)
	if resp.Threshold != 1 || resp.Tuples == 0 || len(resp.Suggestions) != resp.Tuples {
		t.Fatalf("plan = %+v", resp)
	}
	if resp.Suggestions[0].Description != "sex=female, race=other" {
		t.Errorf("suggestion = %+v", resp.Suggestions[0])
	}
	if resp.Suggestions[0].GapsClosed == 0 {
		t.Error("suggestion closes no gaps")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := serveFixture(t)
	do(t, s, "GET", "/mups?tau=1", "")
	do(t, s, "GET", "/mups?tau=1", "")
	do(t, s, "POST", "/append", `{"codes": [[0, 1]]}`)
	w := do(t, s, "GET", "/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	st := decode[statsResponse](t, w)
	if st.Rows != 11 || st.Appends != 1 || st.FullSearches != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.CacheHits == 0 {
		t.Error("repeated /mups query did not hit the cache")
	}
	if len(st.Shards) == 0 {
		t.Fatal("/stats reports no shard blocks")
	}
	for i, sh := range st.Shards {
		if sh.StoreOccupancy < 0 || sh.StoreOccupancy > 1 {
			t.Errorf("shard %d store occupancy = %v, want in [0,1]", i, sh.StoreOccupancy)
		}
		if sh.Distinct > 0 && sh.StoreBytes <= 0 {
			t.Errorf("shard %d store bytes = %d with %d live combos", i, sh.StoreBytes, sh.Distinct)
		}
	}
}

// TestMUPsUnboundedLevelSpellings checks that every way of asking for
// no level bound over the 2-attribute fixture (0, negative, d, past d)
// is one cold search and one cache entry.
func TestMUPsUnboundedLevelSpellings(t *testing.T) {
	s := serveFixture(t)
	for _, level := range []string{"0", "-1", "2", "99"} {
		w := do(t, s, "GET", "/mups?tau=1&maxlevel="+level, "")
		if w.Code != http.StatusOK {
			t.Fatalf("maxlevel=%s: status %d: %s", level, w.Code, w.Body)
		}
		if resp := decode[mupsResponse](t, w); resp.TotalMUPs != 1 {
			t.Errorf("maxlevel=%s: %d MUPs, want 1", level, resp.TotalMUPs)
		}
	}
	st := decode[statsResponse](t, do(t, s, "GET", "/stats", ""))
	if st.FullSearches != 1 || st.CacheHits != 3 {
		t.Errorf("full_searches %d, cache_hits %d; want 1 and 3", st.FullSearches, st.CacheHits)
	}
}

// TestConcurrentTraffic races /coverage and /mups readers against
// /append writers through the full HTTP stack; meaningful under -race.
func TestConcurrentTraffic(t *testing.T) {
	s := serveFixture(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Post(srv.URL+"/coverage", "application/json",
					strings.NewReader(`{"patterns": ["0X", "XX"]}`))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				resp, err = http.Get(srv.URL + "/mups?tau=2")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Post(srv.URL+"/append", "application/json",
					strings.NewReader(`{"codes": [[0, 1], [1, 2]]}`))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("append status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	// One NDJSON ingester and one deleter race the JSON writers. A
	// delete may legitimately hit 409 when retractions outpace the
	// appends; successful retractions are counted for the final check.
	var deleted atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			resp, err := http.Post(srv.URL+"/append", "application/x-ndjson",
				strings.NewReader("[0, 1]\n[1, 2]\n"))
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("ndjson append status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			resp, err := http.Post(srv.URL+"/delete", "application/json",
				strings.NewReader(`{"codes": [[0, 1]]}`))
			if err != nil {
				t.Error(err)
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				deleted.Add(1)
			case http.StatusConflict:
			default:
				t.Errorf("delete status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()

	w := do(t, s, "GET", "/healthz", "")
	want := int64(10 + 2*20*2 + 20*2 - deleted.Load())
	if resp := decode[healthResponse](t, w); resp.Rows != want {
		t.Errorf("final rows = %d, want %d", resp.Rows, want)
	}
}
