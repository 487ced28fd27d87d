package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"coverage"
	"coverage/internal/engine"
	"coverage/internal/registry"
)

// gatewayFixture builds a gateway over a fresh registry. A 1-byte
// resident budget (when evict is true) parks every idle tenant the
// moment its request finishes, so every next request exercises the
// lazy-restore path.
func gatewayFixture(t *testing.T, evict bool) (*gateway, *registry.Registry) {
	t.Helper()
	var max int64
	if evict {
		max = 1
	}
	reg, err := registry.Open(registry.Options{Dir: t.TempDir(), MaxResidentBytes: max})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return newGateway(reg), reg
}

func doG(t *testing.T, g *gateway, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	g.ServeHTTP(w, req)
	return w
}

const (
	schemaA = `{"attributes":[
		{"name":"sex","values":["female","male"]},
		{"name":"race","values":["black","other","white"]}]}`
	schemaB = `{"attributes":[
		{"name":"country","values":["uk","us"]},
		{"name":"plan","values":["free","pro"]},
		{"name":"tier","values":["a","b","c"]}]}`
)

// allPatternStrings enumerates every pattern over the dims as the
// wire format: a digit or X per attribute.
func allPatternStrings(dims []int) []string {
	out := []string{""}
	for _, d := range dims {
		var next []string
		for _, p := range out {
			next = append(next, p+"X")
			for v := 0; v < d; v++ {
				next = append(next, fmt.Sprintf("%s%d", p, v))
			}
		}
		out = next
	}
	return out
}

// TestGatewayTenantLifecycle is the tentpole round trip: two tenants
// with distinct schemas served concurrently, eviction + lazy restore
// answer-identical to a never-evicted shadow, and drop/recreate —
// all while a background goroutine keeps the second tenant busy (the
// -race interleaving this test exists for).
func TestGatewayTenantLifecycle(t *testing.T) {
	g, _ := gatewayFixture(t, true)

	if w := doG(t, g, "PUT", "/datasets/a", schemaA); w.Code != http.StatusCreated {
		t.Fatalf("create a: status %d: %s", w.Code, w.Body)
	}
	if w := doG(t, g, "PUT", "/datasets/a", schemaA); w.Code != http.StatusOK {
		t.Fatalf("re-create a (same schema): status %d: %s", w.Code, w.Body)
	}
	if w := doG(t, g, "PUT", "/datasets/a", schemaB); w.Code != http.StatusConflict {
		t.Fatalf("re-create a (different schema): status %d, want 409", w.Code)
	}
	if w := doG(t, g, "PUT", "/datasets/bad*id", schemaA); w.Code != http.StatusBadRequest {
		t.Fatalf("bad id: status %d, want 400", w.Code)
	}
	// The count-table layout is not a tenant option: the field is
	// rejected by name, not silently ignored.
	withStore := strings.Replace(schemaA, "{", `{"countstore":"dense",`, 1)
	if w := doG(t, g, "PUT", "/datasets/c", withStore); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), `unknown field \"countstore\"`) {
		t.Fatalf("create with countstore: status %d, want 400 naming the field: %s", w.Code, w.Body)
	}
	if w := doG(t, g, "GET", "/datasets/c/stats", ""); w.Code != http.StatusNotFound {
		t.Fatalf("rejected create left a tenant behind: status %d, want 404", w.Code)
	}
	if w := doG(t, g, "PUT", "/datasets/b", schemaB); w.Code != http.StatusCreated {
		t.Fatalf("create b: status %d: %s", w.Code, w.Body)
	}

	// Background traffic on tenant b for the whole lifecycle of a.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bAppends int
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			row := fmt.Sprintf(`[[%d,%d,%d]]`, rng.Intn(2), rng.Intn(2), rng.Intn(3))
			w := doG(t, g, "POST", "/datasets/b/append", `{"codes":`+row+`}`)
			if w.Code != http.StatusOK {
				t.Errorf("b append %d: status %d: %s", i, w.Code, w.Body)
				return
			}
			bAppends++
			if w := doG(t, g, "POST", "/datasets/b/coverage", `{"patterns":["XXX"]}`); w.Code != http.StatusOK {
				t.Errorf("b coverage %d: status %d: %s", i, w.Code, w.Body)
				return
			}
		}
	}()

	// Mutate tenant a and mirror every row into a never-evicted shadow.
	shadow := engine.New(mustSchemaFromJSON(t, schemaA), engine.Options{})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		row := []uint8{uint8(rng.Intn(2)), uint8(rng.Intn(3))}
		body := fmt.Sprintf(`{"codes":[[%d,%d]]}`, row[0], row[1])
		if w := doG(t, g, "POST", "/datasets/a/append", body); w.Code != http.StatusOK {
			t.Fatalf("a append %d: status %d: %s", i, w.Code, w.Body)
		}
		if err := shadow.Append([][]uint8{row}); err != nil {
			t.Fatal(err)
		}
	}

	// Every pattern's coverage and the MUP sets must match the shadow,
	// with the tenant restoring from disk between requests.
	shadowSrv := newServer(coverage.NewAnalyzerFromEngine(shadow), nil)
	patterns, _ := json.Marshal(allPatternStrings([]int{2, 3}))
	probeBody := `{"patterns":` + string(patterns) + `}`
	wantCov := do(t, shadowSrv, "POST", "/coverage", probeBody)
	gotCov := doG(t, g, "POST", "/datasets/a/coverage", probeBody)
	if gotCov.Code != http.StatusOK || gotCov.Body.String() != wantCov.Body.String() {
		t.Fatalf("restored coverage diverged from shadow:\n got %d %s\nwant %d %s",
			gotCov.Code, gotCov.Body, wantCov.Code, wantCov.Body)
	}
	for _, tau := range []int{1, 3} {
		want := do(t, shadowSrv, "GET", fmt.Sprintf("/mups?tau=%d", tau), "")
		got := doG(t, g, "GET", fmt.Sprintf("/datasets/a/mups?tau=%d", tau), "")
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Fatalf("restored MUPs τ=%d diverged from shadow:\n got %d %s\nwant %d %s",
				tau, got.Code, got.Body, want.Code, want.Body)
		}
	}

	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The registry really was churning: list shows both tenants, and b
	// holds exactly the rows the background goroutine appended.
	list := decode[listResponse](t, doG(t, g, "GET", "/datasets", ""))
	if len(list.Datasets) != 2 {
		t.Fatalf("datasets = %+v, want a and b", list.Datasets)
	}
	if list.Stats.Evictions == 0 || list.Stats.Restores == 0 {
		t.Fatalf("no eviction churn under a 1-byte budget: %+v", list.Stats)
	}
	health := decode[healthResponse](t, doG(t, g, "GET", "/datasets/b/healthz", ""))
	if health.Rows != int64(bAppends) {
		t.Fatalf("b has %d rows, want %d", health.Rows, bAppends)
	}

	// Drop a; its routes 404; the id is immediately reusable.
	if w := doG(t, g, "DELETE", "/datasets/a", ""); w.Code != http.StatusOK {
		t.Fatalf("drop a: status %d: %s", w.Code, w.Body)
	}
	if w := doG(t, g, "GET", "/datasets/a/healthz", ""); w.Code != http.StatusNotFound {
		t.Fatalf("healthz after drop: status %d, want 404", w.Code)
	}
	if w := doG(t, g, "DELETE", "/datasets/a", ""); w.Code != http.StatusNotFound {
		t.Fatalf("double drop: status %d, want 404", w.Code)
	}
	if w := doG(t, g, "PUT", "/datasets/a", schemaB); w.Code != http.StatusCreated {
		t.Fatalf("recreate a with new schema: status %d: %s", w.Code, w.Body)
	}
	if h := decode[healthResponse](t, doG(t, g, "GET", "/datasets/a/healthz", "")); h.Rows != 0 {
		t.Fatalf("recreated a has %d rows, want 0", h.Rows)
	}
}

func mustSchemaFromJSON(t *testing.T, body string) *coverage.Schema {
	t.Helper()
	var req createRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	attrs := make([]coverage.Attribute, len(req.Attributes))
	for i, a := range req.Attributes {
		attrs[i] = coverage.Attribute{Name: a.Name, Values: a.Values}
	}
	schema, err := coverage.NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// TestGatewayLegacyRoutes: the adopted default tenant answers the
// unprefixed routes, appears in the list, and cannot be dropped.
func TestGatewayLegacyRoutes(t *testing.T) {
	g, reg := gatewayFixture(t, false)
	eng := engine.New(mustSchemaFromJSON(t, schemaA), engine.Options{})
	if err := eng.Append([][]uint8{{0, 2}, {1, 0}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Adopt(registry.DefaultTenant, eng, nil, registry.TenantOptions{}); err != nil {
		t.Fatal(err)
	}

	if h := decode[healthResponse](t, doG(t, g, "GET", "/healthz", "")); h.Rows != 3 {
		t.Fatalf("legacy healthz rows = %d, want 3", h.Rows)
	}
	w := doG(t, g, "POST", "/coverage", `{"patterns":["1X"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("legacy coverage: status %d: %s", w.Code, w.Body)
	}
	if cov := decode[coverageResponse](t, w); cov.Results[0].Coverage != 2 {
		t.Fatalf("legacy cov(male) = %d, want 2", cov.Results[0].Coverage)
	}
	// The prefixed form reaches the same tenant.
	w2 := doG(t, g, "POST", "/datasets/default/coverage", `{"patterns":["1X"]}`)
	if w2.Code != http.StatusOK || w2.Body.String() != w.Body.String() {
		t.Fatalf("prefixed default diverged: %d %s", w2.Code, w2.Body)
	}
	if w := doG(t, g, "DELETE", "/datasets/default", ""); w.Code != http.StatusForbidden {
		t.Fatalf("drop default: status %d, want 403", w.Code)
	}
	// No default tenant → legacy routes 404 rather than 500.
	g2, _ := gatewayFixture(t, false)
	if w := doG(t, g2, "GET", "/healthz", ""); w.Code != http.StatusNotFound {
		t.Fatalf("legacy route without default tenant: status %d, want 404", w.Code)
	}
}

// TestGatewayBudget429: a tenant created with an admission budget gets
// 429 + Retry-After past its burst; an unbudgeted tenant is unaffected.
func TestGatewayBudget429(t *testing.T) {
	g, _ := gatewayFixture(t, false)
	body := schemaA[:len(schemaA)-1] + `,"budget_per_sec":0.001,"budget_burst":2}`
	if w := doG(t, g, "PUT", "/datasets/scarce", body); w.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	if w := doG(t, g, "PUT", "/datasets/free", schemaB); w.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	for i := 0; i < 2; i++ {
		if w := doG(t, g, "POST", "/datasets/scarce/coverage", `{"patterns":["XX"]}`); w.Code != http.StatusOK {
			t.Fatalf("probe %d within burst: status %d: %s", i, w.Code, w.Body)
		}
	}
	w := doG(t, g, "POST", "/datasets/scarce/coverage", `{"patterns":["XX"]}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("probe past burst: status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive second count", ra)
	}
	// Budgets are per-tenant: the other tenant still answers.
	if w := doG(t, g, "POST", "/datasets/free/coverage", `{"patterns":["XXX"]}`); w.Code != http.StatusOK {
		t.Fatalf("unbudgeted tenant: status %d: %s", w.Code, w.Body)
	}
	// Appends are not search-class work and ride free.
	if w := doG(t, g, "POST", "/datasets/scarce/append", `{"codes":[[0,0]]}`); w.Code != http.StatusOK {
		t.Fatalf("append under exhausted budget: status %d: %s", w.Code, w.Body)
	}
}

// TestGatewayBodyCaps: per-tenant body caps turn oversize JSON and
// NDJSON requests into 413s without touching other tenants.
func TestGatewayBodyCaps(t *testing.T) {
	g, _ := gatewayFixture(t, false)
	body := schemaA[:len(schemaA)-1] + `,"max_body_bytes":120,"max_stream_bytes":150}`
	if w := doG(t, g, "PUT", "/datasets/tiny", body); w.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	if w := doG(t, g, "POST", "/datasets/tiny/append", `{"codes":[[0,0]]}`); w.Code != http.StatusOK {
		t.Fatalf("small append: status %d: %s", w.Code, w.Body)
	}
	big := `{"codes":[` + strings.Repeat(`[0,0],`, 40) + `[0,0]]}`
	if w := doG(t, g, "POST", "/datasets/tiny/append", big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize append: status %d, want 413", w.Code)
	}

	req := httptest.NewRequest("POST", "/datasets/tiny/append",
		strings.NewReader(strings.Repeat("[0,0]\n", 40)))
	req.Header.Set("Content-Type", "application/x-ndjson")
	w := httptest.NewRecorder()
	g.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize NDJSON stream: status %d, want 413: %s", w.Code, w.Body)
	}
}
