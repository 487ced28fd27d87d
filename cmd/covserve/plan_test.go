package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPlanEndpointCachesAndRepairs drives /plan through the serving
// lifecycle: a first request builds, an identical request hits the
// cache, a mutation forces a repair, and /stats exposes the planner
// counters throughout.
func TestPlanEndpointCachesAndRepairs(t *testing.T) {
	s := serveFixture(t)

	w := do(t, s, "POST", "/plan", `{"tau": 2, "max_level": 2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	first := decode[planResponse](t, w)
	if first.Tuples == 0 || first.Algorithm != "greedy" {
		t.Fatalf("plan = %+v", first)
	}

	w = do(t, s, "POST", "/plan", `{"tau": 2, "max_level": 2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	second := decode[planResponse](t, w)
	if second.Tuples != first.Tuples {
		t.Fatalf("cached plan diverged: %+v vs %+v", second, first)
	}

	st := decode[statsResponse](t, do(t, s, "GET", "/stats", ""))
	if st.PlanCache.Builds != 1 || st.PlanCache.Hits != 1 || st.PlanCache.CachedPlans != 1 || st.PlanCache.Probes != 2 {
		t.Fatalf("plan_cache = %+v", st.PlanCache)
	}

	// A mutation invalidates the generation; the next /plan repairs
	// (or rebuilds) instead of answering from cache.
	w = do(t, s, "POST", "/append", `{"rows": [["female", "other"], ["female", "other"]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("append status %d: %s", w.Code, w.Body)
	}
	w = do(t, s, "POST", "/plan", `{"tau": 2, "max_level": 2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	st = decode[statsResponse](t, do(t, s, "GET", "/stats", ""))
	if st.PlanCache.Probes != 3 || st.PlanCache.Hits != 1 {
		t.Fatalf("plan_cache after mutation = %+v", st.PlanCache)
	}
	if st.PlanCache.TargetRepairs+st.PlanCache.Rebuilds != 1 {
		t.Fatalf("mutation did not route through repair: %+v", st.PlanCache)
	}
}

// TestPlanEndpointClientDisconnect pins the cancellation path: a
// request whose context is already canceled (the client hung up) is
// answered 499-style without running the search.
func TestPlanEndpointClientDisconnect(t *testing.T) {
	s := serveFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/plan", strings.NewReader(`{"tau": 2, "max_level": 2}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", w.Code, statusClientClosedRequest, w.Body)
	}
}

// TestPlanEndpointRejectsWorkers: /plan bodies are decoded with
// DisallowUnknownFields, and "workers" is no longer a field, so a body
// that sends it is a 400 that runs no search.
func TestPlanEndpointRejectsWorkers(t *testing.T) {
	s := serveFixture(t)
	w := do(t, s, "POST", "/plan", `{"tau": 2, "max_level": 2, "workers": 4}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "workers") {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	st := decode[statsResponse](t, do(t, s, "GET", "/stats", ""))
	if st.PlanCache.Builds != 0 || st.FullSearches != 0 {
		t.Fatalf("rejected /plan ran a search: plan_cache %+v, full_searches %d", st.PlanCache, st.FullSearches)
	}
}
