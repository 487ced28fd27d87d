package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"coverage"
	"coverage/internal/engine"
	"coverage/internal/registry"
)

// gateway is the multi-tenant front of covserve: it owns the dataset
// registry, serves the /datasets lifecycle API, dispatches
// /datasets/{id}/... to a per-tenant server, and keeps the legacy
// unprefixed routes working against the default tenant.
//
// Per-tenant servers are cached by residency generation: a tenant that
// was parked and lazily restored comes back with a fresh engine, so
// its cached handler table is rebuilt on the next request. Every
// request holds a registry lease for its whole duration — the tenant
// cannot be evicted or finalized mid-request.
type gateway struct {
	reg *registry.Registry
	mux *http.ServeMux

	mu      sync.Mutex
	servers map[string]cachedServer
}

type cachedServer struct {
	gen uint64
	srv *server
}

func newGateway(reg *registry.Registry) *gateway {
	g := &gateway{reg: reg, mux: http.NewServeMux(), servers: make(map[string]cachedServer)}
	g.mux.HandleFunc("GET /datasets", g.handleList)
	g.mux.HandleFunc("PUT /datasets/{id}", g.handleCreate)
	g.mux.HandleFunc("DELETE /datasets/{id}", g.handleDrop)
	g.mux.HandleFunc("/datasets/{id}/{rest...}", g.handleTenant)
	// Everything else is a legacy route against the default tenant.
	g.mux.HandleFunc("/", g.handleLegacy)
	return g
}

func (g *gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// registryStatus maps registry errors to HTTP statuses.
func registryStatus(err error) int {
	switch {
	case errors.Is(err, registry.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrExists):
		return http.StatusConflict
	case errors.Is(err, registry.ErrProtected):
		return http.StatusForbidden
	case errors.Is(err, registry.ErrBadID):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// createRequest is the PUT /datasets/{id} body: the schema, plus
// optional per-tenant knobs.
type createRequest struct {
	Attributes []struct {
		Name   string   `json:"name"`
		Values []string `json:"values"`
	} `json:"attributes"`
	Window int `json:"window,omitempty"`
	Shards int `json:"shards,omitempty"`
	// BudgetPerSec / BudgetBurst bound search-class requests for this
	// tenant (absent: the registry default; explicit 0 disables).
	BudgetPerSec *float64 `json:"budget_per_sec,omitempty"`
	BudgetBurst  float64  `json:"budget_burst,omitempty"`
	// MaxBodyBytes / MaxStreamBytes cap this tenant's JSON and NDJSON
	// request bodies (0: the registry default).
	MaxBodyBytes   int64 `json:"max_body_bytes,omitempty"`
	MaxStreamBytes int64 `json:"max_stream_bytes,omitempty"`
}

type createResponse struct {
	ID      string `json:"id"`
	Created bool   `json:"created"`
}

func (g *gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req createRequest
	// The lifecycle API is not tenant-scoped, so the body rides under
	// the default cap; a throwaway zero-config server supplies the
	// decoder.
	if !(&server{}).decodeBody(w, r, &req) {
		return
	}
	if len(req.Attributes) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("attributes must be non-empty"))
		return
	}
	attrs := make([]coverage.Attribute, len(req.Attributes))
	for i, a := range req.Attributes {
		attrs[i] = coverage.Attribute{Name: a.Name, Values: a.Values}
	}
	schema, err := coverage.NewSchema(attrs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	topts := registry.TenantOptions{
		Engine:         engine.Options{Shards: req.Shards},
		Window:         req.Window,
		MaxBodyBytes:   req.MaxBodyBytes,
		MaxStreamBytes: req.MaxStreamBytes,
	}
	if req.BudgetPerSec != nil {
		topts.Budget = &registry.BudgetConfig{PerSec: *req.BudgetPerSec, Burst: req.BudgetBurst}
	}
	created, err := g.reg.Ensure(id, schema, topts)
	if err != nil {
		writeError(w, registryStatus(err), err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, createResponse{ID: id, Created: created})
}

func (g *gateway) handleDrop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := g.reg.Drop(id); err != nil {
		writeError(w, registryStatus(err), err)
		return
	}
	g.mu.Lock()
	delete(g.servers, id)
	g.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"dropped": id})
}

// listResponse is GET /datasets: every tenant plus registry counters.
type listResponse struct {
	Datasets []registry.TenantInfo `json:"datasets"`
	Stats    registry.Stats        `json:"stats"`
}

func (g *gateway) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, listResponse{Datasets: g.reg.List(), Stats: g.reg.Stats()})
}

func (g *gateway) handleTenant(w http.ResponseWriter, r *http.Request) {
	g.serveTenant(w, r, r.PathValue("id"), "/"+r.PathValue("rest"))
}

func (g *gateway) handleLegacy(w http.ResponseWriter, r *http.Request) {
	g.serveTenant(w, r, registry.DefaultTenant, r.URL.Path)
}

// serveTenant leases the tenant, rewrites the path and hands the
// request to the tenant's server. The lease spans the whole request.
func (g *gateway) serveTenant(w http.ResponseWriter, r *http.Request, id, path string) {
	h, err := g.reg.Acquire(id)
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			g.mu.Lock()
			delete(g.servers, id)
			g.mu.Unlock()
		}
		writeError(w, registryStatus(err), err)
		return
	}
	defer h.Release()
	r2 := new(http.Request)
	*r2 = *r
	u := *r.URL
	u.Path = path
	u.RawPath = ""
	r2.URL = &u
	g.serverFor(h).ServeHTTP(w, r2)
}

// serverFor returns the tenant's handler table, rebuilding it when the
// tenant was restored since it was cached. The caller's lease
// guarantees the engine stays resident while the server runs.
func (g *gateway) serverFor(h *registry.Handle) *server {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.servers[h.ID()]; ok && c.gen == h.Gen() {
		return c.srv
	}
	srv := newServerWith(coverage.NewAnalyzerFromEngine(h.Engine()), h.Store(), serverConfig{
		budget:    h.Budget(),
		pool:      g.reg.Pool(),
		weight:    h.SearchWeight(),
		maxBody:   h.MaxBodyBytes(),
		maxStream: h.MaxStreamBytes(),
	})
	g.servers[h.ID()] = cachedServer{gen: h.Gen(), srv: srv}
	return srv
}
