// Package registry hosts many named coverage datasets — tenants —
// inside one serving process. Each tenant owns an engine and,
// when the registry has a data directory, a persist.Store under
// <dir>/tenants/<id>. Warm tenants live in memory under a shared
// resident-byte budget; the least recently touched evictable tenant
// is parked to disk (snapshot + WAL close) when the budget is
// exceeded, and parked tenants are restored lazily on first touch.
// A shared worker-slot pool caps cross-tenant search parallelism and
// per-tenant token-bucket budgets bound request admission.
package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"coverage/internal/dataset"
	"coverage/internal/engine"
	"coverage/internal/persist"
)

var (
	// ErrNotFound reports an unknown (or dropped) tenant id.
	ErrNotFound = errors.New("registry: no such dataset")
	// ErrExists reports a create over an id whose schema differs.
	ErrExists = errors.New("registry: dataset exists with a different schema")
	// ErrProtected reports a drop of a tenant the registry did not
	// create (the adopted default dataset, whose directory is the
	// process data root, not a tenant subdirectory the registry may
	// delete).
	ErrProtected = errors.New("registry: dataset is protected from deletion")
	// ErrBadID reports a tenant id unusable as a directory name.
	ErrBadID = errors.New("registry: invalid dataset id")
)

// DefaultTenant is the id the legacy unprefixed covserve routes are
// served from.
const DefaultTenant = "default"

// Options configures a Registry.
type Options struct {
	// Dir is the persistence root. Tenants the registry creates live
	// under Dir/tenants/<id>; empty means memory-only tenants that
	// can never be parked.
	Dir string
	// MaxResidentBytes is the shared budget for warm tenants' resident
	// bytes as their engines count them (engine.ResidentBytes: count
	// stores and stored /mups bodies); 0 disables eviction.
	MaxResidentBytes int64
	// SearchSlots caps cross-tenant search/plan parallelism; 0 means
	// GOMAXPROCS.
	SearchSlots int
	// SyncWAL and Engine configure each tenant's store and engine;
	// per-tenant options override Engine field-wise.
	SyncWAL bool
	Engine  engine.Options
	// Budget is the default per-tenant admission budget (zero:
	// unlimited); MaxBodyBytes / MaxStreamBytes the default JSON and
	// NDJSON request caps (zero: the server's defaults).
	Budget         BudgetConfig
	MaxBodyBytes   int64
	MaxStreamBytes int64
}

// TenantOptions configure one tenant at creation; zero fields inherit
// the registry defaults.
type TenantOptions struct {
	Engine         engine.Options
	Window         int
	Budget         *BudgetConfig
	MaxBodyBytes   int64
	MaxStreamBytes int64
}

// Registry is the tenant table. All methods are safe for concurrent
// use.
type Registry struct {
	opts Options
	pool *Pool

	clock atomic.Uint64 // LRU touch stamps

	mu        sync.Mutex
	tenants   map[string]*Tenant
	restores  int64
	evictions int64
}

// Tenant is one named dataset. Resident state (engine, store) comes
// and goes as the tenant is parked and restored; identity (id, dir,
// options, budget) is fixed at creation.
type Tenant struct {
	reg    *Registry
	id     string
	dir    string // persistence directory; "" = memory-only, never parked
	topts  TenantOptions
	budget *Budget
	// adopted marks a tenant whose directory the registry does not
	// own (the default dataset at the data root) — parked normally,
	// but never deleted from disk.
	adopted bool

	mu      sync.Mutex
	eng     *engine.Engine
	store   *persist.Store
	refs    int
	dead    bool
	gen     uint64 // bumps on every restore: residency-cache invalidation
	touched uint64
	sig     string // schema signature, known once resident at least once
}

// Handle is a referenced-counted lease on a resident tenant. Holding
// one pins the tenant in memory; Release is mandatory.
type Handle struct {
	t        *Tenant
	released atomic.Bool
}

// TenantInfo is one row of List.
type TenantInfo struct {
	ID       string `json:"id"`
	Resident bool   `json:"resident"`
	Rows     int64  `json:"rows,omitempty"`
	Bytes    int64  `json:"store_bytes,omitempty"`
	Persists bool   `json:"persistent"`
}

// Stats reports registry-level counters.
type Stats struct {
	Tenants       int   `json:"tenants"`
	Resident      int   `json:"resident"`
	ResidentBytes int64 `json:"resident_bytes"`
	MaxResident   int64 `json:"max_resident_bytes"`
	Restores      int64 `json:"restores"`
	Evictions     int64 `json:"evictions"`
	SearchSlots   int   `json:"search_slots"`
}

// ValidateID accepts ids usable as a path segment and a directory
// name: 1–64 chars of [A-Za-z0-9._-], starting with an alphanumeric.
func ValidateID(id string) error {
	if id == "" || len(id) > 64 {
		return ErrBadID
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return ErrBadID
		}
	}
	return nil
}

// schemaSig is the identity a PUT over an existing id is compared
// against: attribute names and value lists, order-sensitive.
func schemaSig(s *dataset.Schema) string {
	var b strings.Builder
	for i := 0; i < s.Dim(); i++ {
		a := s.Attr(i)
		b.WriteString(a.Name)
		b.WriteByte('=')
		b.WriteString(strings.Join(a.Values, ","))
		b.WriteByte(';')
	}
	return b.String()
}

// Open builds a registry and registers — parked — every tenant
// directory found under Dir/tenants.
func Open(opts Options) (*Registry, error) {
	r := &Registry{
		opts:    opts,
		pool:    NewPool(opts.SearchSlots),
		tenants: make(map[string]*Tenant),
	}
	if opts.Dir == "" {
		return r, nil
	}
	entries, err := os.ReadDir(filepath.Join(opts.Dir, "tenants"))
	if errors.Is(err, os.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: scanning tenants: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || ValidateID(e.Name()) != nil {
			continue
		}
		id := e.Name()
		r.tenants[id] = &Tenant{
			reg: r,
			id:  id,
			dir: filepath.Join(opts.Dir, "tenants", id),
		}
	}
	return r, nil
}

// Pool is the shared search-slot pool.
func (r *Registry) Pool() *Pool { return r.pool }

// tenantDir is where a registry-created tenant persists, or "" for a
// memory-only registry.
func (r *Registry) tenantDir(id string) string {
	if r.opts.Dir == "" {
		return ""
	}
	return filepath.Join(r.opts.Dir, "tenants", id)
}

// mergeEngine fills zero fields of per-tenant engine options from the
// registry default.
func (r *Registry) mergeEngine(o engine.Options) engine.Options {
	d := r.opts.Engine
	if o.Shards == 0 {
		o.Shards = d.Shards
	}
	if o.Workers == 0 {
		o.Workers = d.Workers
	}
	return o
}

// budgetFor resolves a tenant's admission budget.
func (r *Registry) budgetFor(topts TenantOptions) *Budget {
	cfg := r.opts.Budget
	if topts.Budget != nil {
		cfg = *topts.Budget
	}
	return NewBudget(cfg)
}

// Ensure creates the tenant if absent, or verifies the schema matches
// if present (restoring a parked tenant to compare). It reports
// whether the tenant was created.
func (r *Registry) Ensure(id string, schema *dataset.Schema, topts TenantOptions) (created bool, err error) {
	if err := ValidateID(id); err != nil {
		return false, err
	}
	sig := schemaSig(schema)
	r.mu.Lock()
	if t, ok := r.tenants[id]; ok {
		r.mu.Unlock()
		h, err := r.acquire(t)
		if err != nil {
			return false, err
		}
		defer h.Release()
		if h.t.sig != sig {
			return false, ErrExists
		}
		return false, nil
	}
	t, err := r.createLocked(id, schema, topts)
	r.mu.Unlock()
	if err != nil {
		return false, err
	}
	t.mu.Lock()
	t.touched = r.clock.Add(1)
	t.mu.Unlock()
	r.EnforceBudget()
	return true, nil
}

// createLocked builds a fresh tenant under r.mu. If its directory
// already holds recoverable state (a dropped-then-recreated id whose
// removal half-failed, or a directory placed by hand), that state is
// adopted when its schema matches and rejected otherwise.
func (r *Registry) createLocked(id string, schema *dataset.Schema, topts TenantOptions) (*Tenant, error) {
	topts.Engine = r.mergeEngine(topts.Engine)
	t := &Tenant{
		reg:    r,
		id:     id,
		dir:    r.tenantDir(id),
		topts:  topts,
		budget: r.budgetFor(topts),
		gen:    1,
	}
	if t.dir == "" {
		t.eng = engine.New(schema, topts.Engine)
		if topts.Window > 0 {
			t.eng.SetWindow(topts.Window)
		}
		t.sig = schemaSig(schema)
		r.tenants[id] = t
		return t, nil
	}
	store, err := persist.Open(t.dir, persist.Options{SyncWAL: r.opts.SyncWAL, Engine: topts.Engine})
	if err != nil {
		return nil, err
	}
	eng, _, err := store.Recover()
	switch {
	case errors.Is(err, persist.ErrNoState):
		eng = engine.New(schema, topts.Engine)
		if topts.Window > 0 {
			eng.SetWindow(topts.Window)
		}
		if err := store.Attach(eng); err != nil {
			store.Close()
			return nil, err
		}
	case err != nil:
		store.Close()
		return nil, err
	default:
		if schemaSig(eng.Schema()) != schemaSig(schema) {
			store.Close()
			return nil, ErrExists
		}
	}
	t.eng, t.store, t.sig = eng, store, schemaSig(schema)
	r.tenants[id] = t
	return t, nil
}

// Adopt registers an externally built tenant — covserve's default
// dataset, whose store (when present) lives at the data root rather
// than a tenant subdirectory. Adopted tenants park and restore like
// any other when they have a store, but Drop never deletes their
// files.
func (r *Registry) Adopt(id string, eng *engine.Engine, store *persist.Store, topts TenantOptions) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	t := &Tenant{
		reg:     r,
		id:      id,
		topts:   topts,
		budget:  r.budgetFor(topts),
		adopted: true,
		eng:     eng,
		store:   store,
		gen:     1,
		sig:     schemaSig(eng.Schema()),
		touched: r.clock.Add(1),
	}
	if store != nil {
		t.dir = store.Dir()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[id]; ok {
		return fmt.Errorf("registry: %q already registered", id)
	}
	r.tenants[id] = t
	return nil
}

// Acquire leases the tenant, restoring it from disk if parked. The
// caller must Release the handle.
func (r *Registry) Acquire(id string) (*Handle, error) {
	r.mu.Lock()
	t, ok := r.tenants[id]
	r.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	h, err := r.acquire(t)
	if err != nil {
		return nil, err
	}
	r.EnforceBudget()
	return h, nil
}

func (r *Registry) acquire(t *Tenant) (*Handle, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return nil, ErrNotFound
	}
	if t.eng == nil {
		if err := t.restoreLocked(); err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.restores++
		r.mu.Unlock()
	}
	t.refs++
	t.touched = r.clock.Add(1)
	return &Handle{t: t}, nil
}

// restoreLocked rebuilds a parked tenant's engine from its directory.
// Caller holds t.mu.
func (t *Tenant) restoreLocked() error {
	if t.dir == "" {
		return fmt.Errorf("registry: %q has no resident engine and no directory", t.id)
	}
	store, err := persist.Open(t.dir, persist.Options{SyncWAL: t.reg.opts.SyncWAL, Engine: t.reg.mergeEngine(t.topts.Engine)})
	if err != nil {
		return err
	}
	eng, _, err := store.Recover()
	if err != nil {
		store.Close()
		return fmt.Errorf("registry: restoring %q: %w", t.id, err)
	}
	t.eng, t.store = eng, store
	t.sig = schemaSig(eng.Schema())
	t.gen++
	return nil
}

// Drop removes the tenant: the id disappears immediately; the
// resident state and (for registry-owned tenants) the directory go
// away once the last outstanding handle is released.
func (r *Registry) Drop(id string) error {
	r.mu.Lock()
	t, ok := r.tenants[id]
	if ok && t.adopted {
		r.mu.Unlock()
		return ErrProtected
	}
	if ok {
		delete(r.tenants, id)
	}
	r.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	t.mu.Lock()
	t.dead = true
	last := t.refs == 0
	t.mu.Unlock()
	if last {
		t.finalize()
	}
	return nil
}

// finalize tears down a dead tenant outside any registry lock.
func (t *Tenant) finalize() {
	t.mu.Lock()
	store, dir := t.store, t.dir
	t.eng, t.store = nil, nil
	t.mu.Unlock()
	if store != nil {
		store.Close()
	}
	if dir != "" && !t.adopted {
		os.RemoveAll(dir)
	}
}

// Release returns the lease. The final release of a dropped tenant
// deletes it; any release may trigger eviction of colder tenants.
func (h *Handle) Release() {
	if h.released.Swap(true) {
		return
	}
	t := h.t
	t.mu.Lock()
	t.refs--
	dead := t.dead && t.refs == 0
	t.mu.Unlock()
	if dead {
		t.finalize()
		return
	}
	t.reg.EnforceBudget()
}

// ID is the tenant id.
func (h *Handle) ID() string { return h.t.id }

// Engine is the tenant's resident engine; valid until Release.
func (h *Handle) Engine() *engine.Engine { return h.t.eng }

// Store is the tenant's persist store, nil for memory-only tenants;
// valid until Release.
func (h *Handle) Store() *persist.Store { return h.t.store }

// Budget is the tenant's admission budget (nil = unlimited).
func (h *Handle) Budget() *Budget { return h.t.budget }

// Gen identifies the residency incarnation: it changes every time the
// tenant is restored from disk, so per-tenant caches (covserve's
// handler tables) keyed on it rebuild after a park/restore cycle.
func (h *Handle) Gen() uint64 { return h.t.gen }

// MaxBodyBytes is the tenant's JSON body cap (0 = server default).
func (h *Handle) MaxBodyBytes() int64 {
	if b := h.t.topts.MaxBodyBytes; b > 0 {
		return b
	}
	return h.t.reg.opts.MaxBodyBytes
}

// MaxStreamBytes is the tenant's NDJSON stream cap (0 = server
// default).
func (h *Handle) MaxStreamBytes() int64 {
	if b := h.t.topts.MaxStreamBytes; b > 0 {
		return b
	}
	return h.t.reg.opts.MaxStreamBytes
}

// SearchWeight is how many pool slots the tenant's searches take: its
// engine worker fan-out.
func (h *Handle) SearchWeight() int {
	if w := h.t.topts.Engine.Workers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// EnforceBudget parks least-recently-touched evictable tenants until
// resident bytes fit the budget. Tenants with outstanding handles,
// memory-only tenants (nowhere to park to) and dead tenants are
// never evicted.
func (r *Registry) EnforceBudget() {
	max := r.opts.MaxResidentBytes
	if max <= 0 {
		return
	}
	skip := make(map[*Tenant]bool)
	for {
		total, victim := r.lruScan(skip)
		if total <= max || victim == nil {
			return
		}
		if parked := victim.park(); parked {
			r.mu.Lock()
			r.evictions++
			r.mu.Unlock()
		} else {
			// Raced with an Acquire or failed to snapshot: leave it
			// resident and look for the next candidate.
			skip[victim] = true
		}
	}
}

// lruScan totals resident bytes and picks the least recently touched
// evictable tenant.
func (r *Registry) lruScan(skip map[*Tenant]bool) (total int64, victim *Tenant) {
	r.mu.Lock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	var victimTouch uint64
	for _, t := range tenants {
		t.mu.Lock()
		if t.eng != nil && !t.dead {
			total += t.eng.ResidentBytes()
			if t.refs == 0 && t.dir != "" && !skip[t] &&
				(victim == nil || t.touched < victimTouch) {
				victim, victimTouch = t, t.touched
			}
		}
		t.mu.Unlock()
	}
	return total, victim
}

// park snapshots the tenant to its directory and drops the resident
// engine. Reports whether the tenant was actually parked (a
// concurrent Acquire or a persistence failure aborts it).
func (t *Tenant) park() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.eng == nil || t.refs > 0 || t.dead || t.dir == "" {
		return false
	}
	if t.store == nil {
		// A tenant with a directory always has a store while resident;
		// defensive only.
		return false
	}
	if err := t.store.Park(); err != nil {
		return false
	}
	t.eng, t.store = nil, nil
	return true
}

// List reports every tenant, sorted by id.
func (r *Registry) List() []TenantInfo {
	r.mu.Lock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	infos := make([]TenantInfo, 0, len(tenants))
	for _, t := range tenants {
		t.mu.Lock()
		info := TenantInfo{ID: t.id, Resident: t.eng != nil, Persists: t.dir != ""}
		if t.eng != nil {
			info.Rows = t.eng.Rows()
			info.Bytes = t.eng.ResidentBytes()
		}
		t.mu.Unlock()
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// Stats reports registry counters.
func (r *Registry) Stats() Stats {
	infos := r.List()
	r.mu.Lock()
	st := Stats{
		Tenants:     len(r.tenants),
		MaxResident: r.opts.MaxResidentBytes,
		Restores:    r.restores,
		Evictions:   r.evictions,
		SearchSlots: r.pool.Cap(),
	}
	r.mu.Unlock()
	for _, in := range infos {
		if in.Resident {
			st.Resident++
			st.ResidentBytes += in.Bytes
		}
	}
	return st
}

// SnapshotDirty snapshots every resident tenant whose store has
// acknowledged mutations past its last snapshot — the background
// snapshot loop's sweep. Parked tenants are already self-contained on
// disk and are not woken. It reports how many snapshots were taken
// and the first error.
func (r *Registry) SnapshotDirty() (taken int, firstErr error) {
	for _, info := range r.List() {
		if !info.Resident || !info.Persists {
			continue
		}
		h, err := r.Acquire(info.ID)
		if err != nil {
			continue
		}
		if st := h.Store(); st != nil && st.Dirty() {
			if _, err := st.Snapshot(); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("snapshotting %q: %w", info.ID, err)
				}
			} else {
				taken++
			}
		}
		h.Release()
	}
	return taken, firstErr
}

// Close parks every persistent tenant and shuts the registry down.
func (r *Registry) Close() error {
	r.mu.Lock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	var firstErr error
	for _, t := range tenants {
		t.mu.Lock()
		if t.store != nil {
			if err := t.store.Park(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		t.eng, t.store = nil, nil
		t.mu.Unlock()
	}
	return firstErr
}
