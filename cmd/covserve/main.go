// Command covserve serves coverage queries over a growing dataset —
// the interactive counterpart to the one-shot covreport/covfix
// commands. It loads a dataset once, then answers pattern coverage
// probes, MUP audits and remediation-plan requests over HTTP while
// accepting row appends, repairing its cached MUP sets — and the
// remediation plans derived from them — incrementally instead of
// rebuilding anything per request.
//
// With -data-dir the engine state is durable: every mutation is
// written to a write-ahead log before it is acknowledged, snapshots
// of the full engine state are taken in the background (and on
// demand via POST /snapshot), and a restarted covserve recovers by
// loading the newest snapshot and replaying only the WAL tail — warm
// in milliseconds instead of recomputing from raw rows.
//
// The engine is horizontally sharded: -shards (default one core per
// CPU, capped at 16) hash-partitions the combo space across N shard
// cores, parallelizing ingest and the per-core compactions while
// keeping every answer identical to a single-shard engine. Snapshots
// record the shard layout and re-partition on restore when -shards
// changes across a restart.
//
// covserve is multi-tenant: one process hosts many named datasets.
// PUT /datasets/{id} creates a tenant from a schema; every dataset
// endpoint is then available under /datasets/{id}/... — and the
// legacy unprefixed routes keep working against the "default" tenant
// (the dataset booted from -csv/-demo/-data-dir). With -data-dir,
// tenants persist under <dir>/tenants/<id>; cold tenants are parked
// to disk when the shared -max-resident-mb budget is exceeded and
// restored lazily on their next request. A shared -search-slots pool
// caps cross-tenant search parallelism, and per-tenant token-bucket
// budgets (-tenant-rps, or per-tenant via the create body) answer
// 429 + Retry-After when exceeded.
//
// Usage:
//
//	covserve -csv data.csv [-columns sex,age,race] [-addr :8080] [-window 100000] [-shards 8]
//	covserve -demo compas|airbnb|bluenile [-addr :8080]
//	covserve -data-dir /var/lib/covserve [-csv data.csv] [-snapshot-interval 5m] [-wal-sync=true]
//	covserve -data-dir /var/lib/covserve [-max-resident-mb 512] [-search-slots 8] [-tenant-rps 50]
//
// On a data dir that already holds state, -csv/-demo are ignored and
// the dataset is recovered from disk. Without any dataset flags the
// process boots registry-only: no default tenant, datasets are
// created over HTTP.
//
// Endpoints (unprefixed forms serve the default tenant; all are also
// available as /datasets/{id}/...):
//
//	GET    /datasets                       list tenants + registry counters
//	PUT    /datasets/{id} {"attributes":[...]} create a dataset (409 on schema conflict)
//	DELETE /datasets/{id}                  drop a dataset and its files
//	GET  /healthz                          liveness + row count
//	GET  /stats                            engine counters (compactions, repairs, window, persistence)
//	POST /coverage {"patterns":["X1X"]}    batch coverage probes
//	GET  /mups?tau=30|rate=0.001           maximal uncovered patterns
//	POST /append {"rows":[["male","white"]]} add rows (labels or raw codes)
//	POST /append (application/x-ndjson)    streaming bulk ingest, one JSON array per line
//	POST /delete {"rows":[["male","white"]]} retract rows (409 if not present)
//	GET  /window                           sliding-window configuration
//	POST /window {"max_rows":100000}       bound the dataset to the newest rows
//	POST /snapshot                         write a snapshot now (requires -data-dir)
//	POST /plan {"tau":30,"max_level":2}    remediation plan (cached per configuration,
//	                                       repaired incrementally after mutations)
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"coverage"
	"coverage/internal/datagen"
	"coverage/internal/engine"
	"coverage/internal/persist"
	"coverage/internal/registry"
)

// defaultShards derives the shard-core count from the machine: one
// core per CPU, capped — past a point more shards only shrink the
// per-core bases without adding parallelism.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	if n < 1 {
		n = 1
	}
	return n
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		csvPath = flag.String("csv", "", "CSV file to serve (first row is the header)")
		columns = flag.String("columns", "", "comma-separated attributes of interest (default: all)")
		demo    = flag.String("demo", "", "serve a synthetic demo dataset instead: compas, airbnb or bluenile")
		window  = flag.Int("window", 0, "sliding window: keep only the newest N rows (0 = unbounded)")
		shards  = flag.Int("shards", 0, "shard cores to hash-partition the combo space across (0 = one per CPU, capped at 16)")

		dataDir      = flag.String("data-dir", "", "directory for durable state (snapshots + WAL); empty serves in-memory only")
		snapInterval = flag.Duration("snapshot-interval", 5*time.Minute,
			"background snapshot cadence with -data-dir (0 disables; POST /snapshot still works)")
		walSync = flag.Bool("wal-sync", true,
			"fsync the WAL after every acknowledged mutation (survives power loss, not just process death)")

		follow = flag.String("follow", "",
			"run as a read replica of the leader covserve at this URL (requires -data-dir; mutations are refused with a leader redirect)")
		followWait = flag.Duration("follow-wait", 25*time.Second,
			"long-poll wait per WAL tail request when following a leader: the leader parks the request until a commit lands, so replication lag is one RTT (must be > 0)")
		replicaID = flag.String("replica-id", "",
			"stable replica name sent on feed requests for the leader's /topology (default <hostname>-<pid>)")

		maxResidentMB = flag.Int64("max-resident-mb", 0,
			"shared budget for warm tenants' count stores in MiB; coldest tenants park to disk past it (0 = unlimited)")
		searchSlots = flag.Int("search-slots", 0,
			"shared worker-slot cap on cross-tenant search/plan parallelism (0 = GOMAXPROCS)")
		tenantRPS = flag.Float64("tenant-rps", 0,
			"default per-tenant admission budget for search-class requests, in requests/sec (0 = unlimited)")
		tenantBurst = flag.Float64("tenant-burst", 0,
			"default per-tenant admission burst (0 = same as -tenant-rps)")
		maxBodyMB = flag.Int64("max-body-mb", 0,
			"default per-tenant cap on JSON request bodies in MiB; oversize requests get 413 (0 = 8 MiB)")
		maxStreamMB = flag.Int64("max-stream-mb", 0,
			"default per-tenant cap on NDJSON streaming bodies in MiB (0 = 1 GiB)")
	)
	flag.Parse()
	if *shards <= 0 {
		*shards = defaultShards()
	}

	engOpts := engine.Options{Shards: *shards}

	if *follow != "" {
		if *dataDir == "" {
			fatal(errors.New("-follow requires -data-dir (the replica persists what it tails)"))
		}
		if *followWait <= 0 {
			fatal(errors.New("-follow-wait must be > 0"))
		}
		id := *replicaID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "replica"
			}
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		runFollower(*addr, *dataDir, *follow, *followWait, id, *snapInterval,
			persist.Options{SyncWAL: *walSync, Engine: engOpts})
		return
	}

	reg, err := registry.Open(registry.Options{
		Dir:              *dataDir,
		MaxResidentBytes: *maxResidentMB << 20,
		SearchSlots:      *searchSlots,
		SyncWAL:          *walSync,
		Engine:           engOpts,
		Budget:           registry.BudgetConfig{PerSec: *tenantRPS, Burst: *tenantBurst},
		MaxBodyBytes:     *maxBodyMB << 20,
		MaxStreamBytes:   *maxStreamMB << 20,
	})
	if err != nil {
		fatal(err)
	}

	an, store, err := buildAnalyzer(*dataDir, *csvPath, *columns, *demo, *walSync, engOpts)
	switch {
	case errors.Is(err, errNoDataset):
		// Registry-only boot: no default tenant; datasets arrive over
		// PUT /datasets/{id}.
		log.Printf("covserve: no default dataset; %d registered tenant(s)", len(reg.List()))
	case err != nil:
		fatal(err)
	default:
		log.Printf("covserve: %d shard core(s)", an.Engine().Shards())
		if *window > 0 {
			if store != nil {
				if err := store.SetWindow(*window); err != nil {
					fatal(err)
				}
			} else {
				an.SetWindow(*window)
			}
			log.Printf("covserve: sliding window of %d rows", *window)
		}
		if err := reg.Adopt(registry.DefaultTenant, an.Engine(), store,
			registry.TenantOptions{Engine: engOpts, Window: *window}); err != nil {
			fatal(err)
		}
		log.Printf("covserve: serving %d rows × %d attributes as dataset %q",
			an.NumRows(), an.Dataset().Dim(), registry.DefaultTenant)
	}
	if *snapInterval > 0 {
		go snapshotLoop(reg, *snapInterval)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("covserve: listening on %s", ln.Addr())
	srv := &http.Server{
		Handler:           newGateway(reg),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
		// No WriteTimeout: a first full MUP search on a paper-scale
		// dataset can legitimately run for minutes.
	}
	if err := srv.Serve(ln); err != nil {
		fatal(err)
	}
}

// runFollower boots and serves a read replica: bootstrap or recover
// the local data directory, tail the leader's WAL with long-polls of
// waitFor, checkpoint locally on the snapshot interval, and serve reads
// (writes are refused with a leader redirect).
func runFollower(addr, dataDir, leaderURL string, waitFor time.Duration, replicaID string, snapEvery time.Duration, opts persist.Options) {
	f, err := newFollower(dataDir, leaderURL, waitFor, replicaID, opts)
	if err != nil {
		fatal(err)
	}
	log.Printf("covserve: following %s at generation %d as %q (%s long-polls)", leaderURL, f.engineGen(), replicaID, waitFor)
	stop := make(chan struct{})
	go f.run(stop)
	if snapEvery > 0 {
		go f.snapshotLoop(snapEvery, stop)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("covserve: replica listening on %s", ln.Addr())
	srv := &http.Server{
		Handler:           f,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	if err := srv.Serve(ln); err != nil {
		fatal(err)
	}
}

// buildAnalyzer resolves the three boot paths: recover durable state
// from the data dir, start fresh-and-durable from a dataset, or serve
// purely in memory. The engine under the analyzer is built with the
// requested shard count; a recovered snapshot with a different layout
// is re-partitioned through the hash router on restore.
func buildAnalyzer(dataDir, csvPath, columns, demo string, walSync bool, engOpts engine.Options) (*coverage.Analyzer, *persist.Store, error) {
	if dataDir == "" {
		ds, err := loadDataset(csvPath, columns, demo)
		if err != nil {
			return nil, nil, err
		}
		return coverage.NewAnalyzerFromDataset(ds, engOpts), nil, nil
	}

	store, err := persist.Open(dataDir, persist.Options{SyncWAL: walSync, Engine: engOpts})
	if err != nil {
		return nil, nil, err
	}
	eng, info, err := store.Recover()
	switch {
	case err == nil:
		if csvPath != "" || demo != "" {
			log.Printf("covserve: ignoring -csv/-demo: recovering existing state from %s", dataDir)
		}
		log.Printf("covserve: recovered snapshot generation %d + %d delta(s) + %d WAL record(s) in %d batch(es) in %s",
			info.SnapshotGeneration, info.DeltasApplied, info.Replayed, info.ReplayRuns, info.Duration.Round(time.Millisecond))
		for _, skipped := range info.SkippedSnapshots {
			log.Printf("covserve: WARNING: skipped unreadable snapshot %s", skipped)
		}
		if info.TornTailDropped {
			log.Printf("covserve: WARNING: dropped a torn WAL tail (mutation unacknowledged at crash)")
		}
		return coverage.NewAnalyzerFromEngine(eng), store, nil
	case errors.Is(err, persist.ErrNoState):
		ds, err := loadDataset(csvPath, columns, demo)
		if err != nil {
			store.Close()
			if errors.Is(err, errNoDataset) {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("%w (the data dir %s is empty, so a dataset is required)", err, dataDir)
		}
		an := coverage.NewAnalyzerFromDataset(ds, engOpts)
		if err := store.Attach(an.Engine()); err != nil {
			return nil, nil, err
		}
		log.Printf("covserve: initialized data dir %s (snapshot at generation %d)", dataDir, an.Engine().Generation())
		return an, store, nil
	default:
		return nil, nil, fmt.Errorf("recovering %s: %w", dataDir, err)
	}
}

// snapshotLoop sweeps every resident persistent tenant on the
// interval, snapshotting the ones with acknowledged mutations since
// their last snapshot; idle ticks touch nothing and parked tenants
// are never woken.
func snapshotLoop(reg *registry.Registry, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for range t.C {
		taken, err := reg.SnapshotDirty()
		if err != nil {
			log.Printf("covserve: background snapshot failed: %v", err)
		}
		if taken > 0 {
			log.Printf("covserve: background snapshot of %d tenant(s)", taken)
		}
	}
}

func loadDataset(csvPath, columns, demo string) (*coverage.Dataset, error) {
	switch {
	case csvPath != "" && demo != "":
		return nil, fmt.Errorf("use either -csv or -demo, not both")
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var cols []string
		if columns != "" {
			cols = strings.Split(columns, ",")
		}
		return coverage.ReadCSV(f, coverage.CSVOptions{Columns: cols})
	case demo == "compas":
		ds, _ := datagen.COMPAS(6889, 42)
		return ds, nil
	case demo == "airbnb":
		return datagen.AirBnB(100000, 13, 42), nil
	case demo == "bluenile":
		return datagen.BlueNile(116300, 42), nil
	case demo != "":
		return nil, fmt.Errorf("unknown demo %q; use compas, airbnb or bluenile", demo)
	default:
		return nil, errNoDataset
	}
}

// errNoDataset means no -csv/-demo was given and no state recovered:
// covserve boots registry-only, with no default tenant.
var errNoDataset = errors.New("a -csv file or -demo dataset is required")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "covserve:", err)
	os.Exit(1)
}
