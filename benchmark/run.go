package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// system is the thing a workload is run against, with the lifecycle a
// run needs: boot on a fresh data directory, hand out clients, die
// without warning, come back on the same directory.
type system interface {
	// boot starts the system on a new, empty data directory.
	boot() error
	// client opens one closed-loop client. Clients are closed by stop
	// and crash.
	client() executor
	// crash ends the system the way SIGKILL does: nothing is flushed,
	// parked or snapshotted on the way out.
	crash()
	// restart brings the system back on the directory crash left.
	restart() error
	// stop ends the system and removes its data directory.
	stop()
	// usage reports the resources consumed since boot.
	usage() (procUsage, error)
	// requests counts the requests all clients sent since the first
	// boot, and how many of them failed.
	requests() (sent, failed int64)
	// registry reads the tenant table's counters.
	registry() (*registryCounters, error)
}

// runRecord is everything one pass of a workload over a system
// produced, before it is turned into named metrics.
type runRecord struct {
	lat        *recorder // latencies by op kind, all clients
	setupS     []float64 // one entry per set-up performed
	primaryOps int       // primary operations of the measured phase
	drivenOps  int       // those and the warm-up's
	opsPerS    float64   // primary operations per second, by blockRate
	recoverS   float64   // median of the crash-and-restart cycles
	use        procUsage // when the clients stopped
	cpuS       float64   // CPU seconds spent while the clients ran, warm-up included
	clientCPUS float64   // the benchmark's own CPU seconds in that time
	obs        map[string]float64
	mutated    int64
	sent       int64
	failed     int64
}

// crashes is how many times a run kills and restarts the system.
const crashes = 5

// runWorkload takes a workload through its whole life on sys: setups
// complete set-ups on fresh data directories (the last one is kept),
// the clients' loops — warm-up, then the measured phase, without a
// pause between them — the workload's own epilogue, the crashes and
// restarts, and the checks.
func runWorkload(sys system, w workload, sz sizing, setups int, t *tally) (*runRecord, error) {
	rr := &runRecord{}
	setupRec := newRecorder()
	var x0 executor
	defer sys.stop()
	for i := 0; i < setups; i++ {
		if i > 0 {
			sys.stop()
		}
		start := time.Now()
		if err := sys.boot(); err != nil {
			return nil, err
		}
		x0 = sys.client()
		if err := w.setup(x0, setupRec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rr.setupS = append(rr.setupS, time.Since(start).Seconds())
	}

	execs := []executor{x0}
	for len(execs) < w.clients() {
		execs = append(execs, sys.client())
	}
	recs := make([]*recorder, len(execs))
	errs := make([]error, len(execs))
	before, err := sys.usage()
	if err != nil {
		return nil, err
	}
	selfBefore, _ := readProcUsage("self")
	lim := sz.limiter()
	startAt := sinceEpoch()
	var wg sync.WaitGroup
	for i := range execs {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.drive(execs[i], i, lim, recs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
	}
	if rr.use, err = sys.usage(); err != nil {
		return nil, err
	}
	rr.cpuS = rr.use.cpuSeconds - before.cpuSeconds
	if self, err := readProcUsage("self"); err == nil {
		rr.clientCPUS = self.cpuSeconds - selfBefore.cpuSeconds
	}

	finishRec := newRecorder()
	if err := w.finish(x0, finishRec); err != nil {
		return nil, fmt.Errorf("epilogue: %w", err)
	}
	// The measured phase begins when the first primary operation
	// completes after the warm-up time, as it ends at the first
	// operation boundary after its own: a run of a dozen long operations
	// counts whole ones only.
	driven := merge(recs...)
	rr.drivenOps = len(driven.ms[w.primary()])
	measureAt := startAt
	if sz.warm > 0 {
		measureAt = math.Inf(1)
		for _, at := range driven.at[w.primary()] {
			if at >= startAt+sz.warm {
				measureAt = min(measureAt, at)
			}
		}
	}
	measured := driven.after(measureAt)
	rr.primaryOps = len(measured.ms[w.primary()])
	if rr.primaryOps == 0 {
		return nil, fmt.Errorf("no %s operation completed in the measured phase", w.primary())
	}
	rr.opsPerS = blockRate(measured.at[w.primary()], measureAt)
	rr.lat = merge(measured, setupRec, finishRec)
	if u, err := sys.usage(); err == nil {
		rr.use.peakRSSMiB = u.peakRSSMiB
	}
	reg, err := sys.registry()
	if err != nil {
		return nil, err
	}

	// Crash, restart, and wait for every tenant to answer with the
	// rows that were acknowledged. Recovery writes no snapshot, so each
	// of the crashes finds the directory the first one left; recover_s
	// is their median.
	var xr executor
	var recoveries []float64
	for i := 0; i < crashes; i++ {
		crashAt := time.Now()
		sys.crash()
		if err := sys.restart(); err != nil {
			return nil, fmt.Errorf("restart after the crash: %w", err)
		}
		xr = sys.client()
		recovered := map[string]int64{}
		for id := range w.tenants() {
			n, err := xr.rows(id)
			if err != nil {
				return nil, fmt.Errorf("tenant %s after the crash: %w", id, err)
			}
			recovered[id] = n
		}
		recoveries = append(recoveries, time.Since(crashAt).Seconds())
		for id, m := range w.tenants() {
			var err error
			if recovered[id] != m.rows {
				err = fmt.Errorf("tenant %s recovered %d rows, %d were acknowledged", id, recovered[id], m.rows)
			}
			t.check(err)
		}
	}
	rr.recoverS = median(recoveries)
	if err := w.verify(xr); err != nil {
		return nil, err
	}
	rr.obs = w.observed()
	rr.obs["registry.restores"] = float64(reg.Restores)
	rr.obs["registry.evictions"] = float64(reg.Evictions)
	rr.mutated = w.mutatedRows()
	rr.sent, rr.failed = sys.requests()
	return rr, nil
}

// httpSystem is a real covserve subprocess on a data directory under
// the build directory.
type httpSystem struct {
	bin      string
	root     string // where data directories are made
	workload string
	dataDir  string
	srv      *serverProc
	clients  []*httpExec
	boots    []float64 // exec → listening, ms
	sent     int64
	failedN  int64
	// appendBytes is the size of the last /append body a client sent.
	appendBytes int
}

func (s *httpSystem) boot() error {
	dir, err := newDataDir(s.root, s.workload)
	if err != nil {
		return err
	}
	s.dataDir = dir
	return s.restart()
}

func (s *httpSystem) restart() error {
	srv, err := startServer(s.bin, s.dataDir)
	if err != nil {
		return err
	}
	s.srv = srv
	s.boots = append(s.boots, ms(srv.boot))
	return nil
}

func (s *httpSystem) client() executor {
	c := newHTTPExec(s.srv.base)
	s.clients = append(s.clients, c)
	return c
}

func (s *httpSystem) crash() {
	s.srv.kill()
	s.srv = nil
	for _, c := range s.clients {
		c.close()
		s.sent += c.requests
		s.failedN += c.failed
		s.appendBytes = max(s.appendBytes, c.mutateBytes)
	}
	s.clients = nil
}

func (s *httpSystem) stop() {
	if s.srv != nil {
		s.crash()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
		s.dataDir = ""
	}
}

func (s *httpSystem) usage() (procUsage, error) { return s.srv.usage() }

func (s *httpSystem) registry() (*registryCounters, error) { return s.clients[0].registry() }

func (s *httpSystem) requests() (int64, int64) {
	sent, failed := s.sent, s.failedN
	for _, c := range s.clients {
		sent += c.requests
		failed += c.failed
	}
	return sent, failed
}
