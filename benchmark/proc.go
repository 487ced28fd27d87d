package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// buildDir is where the benchmark keeps what it builds and writes
// while it runs, relative to the directory it is started from (the
// repository root): the covserve binary and the per-run data
// directories.
const buildDir = ".bench_build"

// serverFlags are the only flags covserve is booted with, besides the
// data directory: registry-only boot, default shards, real fsyncs, no
// timer-driven snapshots (the workloads take them at fixed op counts).
var serverFlags = []string{"-wal-sync=true", "-snapshot-interval", "0", "-addr", "127.0.0.1:0"}

// buildServer compiles cmd/covserve from the module the benchmark
// itself was built from into dir, and reports how long that took.
func buildServer(dir string) (string, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "covserve"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "coverage/cmd/covserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building covserve: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// newDataDir makes a fresh data directory under root.
func newDataDir(root, workload string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, "data-"+workload+"-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// listenWatcher is the server's stderr sink: it keeps the log for
// failure reports and delivers the address from the "listening on"
// line once.
type listenWatcher struct {
	mu   sync.Mutex
	log  bytes.Buffer
	addr chan string
	sent bool
}

const listenMarker = "listening on "

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log.Write(p)
	if !w.sent {
		text := w.log.String()
		if i := strings.Index(text, listenMarker); i >= 0 {
			rest := text[i+len(listenMarker):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				w.sent = true
				w.addr <- strings.TrimSpace(rest[:j])
			}
		}
	}
	return len(p), nil
}

func (w *listenWatcher) text() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.String()
}

// live is the table of running servers, so that a signal handler can
// take them down with the benchmark.
var live = struct {
	mu    sync.Mutex
	procs map[*serverProc]bool
}{procs: map[*serverProc]bool{}}

// killAll SIGKILLs every server still running and waits for each.
func killAll() {
	live.mu.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// serverProc is one running covserve subprocess.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *listenWatcher
	exited chan struct{}
	boot   time.Duration // exec → "listening on"
}

// startServer execs covserve on dataDir and waits for its listening
// line; the port is whatever the kernel handed out.
func startServer(bin, dataDir string) (*serverProc, error) {
	w := &listenWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-data-dir", dataDir}, serverFlags...)...)
	cmd.Stderr = w
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting covserve: %w", err)
	}
	p := &serverProc{cmd: cmd, log: w, exited: make(chan struct{})}
	live.mu.Lock()
	live.procs[p] = true
	live.mu.Unlock()
	go func() {
		cmd.Wait()
		live.mu.Lock()
		delete(live.procs, p)
		live.mu.Unlock()
		close(p.exited)
	}()
	select {
	case addr := <-w.addr:
		p.base = "http://" + addr
		p.boot = time.Since(start)
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("covserve exited during boot:\n%s", w.text())
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("covserve did not report a listening address within 30s:\n%s", w.text())
	}
}

// kill SIGKILLs the server and waits until it has ended. It is safe to
// call more than once.
func (p *serverProc) kill() {
	if p == nil {
		return
	}
	p.cmd.Process.Kill()
	<-p.exited
}

// procUsage is what /proc says about the server: the peak resident set
// and the CPU time consumed so far.
type procUsage struct {
	peakRSSMiB float64
	cpuSeconds float64
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 for every
// architecture Go supports.
const clockTicksPerSecond = 100

func (p *serverProc) usage() (procUsage, error) {
	return readProcUsage(strconv.Itoa(p.cmd.Process.Pid))
}

// readProcUsage reads the usage of a process from /proc; pid may be
// "self".
func readProcUsage(pid string) (procUsage, error) {
	var u procUsage
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return u, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			u.peakRSSMiB = kb / 1024
		}
	}
	if u.peakRSSMiB == 0 {
		return u, errors.New("no VmHWM line in /proc status")
	}
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	i := strings.LastIndexByte(string(stat), ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return u, fmt.Errorf("unexpected /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("unexpected /proc stat times in %q", stat)
	}
	u.cpuSeconds = (utime + stime) / clockTicksPerSecond
	return u, nil
}
