package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// hostStamp says where a result file's numbers come from. Latencies
// with -wal-sync=true are only as real as the host's fsync, so the
// stamp carries a measurement of that too.
type hostStamp struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GitSHA     string   `json:"git_sha"`
	FsyncUs    float64  `json:"fsync_us"`
	ServerArgs []string `json:"server_flags"`
}

func stampHost(dir string) hostStamp {
	return hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitSHA:     gitSHA(),
		FsyncUs:    fsyncMicros(dir),
		ServerArgs: append([]string{"-data-dir", "<tmp>"}, serverFlags...),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitSHA is the checked-out commit, or "unknown" outside a git
// checkout (the driver's checkouts are not repositories).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsyncMicros is the median cost of 100 write+fsync pairs of a 4 KiB
// block to a file in dir, the directory the servers' WALs live under.
func fsyncMicros(dir string) float64 {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0
	}
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	samples := make([]float64, 0, 100)
	for i := 0; i < cap(samples); i++ {
		start := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(samples)
}
