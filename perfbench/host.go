package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/splitexec/splitexec/internal/benchio"
)

// hostRecord describes the machine a run measured on, so a reader can tell
// when the host moved between runs. It is recorded with every run and
// never used to adjust a metric.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// StealFrac is the share of all CPU time the hypervisor stole over the
	// run, from /proc/stat (0 when unreadable).
	StealFrac float64 `json:"steal_frac"`
	// The CPU probe is a fixed single-threaded computation timed before
	// and after the workload.
	ProbeBeforeMS float64 `json:"probe_before_ms"`
	ProbeAfterMS  float64 `json:"probe_after_ms"`

	ticks []uint64
}

func startHost() *hostRecord {
	h := benchio.CurrentHost()
	return &hostRecord{
		NProc:         h.NumCPU,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      h.CPUModel,
		GoVersion:     h.GoVersion,
		ProbeBeforeMS: cpuProbe(),
		ticks:         cpuTicks(),
	}
}

func (h *hostRecord) finish() {
	end := cpuTicks()
	h.ProbeAfterMS = cpuProbe()
	if len(end) < 8 || len(end) != len(h.ticks) {
		return
	}
	var total uint64
	for i := 0; i < 8; i++ { // user … steal; guest time is already in user
		total += end[i] - h.ticks[i]
	}
	if total > 0 {
		h.StealFrac = float64(end[7]-h.ticks[7]) / float64(total)
	}
}

// write prints the record to standard error and saves it as host.json.
func (h *hostRecord) write(dir string) error {
	data, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench host %s\n", data)
	return os.WriteFile(filepath.Join(dir, "host.json"), append(data, '\n'), 0o644)
}

// cpuTicks reads the aggregate cpu line of /proc/stat (user, nice, system,
// idle, iowait, irq, softirq, steal, ... in clock ticks); nil when
// unreadable.
func cpuTicks() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	ticks := make([]uint64, len(fields)-1)
	for i, f := range fields[1:] {
		if ticks[i], err = strconv.ParseUint(f, 10, 64); err != nil {
			return nil
		}
	}
	return ticks
}

// cpuProbe times hashing 32 MiB on one goroutine, in milliseconds: the same
// work on every commit, so a slower probe marks a slower host.
func cpuProbe() float64 {
	buf := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 32; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	return float64(time.Since(start)) / 1e6
}
