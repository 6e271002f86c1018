// Package benchio describes the host a benchmark ran on, and holds the
// telemetry (obs) and router hot-path benchmarks that CI's bench smoke
// runs. perfbench, the repository's end-to-end benchmark, stamps every run
// with CurrentHost so results are only compared across matching hosts.
package benchio

import (
	"os"
	"runtime"
	"strings"
)

// Host describes the machine a benchmark was measured on. Absolute
// numbers from different hosts mean little side by side, so every record
// carries one.
type Host struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// CPUModel is best-effort (parsed from /proc/cpuinfo on Linux); empty
	// when unavailable.
	CPUModel string `json:"cpu_model,omitempty"`
}

// CurrentHost captures the running machine.
func CurrentHost() Host {
	return Host{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
	}
}

// cpuModel extracts the processor model name from /proc/cpuinfo, returning
// "" on any failure (non-Linux, unreadable, unexpected format).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}
