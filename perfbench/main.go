// Command perfbench is the repository's end-to-end benchmark. It brings the
// serving stack up in-process over loopback TCP, drives one of two
// closed-loop workloads over two client connections, checks every answer
// and ledger, and prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 55 --trace 0
//
// A run repeats rounds — bring-up, warm-up, a fixed measured batch, drain —
// until --seconds is spent, so every round of a seed does identical work,
// and reports the measured batches of all its rounds as one measured phase
// (see runEndToEnd). --trace 0 reports the end-to-end metrics; --trace 1
// runs the traced variant (trace.go) and reports the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/splitexec/splitexec/internal/stats"
)

// defaultSeed is the seed the committed figures were measured with; any
// other seed re-checks a claim on inputs that were not in view when it was
// made.
const defaultSeed = 1

// connections is the closed-loop client count: one per core of the
// two-core reference host.
const connections = 2

// maxReported bounds the failed jobs a run describes on standard error.
const maxReported = 5

// spec is one workload. solve-cold runs distinct graphs on one service;
// solve-hot runs relabelings of a pre-warmed library through the router.
type spec struct {
	name   string
	routed bool // a router over two single-worker shards; else one two-worker service
	warmup int  // jobs in the fixed warm-up batch, part of set-up
	jobs   int  // measured jobs per round: at least 1000, so p99 has ten samples beyond it
	decomp int  // jobs in the traced run's decomposition pass
}

var workloads = []spec{
	{name: "solve-cold", warmup: 50, jobs: 1000, decomp: 200},
	{name: "solve-hot", routed: true, warmup: 128, jobs: 2048, decomp: 512}, // whole rounds of the 32-graph library
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts the jobs a run sent, the ones that failed, and every failed
// check.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) problem(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		name    = flag.String("workload", "", "solve-cold or solve-hot")
		seed    = flag.Int64("seed", defaultSeed, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 55, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced run and reports per-layer metrics")
		out     = flag.String("out", ".bench_out", "directory for the host record, span dump and per-layer table")
	)
	flag.Parse()
	var w spec
	for _, s := range workloads {
		if s.name == *name {
			w = s
		}
	}
	if w.name == "" || *seconds < 1 || *trace < 0 || *trace > 1 {
		fatalf("need --workload solve-cold|solve-hot, --seconds >= 1 and --trace 0|1")
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}

	host := startHost()
	in := generate(w, *seed)
	budget := time.Duration(*seconds) * time.Second
	var t tally
	var metrics map[string]metric
	if *trace == 1 {
		metrics = runTraced(w, in, budget, dir, &t)
	} else {
		metrics = runEndToEnd(w, in, budget, dir, &t)
	}
	host.finish()
	if err := host.write(dir); err != nil {
		fatalf("host record: %v", err)
	}

	names := make([]string, 0, len(metrics))
	for k, m := range metrics {
		names = append(names, k)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a percentile landing on a failed job is unbounded; JSON
			// has no infinity, so report the largest finite number.
			metrics[k] = metric{math.MaxFloat64, m.Unit}
		}
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d trace %d: %d jobs, %d failed\n", w.name, *seed, *trace, t.attempted, t.failed)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, p := range t.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", p)
	}
	correct := t.failed == 0 && len(t.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, t.attempted, t.failed, metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// runEndToEnd repeats rounds until the budget is spent and reports the
// measured batches of all rounds as one measured phase: throughput_jps is
// every measured job over the rounds' summed measured wall time, and
// latency_p50_ms and latency_p99_ms are percentiles over every measured
// job. A shared host slows the same work by a quarter or more for seconds
// to minutes at a time; a median over rounds jumps between the host's fast
// and slow states once either holds more than half of a run, where a
// pooled figure moves in proportion to the time each state held. setup_s is
// the median over rounds. The per-round figures go to rounds.json in dir.
func runEndToEnd(w spec, in inputs, budget time.Duration, dir string, t *tally) map[string]metric {
	var thr, p50, p99, ground, setup, all []float64
	var wall time.Duration
	for start, n := time.Now(), 1; ; n++ {
		r := runRound(w, in, false, nil, t)
		lat := make([]float64, len(r.calls))
		for i, c := range r.calls {
			lat[i] = latencyMS(c)
		}
		all = append(all, lat...)
		wall += r.wall
		thr = append(thr, float64(len(r.calls))/r.wall.Seconds())
		p50 = append(p50, percentile(lat, 0.50))
		p99 = append(p99, percentile(lat, 0.99))
		ground = append(ground, r.groundFrac)
		setup = append(setup, r.setup.Seconds())
		if el := time.Since(start); el+el/time.Duration(n) > budget {
			break
		}
	}
	data, err := json.Marshal(map[string][]float64{
		"throughput_jps": thr, "latency_p50_ms": p50, "latency_p99_ms": p99, "ground_frac": ground, "setup_s": setup,
	})
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "rounds.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		t.problem("round record: %v", err)
	}
	return map[string]metric{
		"throughput_jps": {float64(len(all)) / wall.Seconds(), "1/s"},
		"latency_p50_ms": {percentile(all, 0.50), "ms"},
		"latency_p99_ms": {percentile(all, 0.99), "ms"},
		"ground_frac":    {stats.Mean(ground), "fraction"}, // rounds are the same size
		"mem_peak_mb":    {peakRSSMB(), "MB"},
		"setup_s":        {stats.Median(setup), "s"},
	}
}

// latencyMS is a call's client-observed round trip; a failed job counts as
// slower than every percentile.
func latencyMS(c call) float64 {
	if c.err != nil {
		return math.Inf(1)
	}
	return float64(c.end.Sub(c.start)) / 1e6
}

// percentile returns the nearest-rank p-quantile of xs, sorting xs in
// place; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[max(int(math.Ceil(p*float64(len(xs))))-1, 0)]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}
