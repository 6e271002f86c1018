// Package cmd holds end-to-end smoke tests for the repository's one binary:
// splitexec is built with the real toolchain and each subcommand is driven
// through a fast flag configuration, pinning exit status and the shape of
// its output. The long-running servers (splitexec qpud, splitexec serve)
// are additionally probed over their TCP interfaces before being shut down.
package cmd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/qpuserver"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/service"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "splitexec-cmd-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, "splitexec"), "./splitexec")
	cmd.Dir = "." // the cmd/ directory
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building splitexec: %v\n%s", err, out)
		os.RemoveAll(binDir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

// run executes a built binary with args, asserting exit 0, and returns its
// combined output.
func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestSplitexecSmoke(t *testing.T) {
	out := run(t, "splitexec", "-problem", "maxcut", "-n", "8", "-seed", "1", "-sweeps", "32", "-m", "4", "-ncols", "4")
	for _, want := range []string{"problem:", "solution:", "time-to-solution breakdown", "stage 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSplitexecPartitionSmoke(t *testing.T) {
	out := run(t, "splitexec", "-problem", "partition", "-n", "8", "-seed", "2", "-sweeps", "32", "-m", "4", "-ncols", "4")
	if !strings.Contains(out, "partition residual") {
		t.Errorf("output missing partition check:\n%s", out)
	}
}

// TestSplitexecUnknownSubcommand pins that a mistyped subcommand is
// rejected with exit status 2 and the list of valid subcommands, instead
// of falling through to the default solve.
func TestSplitexecUnknownSubcommand(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "splitexec"), "figurs")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("splitexec figurs: err = %v, want exit status 2\nstdout:\n%s", err, stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("splitexec figurs wrote to stdout:\n%s", stdout.String())
	}
	for _, want := range []string{"figurs", "aspen", "figures", "qpud", "serve", "storm"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

func TestFiguresSmoke(t *testing.T) {
	out := run(t, "splitexec", "figures", "-fig", "9b")
	if !strings.Contains(out, "Fig 9(b)") || !strings.Contains(out, "accuracy\treads\tmodel_s") {
		t.Errorf("splitexec figures -fig 9b output unexpected:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 5 {
		t.Errorf("splitexec figures -fig 9b printed only %d lines", lines)
	}
}

func TestAspenevalSmoke(t *testing.T) {
	out := run(t, "splitexec", "aspen", "-stage", "1", "-param", "LPS=30")
	if !strings.Contains(out, "model Stage1") || !strings.Contains(out, "total predicted runtime") {
		t.Errorf("splitexec aspen output unexpected:\n%s", out)
	}
}

// startServer launches a binary expected to keep running, waits for its
// logs to match addrRe, and returns the captured address. The process is
// killed at test cleanup.
func startServer(t *testing.T, addrRe *regexp.Regexp, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	var buf bytes.Buffer
	var mu sync.Mutex
	cmd.Stdout = &lockedWriter{buf: &buf, mu: &mu}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		m := addrRe.FindStringSubmatch(buf.String())
		mu.Unlock()
		if m != nil {
			return m[1]
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Fatalf("%s never announced its address; output:\n%s", name, buf.String())
	return ""
}

type lockedWriter struct {
	buf *bytes.Buffer
	mu  *sync.Mutex
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func TestQpudSmoke(t *testing.T) {
	addr := startServer(t,
		regexp.MustCompile(`serving simulated QPU on (\S+)`),
		"splitexec", "qpud", "-addr", "127.0.0.1:0", "-m", "4", "-ncols", "4", "-sweeps", "16")
	c, err := qpuserver.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	resp, err := c.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if !resp.OK || resp.Programmed {
		t.Errorf("fresh splitexec qpud status = %+v", resp)
	}
}

func TestSplitexecServeSmoke(t *testing.T) {
	addr := startServer(t,
		regexp.MustCompile(`serving split-execution solves on (\S+)`),
		"splitexec", "serve", "-addr", "127.0.0.1:0", "-hosts", "2", "-devices", "1",
		"-m", "4", "-ncols", "4", "-sweeps", "32")
	c, err := service.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	c.SetTimeout(30 * time.Second)
	q := qubo.NewQUBO(3)
	q.Set(0, 0, 1)
	q.Set(0, 1, -2)
	q.Set(1, 2, -2)
	resp, err := c.Solve(q)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !resp.OK || len(resp.Binary) != 3 || resp.Reads < 1 {
		t.Errorf("solve response = %+v", resp)
	}
	if got := q.Energy([]int8{int8(resp.Binary[0]), int8(resp.Binary[1]), int8(resp.Binary[2])}); got != resp.Energy {
		t.Errorf("reported energy %v != recomputed %v", resp.Energy, got)
	}
}

// writeScenario drops a small scenario file for the workload subcommands.
func writeScenario(t *testing.T, jobs int, rate float64, hosts int) string {
	t.Helper()
	sc := fmt.Sprintf(`{
  "name": "smoke",
  "seed": 7,
  "arrival": {"kind": "poisson", "rate": %g},
  "mix": [
    {"name": "small", "weight": 3, "profile": {"preProcess": "1ms", "qpuService": "400µs", "postProcess": "200µs"}},
    {"name": "large", "weight": 1, "dist": "exp", "profile": {"preProcess": "2ms", "qpuService": "800µs"}}
  ],
  "system": {"kind": "shared", "hosts": %d},
  "horizon": {"jobs": %d}
}`, rate, hosts, jobs)
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(sc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSplitexecSimulateSmoke(t *testing.T) {
	path := writeScenario(t, 5000, 800, 4)
	events := filepath.Join(t.TempDir(), "events.log")
	out := run(t, "splitexec", "simulate", "-scenario", path, "-events", events)
	for _, want := range []string{"scenario: smoke", "simulated 5000 jobs", "sojourn", "throughput", "utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	log, err := os.ReadFile(events)
	if err != nil {
		t.Fatalf("event log: %v", err)
	}
	// 5 events per job: arrive, start, qpu+, qpu-, done.
	if lines := bytes.Count(log, []byte("\n")); lines != 5*5000 {
		t.Errorf("event log holds %d lines, want %d", lines, 5*5000)
	}
	// JSON mode must emit a decodable result.
	var r struct {
		Jobs int `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(run(t, "splitexec", "simulate", "-scenario", path, "-json")), &r); err != nil {
		t.Fatalf("simulate -json output not JSON: %v", err)
	}
	if r.Jobs != 5000 {
		t.Errorf("simulate -json jobs = %d", r.Jobs)
	}
}

// TestSplitexecPlanSmoke drives the capacity planner end to end: table
// output with a cheapest satisfying configuration and a failing cheaper
// neighbor, plus decodable JSON with the same verdict.
func TestSplitexecPlanSmoke(t *testing.T) {
	path := writeScenario(t, 8000, 1200, 1)
	out := run(t, "splitexec", "plan", "-scenario", path,
		"-p99", "25ms", "-hosts", "1:6", "-kinds", "shared,dedicated", "-policies", "all")
	for _, want := range []string{"cheapest satisfying configuration:", "meets SLO", "next-cheaper neighbor fails:"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
	var p struct {
		Best *struct {
			Kind   string  `json:"kind"`
			Hosts  int     `json:"hosts"`
			Policy string  `json:"policy"`
			Cost   float64 `json:"cost"`
			Meets  bool    `json:"meets"`
		} `json:"best"`
		Evaluated []struct {
			Meets bool `json:"meets"`
		} `json:"evaluated"`
	}
	jsonOut := run(t, "splitexec", "plan", "-scenario", path,
		"-p99", "25ms", "-hosts", "1:6", "-policies", "fifo,priority", "-json")
	if err := json.Unmarshal([]byte(jsonOut), &p); err != nil {
		t.Fatalf("plan -json output not JSON: %v\n%s", err, jsonOut)
	}
	if p.Best == nil || !p.Best.Meets || p.Best.Hosts < 1 {
		t.Errorf("plan -json best = %+v", p.Best)
	}
	if len(p.Evaluated) == 0 {
		t.Error("plan -json evaluated no candidates")
	}
}

// TestSplitexecStormQuick replays the cheapest corpus scenario through the
// full predict→replay→judge pipeline over live TCP — the exact invocation the
// CI smoke job runs — and pins the JSON report's shape and verdict.
func TestSplitexecStormQuick(t *testing.T) {
	out := run(t, "splitexec", "storm", "-dir", "../scenarios", "-quick", "-json")
	var rep struct {
		Pass      bool `json:"pass"`
		Scenarios []struct {
			Name      string  `json:"name"`
			Pass      bool    `json:"pass"`
			Ratio     float64 `json:"ratio"`
			Jobs      int     `json:"jobs"`
			Failed    int     `json:"failed"`
			Submitted int     `json:"submitted"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("storm -json output not JSON: %v\n%s", err, out)
	}
	if !rep.Pass || len(rep.Scenarios) != 1 {
		t.Fatalf("storm -quick report: %s", out)
	}
	s := rep.Scenarios[0]
	if s.Name != "quick-check" || !s.Pass || s.Ratio <= 0 {
		t.Errorf("quick scenario verdict: %+v", s)
	}
	if s.Jobs+s.Failed != 60 {
		t.Errorf("quick-check ledger %d + %d != 60 admitted", s.Jobs, s.Failed)
	}
}

// TestSplitexecLoadgenSmoke drives the full open-system loop over TCP: a
// live `splitexec serve`, the loadgen subcommand replaying a scenario
// against it, and the serve process's JSON drain report on SIGTERM.
func TestSplitexecLoadgenSmoke(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "splitexec"), "serve",
		"-addr", "127.0.0.1:0", "-hosts", "2", "-devices", "1",
		"-m", "4", "-ncols", "4", "-sweeps", "16", "-queue", "64")
	var buf bytes.Buffer
	var mu sync.Mutex
	cmd.Stdout = &lockedWriter{buf: &buf, mu: &mu}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting serve: %v", err)
	}
	killed := false
	t.Cleanup(func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	addrRe := regexp.MustCompile(`serving split-execution solves on (\S+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		m := addrRe.FindStringSubmatch(buf.String())
		mu.Unlock()
		if m != nil {
			addr = m[1]
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("serve never announced its address")
	}

	path := writeScenario(t, 40, 200, 2)
	out := run(t, "splitexec", "loadgen", "-scenario", path, "-addr", addr, "-conns", "8")
	for _, want := range []string{"measured 40 jobs (0 failed)", "sojourn (measured)", "sojourn (simulated)", "measured/simulated mean sojourn"} {
		if !strings.Contains(out, want) {
			t.Errorf("loadgen output missing %q:\n%s", want, out)
		}
	}

	// Graceful shutdown: the drain report must arrive as parseable JSON
	// with the replayed jobs accounted for.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	cmd.Wait()
	killed = true
	mu.Lock()
	output := buf.String()
	mu.Unlock()
	i := strings.Index(output, "{")
	if i < 0 {
		t.Fatalf("no JSON drain report in serve output:\n%s", output)
	}
	var rep struct {
		Jobs    int `json:"jobs"`
		Sojourn struct {
			N    int   `json:"n"`
			Mean int64 `json:"mean"`
		} `json:"sojourn"`
	}
	if err := json.Unmarshal([]byte(output[i:]), &rep); err != nil {
		t.Fatalf("drain report not JSON: %v\n%s", err, output[i:])
	}
	if rep.Jobs != 40 || rep.Sojourn.N != 40 || rep.Sojourn.Mean <= 0 {
		t.Errorf("drain report = %+v, want 40 jobs with a positive mean sojourn", rep)
	}
}
