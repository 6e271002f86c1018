package des

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/workload"
)

// mmcScenario builds the single-class exponential scenario the M/M/c
// cross-check applies to: Poisson arrivals at utilization rho over c
// dedicated hosts whose mean service time is 1ms (mu = 1000 jobs/s).
func mmcScenario(rho float64, c, jobs int, seed int64) *workload.Scenario {
	const mu = 1000.0
	return &workload.Scenario{
		Name:    fmt.Sprintf("mmc rho=%.1f c=%d", rho, c),
		Seed:    seed,
		Arrival: workload.Arrival{Kind: workload.Poisson, Rate: rho * float64(c) * mu},
		Mix: []workload.JobClass{{
			Name: "exp", Weight: 1, Dist: workload.Exponential,
			Profile: workload.Profile{
				PreProcess:  workload.Duration(500 * time.Microsecond),
				QPUService:  workload.Duration(300 * time.Microsecond),
				PostProcess: workload.Duration(200 * time.Microsecond),
			},
		}},
		System:  workload.SystemSpec{Kind: "dedicated", Hosts: c},
		Horizon: workload.Horizon{Jobs: jobs},
	}
}

func TestAnalyticMM1ClosedForm(t *testing.T) {
	// M/M/1: ErlangC = rho, Wq = rho/(mu-lambda), W = 1/(mu-lambda).
	lambda, mu := 600.0, 1000.0
	r, err := Analytic(lambda, mu, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Rho-0.6) > 1e-12 || math.Abs(r.ErlangC-0.6) > 1e-12 {
		t.Errorf("rho=%v erlangC=%v, want 0.6, 0.6", r.Rho, r.ErlangC)
	}
	wantW := time.Duration(float64(time.Second) / (mu - lambda))
	if d := r.SojournMean - wantW; d < -time.Nanosecond || d > time.Nanosecond {
		t.Errorf("W = %v, want %v", r.SojournMean, wantW)
	}
	// QueueWaitMean is truncated to nanoseconds, so allow lambda·1ns slack.
	if math.Abs(r.QueueLenMean-lambda*r.QueueWaitMean.Seconds()) > lambda*1e-9 {
		t.Errorf("Little's law broken: Lq=%v, lambda*Wq=%v", r.QueueLenMean, lambda*r.QueueWaitMean.Seconds())
	}
}

func TestAnalyticMM2ClosedForm(t *testing.T) {
	// M/M/2 with a = 1 (rho = 0.5): C = a^2/(a^2 + 2(1-rho)(1+a)) ... the
	// textbook value is ErlangC = 1/3.
	r, err := Analytic(1000, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.ErlangC-1.0/3) > 1e-12 {
		t.Errorf("M/M/2 ErlangC = %v, want 1/3", r.ErlangC)
	}
}

func TestAnalyticRejects(t *testing.T) {
	if _, err := Analytic(1000, 1000, 1); err == nil || !strings.Contains(err.Error(), "unstable") {
		t.Errorf("rho=1 accepted: %v", err)
	}
	if _, err := Analytic(-1, 1000, 1); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := Analytic(1, 1000, 0); err == nil {
		t.Error("c=0 accepted")
	}
}

func TestAnalyticScenarioEnvelope(t *testing.T) {
	sc := mmcScenario(0.5, 2, 1000, 1)
	r, err := AnalyticScenario(sc)
	if err != nil {
		t.Fatalf("AnalyticScenario: %v", err)
	}
	if r.Servers != 2 || math.Abs(r.Rho-0.5) > 1e-12 {
		t.Errorf("scenario mapping: %+v", r)
	}
	if direct, err := Analytic(r.Lambda, r.Mu, r.Servers); err != nil || direct.ErlangC != r.ErlangC {
		t.Errorf("Analytic(%v, %v, %d) = %+v, %v; AnalyticScenario gave %+v", r.Lambda, r.Mu, r.Servers, direct, err, r)
	}
	for _, mut := range []struct {
		name string
		f    func(*workload.Scenario)
		want string
	}{
		{"uniform arrivals", func(s *workload.Scenario) { s.Arrival.Kind = workload.Uniform }, "poisson"},
		{"two classes", func(s *workload.Scenario) { s.Mix = append(s.Mix, s.Mix[0]) }, "single job class"},
		{"det service", func(s *workload.Scenario) { s.Mix[0].Dist = "" }, "dist"},
		{"shared hosts", func(s *workload.Scenario) { s.System.Kind = "shared"; s.System.Hosts = 4 }, "uncontended"},
	} {
		s := mmcScenario(0.5, 2, 1000, 1)
		mut.f(s)
		if _, err := AnalyticScenario(s); err == nil || !strings.Contains(err.Error(), mut.want) {
			t.Errorf("%s: err = %v, want mention of %q", mut.name, err, mut.want)
		}
	}
}

// TestSimulatorMatchesAnalytic is the acceptance gate: across utilizations
// and server counts, the simulated mean sojourn of >= 1e5 exponential jobs
// must land within 5% of the M/M/c prediction — and the tail must grow as
// rho -> 1 exactly as queueing theory says it does.
func TestSimulatorMatchesAnalytic(t *testing.T) {
	var lastP99 time.Duration
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		for _, c := range []int{1, 4} {
			jobs := 100_000
			if rho >= 0.9 {
				// High-rho sojourns autocorrelate over long stretches;
				// more samples keep the estimator inside the 5% gate.
				jobs = 400_000
			}
			sc := mmcScenario(rho, c, jobs, 1)
			pred, err := AnalyticScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Jobs != jobs {
				t.Fatalf("rho=%.1f c=%d: %d completed, want %d", rho, c, got.Jobs, jobs)
			}
			ratio := float64(got.Sojourn.Mean) / float64(pred.SojournMean)
			t.Logf("rho=%.1f c=%d: simulated W %v vs M/M/c %v (ratio %.4f), p99 %v",
				rho, c, got.Sojourn.Mean, pred.SojournMean, ratio, got.Sojourn.P99)
			if ratio < 0.95 || ratio > 1.05 {
				t.Errorf("rho=%.1f c=%d: simulated mean sojourn %v off M/M/c %v by %.1f%%",
					rho, c, got.Sojourn.Mean, pred.SojournMean, 100*(ratio-1))
			}
			// Dedicated QPUs can never be contended.
			if got.QPUWait.Max != 0 {
				t.Errorf("rho=%.1f c=%d: dedicated system measured QPU wait %v", rho, c, got.QPUWait.Max)
			}
			// Host utilization should track rho.
			if math.Abs(got.HostBusy-rho) > 0.05 {
				t.Errorf("rho=%.1f c=%d: host utilization %.3f", rho, c, got.HostBusy)
			}
			if c == 1 {
				if got.Sojourn.P99 <= lastP99 {
					t.Errorf("rho=%.1f: p99 %v did not grow from %v as rho increased",
						rho, got.Sojourn.P99, lastP99)
				}
				lastP99 = got.Sojourn.P99
			}
		}
	}
}

// TestSharedQPUContention: a QPU-bound mix on a shared-resource system must
// show token waits the dedicated deployment of the same scenario does not.
func TestSharedQPUContention(t *testing.T) {
	base := &workload.Scenario{
		Seed:    3,
		Arrival: workload.Arrival{Kind: workload.Poisson, Rate: 400},
		Mix: []workload.JobClass{{
			Name: "qpu-bound", Weight: 1,
			Profile: workload.Profile{
				PreProcess: workload.Duration(200 * time.Microsecond),
				QPUService: workload.Duration(2 * time.Millisecond),
			},
		}},
		System:  workload.SystemSpec{Kind: "shared", Hosts: 4},
		Horizon: workload.Horizon{Jobs: 5000},
	}
	shared, err := Simulate(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ded := *base
	ded.System.Kind = "dedicated"
	dedicated, err := Simulate(&ded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if shared.QPUWait.Mean == 0 {
		t.Error("shared QPU-bound run simulated no token wait")
	}
	if dedicated.QPUWait.Max != 0 {
		t.Errorf("dedicated run simulated token wait %v", dedicated.QPUWait.Max)
	}
	if dedicated.Sojourn.Mean >= shared.Sojourn.Mean {
		t.Errorf("dedicated sojourn %v did not beat shared %v on a QPU-bound mix",
			dedicated.Sojourn.Mean, shared.Sojourn.Mean)
	}
	if shared.QPUBusy < 0.7 {
		t.Errorf("shared QPU utilization %.2f, want near saturation", shared.QPUBusy)
	}
}

// TestTraceHandChecked pins the exact event arithmetic on a scenario small
// enough to verify by hand: one host, two jobs, the second queuing behind
// the first.
func TestTraceHandChecked(t *testing.T) {
	sc := &workload.Scenario{
		Seed: 1,
		Arrival: workload.Arrival{Kind: workload.Trace, Trace: []workload.Duration{
			0, workload.Duration(time.Millisecond),
		}},
		Mix: []workload.JobClass{{
			Name: "fixed", Weight: 1,
			Profile: workload.Profile{
				PreProcess:  workload.Duration(2 * time.Millisecond),
				QPUService:  workload.Duration(time.Millisecond),
				PostProcess: workload.Duration(time.Millisecond),
			},
		}},
		System:  workload.SystemSpec{Kind: "shared", Hosts: 1},
		Horizon: workload.Horizon{Jobs: 2},
	}
	var log bytes.Buffer
	r, err := Simulate(sc, Options{EventLog: &log})
	if err != nil {
		t.Fatal(err)
	}
	// Job 0: arrive 0, start 0, QPU 2..3ms, done 4ms.
	// Job 1: arrive 1ms, start 4ms, QPU 6..7ms, done 8ms.
	if r.Jobs != 2 || r.End != 8*time.Millisecond {
		t.Fatalf("jobs=%d end=%v, want 2, 8ms", r.Jobs, r.End)
	}
	if r.Sojourn.Max != 7*time.Millisecond || r.Sojourn.Mean != 5500*time.Microsecond {
		t.Errorf("sojourn %v, want max 7ms mean 5.5ms", r.Sojourn)
	}
	if r.QueueWait.Max != 3*time.Millisecond {
		t.Errorf("queue wait max %v, want 3ms", r.QueueWait.Max)
	}
	if r.QPUWait.Max != 0 {
		t.Errorf("QPU wait %v, want 0", r.QPUWait.Max)
	}
	want := "" +
		"0 arrive job=0 class=0\n" +
		"0 start job=0 class=0\n" +
		"1000000 arrive job=1 class=0\n" +
		"2000000 qpu+ job=0 class=0\n" +
		"3000000 qpu- job=0 class=0\n" +
		"4000000 done job=0 class=0\n" +
		"4000000 start job=1 class=0\n" +
		"6000000 qpu+ job=1 class=0\n" +
		"7000000 qpu- job=1 class=0\n" +
		"8000000 done job=1 class=0\n"
	if log.String() != want {
		t.Errorf("event log:\n%s\nwant:\n%s", log.String(), want)
	}
}

// TestClosedLoop: C clients with zero think time keep min(C, hosts) hosts
// saturated; the horizon bounds total submissions exactly.
func TestClosedLoop(t *testing.T) {
	sc := &workload.Scenario{
		Seed:    5,
		Arrival: workload.Arrival{Kind: workload.ClosedLoop, Clients: 4},
		Mix: []workload.JobClass{{
			Name: "fixed", Weight: 1,
			Profile: workload.Profile{
				PreProcess: workload.Duration(time.Millisecond),
				QPUService: workload.Duration(time.Millisecond),
			},
		}},
		System:  workload.SystemSpec{Kind: "dedicated", Hosts: 2},
		Horizon: workload.Horizon{Jobs: 100},
	}
	r, err := Simulate(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 100 {
		t.Fatalf("completed %d jobs, want 100", r.Jobs)
	}
	// 4 clients over 2 hosts, zero think: hosts never idle after warmup.
	if r.HostBusy < 0.99 {
		t.Errorf("host utilization %.3f, want ~1 for a saturated closed loop", r.HostBusy)
	}
	// 100 jobs of 2ms over 2 hosts = 100ms end-to-end.
	if r.End != 100*time.Millisecond {
		t.Errorf("end %v, want 100ms", r.End)
	}
}

// TestDurationHorizon: a duration horizon admits exactly the arrivals
// inside the window and still completes them all.
func TestDurationHorizon(t *testing.T) {
	sc := &workload.Scenario{
		Seed:    2,
		Arrival: workload.Arrival{Kind: workload.Uniform, Rate: 1000},
		Mix: []workload.JobClass{{
			Name: "fixed", Weight: 1,
			Profile: workload.Profile{
				PreProcess: workload.Duration(100 * time.Microsecond),
				QPUService: workload.Duration(100 * time.Microsecond),
			},
		}},
		System:  workload.SystemSpec{Kind: "shared", Hosts: 2},
		Horizon: workload.Horizon{Duration: workload.Duration(50 * time.Millisecond)},
	}
	r, err := Simulate(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform arrivals at 1/ms: offsets 1ms..50ms inclusive = 50 jobs.
	if r.Jobs != 50 {
		t.Errorf("admitted %d jobs, want 50", r.Jobs)
	}
	if r.End < 50*time.Millisecond {
		t.Errorf("end %v before the horizon", r.End)
	}
}

// TestDeterministicAcrossGOMAXPROCS is the regression the ISSUE seeds:
// identical scenario + seed must produce byte-identical event logs and
// summaries at any GOMAXPROCS. Run under -race in CI.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sc := mmcScenario(0.6, 4, 20_000, 99)
	sc.Mix = append(sc.Mix, workload.JobClass{
		Name: "det", Weight: 0.5,
		Profile: workload.Profile{
			PreProcess: workload.Duration(300 * time.Microsecond),
			QPUService: workload.Duration(400 * time.Microsecond),
		},
	})

	type run struct {
		log     string
		summary string
	}
	simulate := func() run {
		var buf bytes.Buffer
		r, err := Simulate(sc, Options{EventLog: &buf})
		if err != nil {
			t.Errorf("Simulate: %v", err)
			return run{}
		}
		return run{log: buf.String(), summary: r.String()}
	}

	prev := runtime.GOMAXPROCS(1)
	baseline := simulate()
	runtime.GOMAXPROCS(prev)
	if baseline.log == "" {
		t.Fatal("baseline produced no event log")
	}

	// Replay concurrently at full GOMAXPROCS: every run must match the
	// single-threaded baseline byte for byte.
	var wg sync.WaitGroup
	runs := make([]run, 4)
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i] = simulate()
		}(i)
	}
	wg.Wait()
	for i, r := range runs {
		if r.summary != baseline.summary {
			t.Errorf("run %d summary diverged:\n%s\nbaseline:\n%s", i, r.summary, baseline.summary)
		}
		if r.log != baseline.log {
			t.Errorf("run %d event log diverged from baseline (len %d vs %d)", i, len(r.log), len(baseline.log))
		}
	}
}
