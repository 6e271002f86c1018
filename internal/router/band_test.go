package router

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/des"
	"github.com/splitexec/splitexec/internal/loadgen"
	"github.com/splitexec/splitexec/internal/service"
	"github.com/splitexec/splitexec/internal/workload"
)

// The measured-vs-simulated band for the federated wire path. Wider than
// the in-process gate (loadgen pins 0.8–1.7): a cluster replay stacks TCP
// framing twice (client→router→shard) and the router's queue semantics
// approximate the DES's backlog in wall time. The invariant worth pinning
// is that the cluster DES remains predictive of the live federation, not
// that loopback overhead is free.
const (
	clusterBandLo = 0.5
	clusterBandHi = 2.5
)

// bandRate picks the aggregate offered rate for this machine. Each live
// job costs real CPU: two wire hops, plus phase replay's pacer
// (service.SleepPrecise), one goroutine per process that yield-spins
// whenever a phase deadline is within ~2ms — live parallelism is capped
// by core count, not by the scenario's host count. ~180 jobs/s per core
// keeps that burn well inside the machine so queueing stays the model's,
// not the scheduler's; a ≥14-core runner carries the full 2500/s
// federation the scenario is written for.
func bandRate() float64 {
	r := 180 * float64(runtime.NumCPU())
	if r > 2500 {
		r = 2500
	}
	if r < 250 {
		r = 250
	}
	return r
}

// clusterBandScenario is the federated open-system workload: three classes
// consistent-hash-routed over three shards, with a steal threshold so no
// shard saturates on an unlucky ring split. One long QPU phase per job
// (rather than three short ones) keeps replay to one phase wake-up per
// job, and the per-shard host count tracks the offered rate to hold
// utilization near 0.55.
func clusterBandScenario(rate float64) *workload.Scenario {
	const occupancy = 8 * time.Millisecond
	hosts := int(rate/3*occupancy.Seconds()/0.55) + 1
	jobs := int(rate * 0.4)
	return &workload.Scenario{
		Name:    "cluster-band",
		Seed:    17,
		Arrival: workload.Arrival{Kind: workload.Poisson, Rate: rate},
		Mix: []workload.JobClass{
			{Name: "a", Weight: 1, Profile: workload.Profile{QPUService: workload.Duration(occupancy)}},
			{Name: "b", Weight: 1, Profile: workload.Profile{QPUService: workload.Duration(occupancy)}},
			{Name: "c", Weight: 1, Profile: workload.Profile{QPUService: workload.Duration(occupancy)}},
		},
		System:  workload.SystemSpec{Kind: "dedicated", Hosts: hosts},
		Horizon: workload.Horizon{Jobs: jobs},
		Cluster: &workload.ClusterSpec{Shards: 3, StealThreshold: 4},
	}
}

// TestClusterLiveMatchesDES is the federation acceptance gate: replaying a
// multi-shard scenario over live TCP — load generator → router → three
// service instances — must land the measured sojourn inside the band of the
// cluster DES prediction, conserve every job across the shard ledgers, and
// sustain the machine-scaled aggregate rate (2500 jobs/s on a full-size
// runner).
func TestClusterLiveMatchesDES(t *testing.T) {
	if raceEnabled {
		// The gate asserts wall-clock latency against a virtual-time
		// prediction; the race detector multiplies the wire path's CPU
		// cost enough to cap throughput below the offered rate on small
		// machines, which measures the instrumentation, not the fabric.
		// Tier-1 (`go test ./...`) and the storm runner enforce the band
		// without instrumentation; the -race CI lane still runs every
		// functional router test.
		t.Skip("skipping wall-clock band gate under -race")
	}
	rate := bandRate()
	sc := clusterBandScenario(rate)
	jobs := sc.Horizon.Jobs
	t.Logf("offered rate %.0f jobs/s over %d shards × %d hosts (%d cores), %d jobs",
		rate, sc.ShardCount(), sc.System.Hosts, runtime.NumCPU(), jobs)
	pred, err := des.Simulate(sc, des.Options{})
	if err != nil {
		t.Fatal(err)
	}

	inBand := func(measured, predicted time.Duration) (float64, bool) {
		ratio := float64(measured) / float64(predicted)
		return ratio, ratio >= clusterBandLo && ratio <= clusterBandHi
	}

	// Tail latency over two wire hops is noisy on a shared test core;
	// retry the whole replay a few times, exactly like the storm runner.
	const attempts = 4
	var lastMean, lastP99 string
	for attempt := 1; attempt <= attempts; attempt++ {
		got, perShard := replayOnce(t, sc)
		if got.Jobs != jobs || got.Failed != 0 {
			t.Fatalf("completed %d jobs (%d failed), want %d", got.Jobs, got.Failed, jobs)
		}
		sum := service.Report{}
		served := 0
		for i, rep := range perShard {
			if rep.Jobs+rep.Failed != rep.Submitted {
				t.Fatalf("shard %d ledger leak: %d + %d != %d", i, rep.Jobs, rep.Failed, rep.Submitted)
			}
			if rep.Jobs > 0 {
				served++
			}
			sum.Jobs += rep.Jobs
			sum.Submitted += rep.Submitted
		}
		// Three classes over three shards need not cover every shard (the
		// ring may fold two classes onto one owner), but a federation that
		// lands everything on one shard is not sharding at all.
		if served < 2 {
			t.Errorf("only %d of %d shards served jobs", served, len(perShard))
		}
		if sum.Jobs != jobs {
			t.Fatalf("shard ledgers total %d completions, want %d", sum.Jobs, jobs)
		}
		meanRatio, meanOK := inBand(got.Sojourn.Mean, pred.Sojourn.Mean)
		p99Ratio, p99OK := inBand(got.Sojourn.P99, pred.Sojourn.P99)
		t.Logf("attempt %d: mean %v vs DES %v (%.2fx), p99 %v vs DES %v (%.2fx), throughput %.0f/s",
			attempt, got.Sojourn.Mean, pred.Sojourn.Mean, meanRatio,
			got.Sojourn.P99, pred.Sojourn.P99, p99Ratio, got.Throughput)
		if got.Throughput < 0.7*rate {
			t.Errorf("aggregate throughput %.0f jobs/s below 0.7× the offered %.0f/s", got.Throughput, rate)
		}
		if meanOK && p99OK {
			return
		}
		lastMean = fmt.Sprintf("mean %v vs DES %v (%.2fx)", got.Sojourn.Mean, pred.Sojourn.Mean, meanRatio)
		lastP99 = fmt.Sprintf("p99 %v vs DES %v (%.2fx)", got.Sojourn.P99, pred.Sojourn.P99, p99Ratio)
	}
	t.Errorf("live federation outside [%.2f, %.2f]× DES band after %d attempts: %s, %s",
		clusterBandLo, clusterBandHi, attempts, lastMean, lastP99)
}

// replayOnce stands up the full federation — one service per shard, a
// router front end — replays sc through the router over TCP, and returns
// the loadgen result plus the drained per-shard ledgers.
func replayOnce(t *testing.T, sc *workload.Scenario) (*loadgen.Result, []service.Report) {
	t.Helper()
	shards := sc.ShardCount()
	svcs := make([]*service.Service, shards)
	addrs := make([]string, shards)
	for i := range svcs {
		svc, err := service.New(service.Options{
			Workers:    sc.System.Hosts,
			Fleet:      sc.System.QPUs(),
			QueueDepth: sc.Horizon.Jobs,
			Policy:     sc.Policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
		addrs[i] = addr.String()
	}
	rt, err := New(Options{
		Shards: addrs,
		// Enough lanes that the router never throttles a shard below its
		// own worker pool: each lane blocks for a full shard round trip.
		ClientsPerShard: 2 * sc.System.Hosts,
		QueueDepth:      sc.Horizon.Jobs,
		StealThreshold:  sc.StealThreshold(),
		PingEvery:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	front, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadgen.Run(sc, loadgen.Options{
		Addr:    front.String(),
		Conns:   4 * sc.System.Hosts * shards,
		Timeout: 30 * time.Second,
		Fleets:  svcs,
	})
	rt.Drain()
	reports := make([]service.Report, shards)
	for i, svc := range svcs {
		reports[i] = svc.Drain()
	}
	if err != nil {
		t.Fatal(err)
	}
	return got, reports
}
