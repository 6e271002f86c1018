package des

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/ring"
	"github.com/splitexec/splitexec/internal/workload"
)

// initialRing is the route table's ring over the scenario's initial shards;
// with every slot routable, ring member i is shard i.
func initialRing(sc *workload.Scenario) *ring.Ring {
	slots := make([]int, sc.ShardCount())
	for i := range slots {
		slots[i] = i
	}
	return workload.NewRouteTable(slots, sc.Cluster.Replicas).Ring()
}

// clusterScenario is a three-class workload over a federated deployment:
// shards × dedicated hosts, class-keyed consistent-hash routing.
func clusterScenario(shards, jobs int, seed int64) *workload.Scenario {
	profile := workload.Profile{
		PreProcess:  workload.Duration(400 * time.Microsecond),
		QPUService:  workload.Duration(300 * time.Microsecond),
		PostProcess: workload.Duration(100 * time.Microsecond),
	}
	return &workload.Scenario{
		Name:    "cluster",
		Seed:    seed,
		Arrival: workload.Arrival{Kind: workload.Poisson, Rate: 2000},
		Mix: []workload.JobClass{
			{Name: "a", Weight: 1, Profile: profile},
			{Name: "b", Weight: 1, Profile: profile},
			{Name: "c", Weight: 1, Profile: profile},
		},
		System:  workload.SystemSpec{Kind: "dedicated", Hosts: 2},
		Horizon: workload.Horizon{Jobs: jobs},
		Cluster: &workload.ClusterSpec{Shards: shards},
	}
}

// TestClusterOfOneMatchesPlain: a declared single-shard cluster must replay
// the exact event log of the same scenario without a cluster stanza — the
// federation layer adds nothing to a cluster of one.
func TestClusterOfOneMatchesPlain(t *testing.T) {
	plain := clusterScenario(1, 500, 31)
	plain.Cluster = nil
	declared := clusterScenario(1, 500, 31)

	var logA, logB bytes.Buffer
	ra, err := Simulate(plain, Options{EventLog: &logA})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(declared, Options{EventLog: &logB})
	if err != nil {
		t.Fatal(err)
	}
	if logA.String() != logB.String() {
		t.Error("cluster-of-one event log diverged from the plain deployment")
	}
	if ra.String() != rb.String() {
		t.Errorf("cluster-of-one summary diverged:\n%s\nvs\n%s", ra, rb)
	}
}

// TestClusterHashAffinity: without stealing, every class is pinned to its
// ring owner — each class's completions land on exactly one shard, and the
// per-shard ledgers sum to the aggregate.
func TestClusterHashAffinity(t *testing.T) {
	sc := clusterScenario(4, 1200, 7)
	r, err := Simulate(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 1200 {
		t.Fatalf("completed %d of 1200", r.Jobs)
	}
	if len(r.Shards) != 4 {
		t.Fatalf("result carries %d shard entries, want 4", len(r.Shards))
	}
	sum := 0
	for _, st := range r.Shards {
		sum += st.Jobs
	}
	if sum != r.Jobs {
		t.Errorf("per-shard jobs sum %d != aggregate %d", sum, r.Jobs)
	}
	// Each class appears on exactly the shard the ring assigns it.
	rg := initialRing(sc)
	for class := range sc.Mix {
		owner := rg.Owner(workload.ClassKey(class))
		for x, st := range r.Shards {
			n := 0
			if st.ClassSojourn != nil {
				n = st.ClassSojourn[class].N
			}
			if x == owner && n == 0 {
				t.Errorf("class %d absent from its home shard %d", class, owner)
			}
			if x != owner && n != 0 {
				t.Errorf("class %d leaked onto shard %d (%d jobs) without stealing", class, x, n)
			}
		}
	}
}

// TestClusterStealingSpreadsLoad: with a tight steal threshold, a class's
// jobs overflow beyond its home shard — and the aggregate p99 must not be
// worse than the no-stealing run of the same scenario, since stealing only
// ever moves work from deeper to shallower backlogs.
func TestClusterStealingSpreadsLoad(t *testing.T) {
	pinned := clusterScenario(3, 1500, 13)
	pinned.Arrival.Rate = 5000 // saturate the home shards so backlogs form
	stealing := clusterScenario(3, 1500, 13)
	stealing.Arrival.Rate = 5000
	stealing.Cluster.StealThreshold = 2

	rp, err := Simulate(pinned, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Simulate(stealing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spread := 0
	rg := initialRing(stealing)
	for class := range stealing.Mix {
		owner := rg.Owner(workload.ClassKey(class))
		for x, st := range rs.Shards {
			if x != owner && st.ClassSojourn != nil && st.ClassSojourn[class].N > 0 {
				spread++
			}
		}
	}
	if spread == 0 {
		t.Error("steal threshold 2 under saturation moved no work off home shards")
	}
	if rs.Sojourn.P99 > rp.Sojourn.P99*2 {
		t.Errorf("stealing made the tail worse: p99 %v vs pinned %v", rs.Sojourn.P99, rp.Sojourn.P99)
	}
}

// shardLossScenario kills the shard owning class 0 mid-run — targeting a
// ring owner guarantees the victim is carrying work when it dies.
func shardLossScenario(jobs int, seed int64) *workload.Scenario {
	sc := clusterScenario(3, jobs, seed)
	sc.Arrival.Rate = 6000 // ~80% utilization: hosts are busy at the death instant
	sc.Cluster.StealThreshold = 8
	victim := initialRing(sc).Owner(workload.ClassKey(0))
	sc.Faults = &workload.FaultSpec{
		MaxRetries: 3,
		Backoff:    workload.Duration(time.Millisecond),
		Shard: &workload.ShardFault{
			Shard: victim,
			At:    workload.Duration(50 * time.Millisecond),
			For:   workload.Duration(100 * time.Millisecond),
		},
	}
	return sc
}

// TestClusterShardLossConservation is the acceptance invariant: killing a
// shard mid-run conserves the job ledger — every admitted job completes or
// fails, no in-flight job is lost — and the in-flight abort machinery
// actually fired.
func TestClusterShardLossConservation(t *testing.T) {
	var log bytes.Buffer
	sc := shardLossScenario(2000, 41)
	victim := sc.Faults.Shard.Shard
	r, err := Simulate(sc, Options{EventLog: &log})
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs+r.Failed != r.Admitted {
		t.Errorf("ledger leak: jobs %d + failed %d != admitted %d", r.Jobs, r.Failed, r.Admitted)
	}
	if r.Admitted != 2000 {
		t.Errorf("admitted %d, want the full horizon", r.Admitted)
	}
	if !strings.Contains(log.String(), fmt.Sprintf(" sdown shard=%d", victim)) {
		t.Error("event log missing the shard death")
	}
	if !strings.Contains(log.String(), fmt.Sprintf(" sup shard=%d", victim)) {
		t.Error("event log missing the shard revival")
	}
	if r.Retries == 0 {
		t.Error("shard death aborted no in-flight jobs — the fault never bit")
	}
	if !strings.Contains(log.String(), " abort job=") {
		t.Error("event log missing in-flight aborts")
	}
}

// TestClusterPermanentShardLoss: a shard that never rejoins (For == 0) must
// still conserve the ledger — ownership rebalances to the survivors for the
// rest of the run.
func TestClusterPermanentShardLoss(t *testing.T) {
	sc := shardLossScenario(1500, 43)
	sc.Faults.Shard.For = 0
	r, err := Simulate(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs+r.Failed != r.Admitted {
		t.Errorf("ledger leak: jobs %d + failed %d != admitted %d", r.Jobs, r.Failed, r.Admitted)
	}
	if r.Jobs == 0 {
		t.Fatal("no jobs completed after permanent shard loss")
	}
}

// TestClusterDeterministicAcrossGOMAXPROCS extends the determinism pin to
// the federated simulator: cluster event logs — routing, stealing, shard
// death and re-dispatch included — must be byte-identical at any
// GOMAXPROCS. Run under -race in CI.
func TestClusterDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sc := shardLossScenario(3000, 47)

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
	if !strings.Contains(baseline.log, " sdown shard=") {
		t.Fatal("baseline log has no shard fault — the regime never fired")
	}
	if !strings.Contains(baseline.log, " shard=2") {
		t.Fatal("baseline log never dispatched to shard 2")
	}

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
