package des

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/ring"
	"github.com/splitexec/splitexec/internal/workload"
)

// shardEventsAfter parses an event log and returns, per shard, the count of
// job events (arrive/start/done/…) dispatched to that shard at or after the
// cutoff; shardEventsBefore the same strictly before it. Membership and
// fault lines (join/drain/sdown/sup, device down/up) are ignored.
func shardJobEvents(t *testing.T, log string, cutoff time.Duration) (before, after map[int]int) {
	t.Helper()
	before, after = map[int]int{}, map[int]int{}
	for _, line := range strings.Split(log, "\n") {
		if line == "" || !strings.Contains(line, " job=") {
			continue
		}
		f := strings.Fields(line)
		at, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			t.Fatalf("unparseable event time in %q", line)
		}
		shard := -1
		for _, tok := range f {
			if v, ok := strings.CutPrefix(tok, "shard="); ok {
				shard, _ = strconv.Atoi(v)
			}
		}
		if shard < 0 {
			continue // pre-routing arrival
		}
		if time.Duration(at) < cutoff {
			before[shard]++
		} else {
			after[shard]++
		}
	}
	return before, after
}

// movedClasses lists the classes among the first n whose keys the ranges
// re-home.
func movedClasses(ranges []ring.Range, n int) []int {
	var out []int
	for class := 0; class < n; class++ {
		if ring.Covers(ranges, ring.Hash(workload.ClassKey(class))) {
			out = append(out, class)
		}
	}
	return out
}

// TestClusterJoinMovesOnlyPredictedKeys is the DES half of the elastic
// acceptance: a scheduled join shifts exactly the classes the ring diff
// predicts onto the joiner — nothing routes there before the join event,
// unmoved classes never leave their owner, and the ledger stays clean (a
// join is graceful: no aborts, no retries, no failures).
func TestClusterJoinMovesOnlyPredictedKeys(t *testing.T) {
	const joinAt = 100 * time.Millisecond
	sc := clusterScenario(2, 2000, 11)
	sc.Cluster.Events = []workload.MemberEvent{
		{Kind: workload.JoinEvent, Shard: 2, At: workload.Duration(joinAt)},
	}
	old := initialRing(sc)
	grown := old.With(workload.ShardName(2))
	moved := ring.Moved(old, grown)
	// Which classes the join re-homes is the ring's choice: grow the mix
	// until the diff moves one, so the joiner has traffic to take.
	for len(sc.Mix) < 8 && len(movedClasses(moved, len(sc.Mix))) == 0 {
		sc.Mix = append(sc.Mix, workload.JobClass{
			Name: fmt.Sprintf("x%d", len(sc.Mix)), Weight: 1, Profile: sc.Mix[0].Profile,
		})
	}
	if len(movedClasses(moved, len(sc.Mix))) == 0 {
		t.Fatalf("precondition: joining shard 2 re-homes none of %d classes — the test would check nothing", len(sc.Mix))
	}

	var log bytes.Buffer
	r, err := Simulate(sc, Options{EventLog: &log})
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 2000 || r.Failed != 0 || r.Retries != 0 {
		t.Fatalf("join is graceful: want 2000 clean completions, got jobs=%d failed=%d retries=%d",
			r.Jobs, r.Failed, r.Retries)
	}
	if len(r.Shards) != 3 {
		t.Fatalf("result carries %d shard entries, want 3 (2 initial + joiner)", len(r.Shards))
	}
	if !strings.Contains(log.String(), " join shard=2") {
		t.Fatal("event log missing the join")
	}

	before, after := shardJobEvents(t, log.String(), joinAt)
	if before[2] != 0 {
		t.Errorf("%d job events on the joiner before its join", before[2])
	}
	if after[2] == 0 {
		t.Error("joiner took no traffic after joining")
	}

	// Per-class placement must match the ring diff exactly.
	for class := range sc.Mix {
		key := workload.ClassKey(class)
		owner := old.Owner(key)
		predicted := ring.Covers(moved, ring.Hash(key))
		for x, st := range r.Shards {
			n := 0
			if st.ClassSojourn != nil {
				n = st.ClassSojourn[class].N
			}
			switch {
			case x == owner:
				if n == 0 {
					t.Errorf("class %d absent from its pre-join owner %d", class, owner)
				}
			case x == 2 && predicted:
				if n == 0 {
					t.Errorf("class %d predicted to move but never completed on the joiner", class)
				}
			default:
				if n != 0 {
					t.Errorf("class %d completed %d jobs on shard %d against the ring prediction", class, n, x)
				}
			}
		}
	}
}

// TestClusterDrainGraceful: a planned drain re-routes the victim's queued
// work and future arrivals to the survivors without consuming a single
// retry — the explicit contrast with shardDown's abort semantics — and no
// job starts on the drained shard after the event.
func TestClusterDrainGraceful(t *testing.T) {
	const drainAt = 100 * time.Millisecond
	sc := clusterScenario(3, 2000, 17)
	full := initialRing(sc)
	victim := full.Owner(workload.ClassKey(0)) // loaded: home to class 0
	rest := full.Without(victim)
	moved := ring.Moved(full, rest)
	sc.Cluster.Events = []workload.MemberEvent{
		{Kind: workload.DrainEvent, Shard: victim, At: workload.Duration(drainAt)},
	}

	var log bytes.Buffer
	r, err := Simulate(sc, Options{EventLog: &log})
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 2000 || r.Failed != 0 || r.Retries != 0 {
		t.Fatalf("drain is graceful: want 2000 clean completions, got jobs=%d failed=%d retries=%d",
			r.Jobs, r.Failed, r.Retries)
	}
	if strings.Contains(log.String(), " abort ") {
		t.Error("a planned drain aborted in-flight work")
	}
	if !strings.Contains(log.String(), fmt.Sprintf(" drain shard=%d", victim)) {
		t.Fatal("event log missing the drain")
	}
	// The drained shard carried work before the event and only winds down
	// after: in-flight jobs may still release/complete, but nothing new
	// starts there.
	before, _ := shardJobEvents(t, log.String(), drainAt)
	if before[victim] == 0 {
		t.Fatalf("shard %d idle before its drain — the scenario never loaded it", victim)
	}
	for _, line := range strings.Split(log.String(), "\n") {
		if !strings.Contains(line, " start job=") || !strings.Contains(line, fmt.Sprintf("shard=%d", victim)) {
			continue
		}
		at, _ := strconv.ParseInt(strings.Fields(line)[0], 10, 64)
		if time.Duration(at) >= drainAt {
			t.Fatalf("job started on drained shard after the event: %q", line)
		}
	}
	// Survivors inherit the victim's classes per the ring diff.
	for _, class := range movedClasses(moved, len(sc.Mix)) {
		name := rest.Lookup(workload.ClassKey(class))
		idx := -1
		for x := 0; x < 3; x++ {
			if x != victim && workload.ShardName(x) == name {
				idx = x
			}
		}
		if idx < 0 {
			t.Fatalf("class %d post-drain owner %q is not a survivor", class, name)
		}
		st := r.Shards[idx]
		if st.ClassSojourn == nil || st.ClassSojourn[class].N == 0 {
			t.Errorf("class %d never completed on its post-drain owner %d", class, idx)
		}
	}
}

// TestClusterMembershipDeterministic extends the byte-identical event-log
// pin to elastic membership: a schedule with a join and a drain replays the
// same log at any GOMAXPROCS.
func TestClusterMembershipDeterministic(t *testing.T) {
	sc := clusterScenario(2, 1500, 23)
	sc.Cluster.StealThreshold = 4
	sc.Cluster.Events = []workload.MemberEvent{
		{Kind: workload.JoinEvent, Shard: 2, At: workload.Duration(80 * time.Millisecond)},
		{Kind: workload.DrainEvent, Shard: 0, At: workload.Duration(200 * time.Millisecond)},
	}

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
	if !strings.Contains(baseline.log, " join shard=2") || !strings.Contains(baseline.log, " drain shard=0") {
		t.Fatal("baseline log missing the membership schedule")
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
