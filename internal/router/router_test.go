package router

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/ring"
	"github.com/splitexec/splitexec/internal/service"
	"github.com/splitexec/splitexec/internal/workload"
)

// startShards boots n real service instances on loopback and returns their
// addresses alongside the handles (for shard-kill tests).
func startShards(t *testing.T, n int) ([]string, []*service.Service) {
	t.Helper()
	addrs := make([]string, n)
	svcs := make([]*service.Service, n)
	for i := 0; i < n; i++ {
		svc, err := service.New(service.Options{Workers: 2, Fleet: 2, QueueDepth: 256})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr.String()
		svcs[i] = svc
		t.Cleanup(func() {
			svc.CloseListener()
			svc.Drain()
		})
	}
	return addrs, svcs
}

// clusterRing is the route table's ring over n routable shards — the one
// the DES routes with, which the router must agree with. Ring member i is
// shard i.
func clusterRing(n int) *ring.Ring {
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i
	}
	return workload.NewRouteTable(slots, 0).Ring()
}

func profileReq(class int) service.SolveRequest {
	req := service.EncodeProfile(arch.JobProfile{
		PreProcess:  50 * time.Microsecond,
		QPUService:  50 * time.Microsecond,
		PostProcess: 20 * time.Microsecond,
	})
	req.Class = class
	return req
}

// TestRouterClassAffinity: without stealing, every class lands on exactly
// the shard the scenario-side ring (workload.ClusterSpec) predicts — the
// live fabric and the DES agree on ownership.
func TestRouterClassAffinity(t *testing.T) {
	addrs, _ := startShards(t, 3)
	rt, err := New(Options{Shards: addrs, PingEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	const perClass = 20
	for class := 0; class < 3; class++ {
		for i := 0; i < perClass; i++ {
			if _, err := rt.Submit(profileReq(class)); err != nil {
				t.Fatalf("class %d job %d: %v", class, i, err)
			}
		}
	}
	st := rt.Stats()
	if st.Stolen != 0 {
		t.Errorf("stealing disabled but %d jobs stolen", st.Stolen)
	}
	// Predict ownership with the scenario-side ring the DES uses.
	rg := clusterRing(3)
	want := make([]int64, 3)
	for class := 0; class < 3; class++ {
		want[rg.Owner(workload.ClassKey(class))] += perClass
	}
	for i := range want {
		if st.Dispatched[i] != want[i] {
			t.Errorf("shard %d dispatched %d, ring predicts %d", i, st.Dispatched[i], want[i])
		}
	}
}

// TestRouterQUBOAffinity: identical problems (same canonical graph hash)
// always land on one shard, keeping its embedding cache hot; a structurally
// different problem may land elsewhere but must also stay pinned.
func TestRouterQUBOAffinity(t *testing.T) {
	addrs, _ := startShards(t, 4)
	rt, err := New(Options{Shards: addrs, PingEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	ring := qubo.NewQUBO(5)
	for i := 0; i < 5; i++ {
		ring.Set(i, (i+1)%5, 1)
		ring.Set(i, i, -1)
	}
	req := service.EncodeQUBO(ring)
	for i := 0; i < 10; i++ {
		resp, err := rt.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if !resp.OK {
			t.Fatalf("submit %d refused: %s", i, resp.Error)
		}
	}
	st := rt.Stats()
	owners := 0
	for i, n := range st.Dispatched {
		if n > 0 {
			owners++
			if n != 10 {
				t.Errorf("shard %d saw %d of 10 identical problems", i, n)
			}
		}
	}
	if owners != 1 {
		t.Errorf("identical problems spread over %d shards, want 1", owners)
	}
}

// TestRouterRejectsMalformed: a bad QUBO frame is refused at the routing
// tier without consuming shard capacity.
func TestRouterRejectsMalformed(t *testing.T) {
	addrs, _ := startShards(t, 2)
	rt, err := New(Options{Shards: addrs, PingEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	resp := rt.handle(service.SolveRequest{Dim: -3})
	if resp.OK || resp.Error == "" {
		t.Fatalf("malformed request accepted: %+v", resp)
	}
	st := rt.Stats()
	for i, n := range st.Dispatched {
		if n != 0 {
			t.Errorf("malformed request reached shard %d (%d dispatches)", i, n)
		}
	}
}

// TestRouterStealing: with a tight threshold and slow shards, backlogged
// home queues divert work to shallower ones.
func TestRouterStealing(t *testing.T) {
	addrs, _ := startShards(t, 3)
	rt, err := New(Options{
		Shards:          addrs,
		ClientsPerShard: 1, // one lane per shard so backlogs form
		QueueDepth:      64,
		StealThreshold:  1,
		PingEvery:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	// Every job in one class: all home to a single shard, so any backlog
	// must overflow through the steal rule.
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Submit(profileReq(0)); err != nil {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d submits failed", n)
	}
	st := rt.Stats()
	if st.Stolen == 0 {
		t.Error("no jobs stolen despite threshold 1 and a single-class storm")
	}
	busy := 0
	for _, n := range st.Dispatched {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("work reached only %d shards", busy)
	}
}

// TestRouterHealthRoutesAroundDeadShard: the ping loop must evict a dead
// shard and the ring must re-home its keys to the survivors.
func TestRouterHealthRoutesAroundDeadShard(t *testing.T) {
	addrs, svcs := startShards(t, 3)
	rt, err := New(Options{
		Shards:        addrs,
		PingEvery:     10 * time.Millisecond,
		PingTimeout:   200 * time.Millisecond,
		PingFailLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	// Kill the shard that owns class 0, so its jobs must re-home.
	const victimClass = 0
	victim := clusterRing(3).Owner(workload.ClassKey(victimClass))
	svcs[victim].CloseListener()
	svcs[victim].Drain()

	deadline := time.Now().Add(5 * time.Second)
	for rt.Up()[victim] {
		if time.Now().After(deadline) {
			t.Fatal("health loop never marked the dead shard down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		if _, err := rt.Submit(profileReq(victimClass)); err != nil {
			t.Fatalf("job %d for the dead shard's class failed: %v", i, err)
		}
	}
	st := rt.Stats()
	survivors := int64(0)
	for i, n := range st.Dispatched {
		if i != victim {
			survivors += n
		}
	}
	if survivors < 10 {
		t.Errorf("survivors served %d of 10 re-homed jobs", survivors)
	}
}

// TestRouterFailShardRedispatch is the acceptance invariant on the live
// fabric: killing a shard with jobs in flight loses nothing — every submit
// completes on a survivor, with the re-dispatch path demonstrably taken.
func TestRouterFailShardRedispatch(t *testing.T) {
	addrs, svcs := startShards(t, 3)
	rt, err := New(Options{
		Shards:     addrs,
		QueueDepth: 16,
		MaxRetries: 5,
		Backoff:    time.Millisecond,
		PingEvery:  -1, // deterministic kill via FailShard, not the prober
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	slow := service.EncodeProfile(arch.JobProfile{
		PreProcess: 500 * time.Microsecond,
		QPUService: 2 * time.Millisecond,
	})

	const jobs = 120
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := slow
			req.Class = i % 3 // spread over all shards
			_, errs[i] = rt.Submit(req)
		}(i)
	}

	// Let jobs reach the shards, then kill one that is carrying work.
	time.Sleep(10 * time.Millisecond)
	victim := 0
	for i, n := range rt.Stats().Dispatched {
		if n > 0 {
			victim = i
			break
		}
	}
	svcs[victim].CloseListener()
	if err := rt.FailShard(victim); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d lost to the shard kill: %v", i, err)
		}
	}
	st := rt.Stats()
	if st.Redispatched == 0 && st.Requeued == 0 {
		t.Error("shard kill triggered no re-dispatch — the fault never bit")
	}
	if st.Failed != 0 {
		t.Errorf("%d jobs exhausted the re-dispatch budget", st.Failed)
	}
	if up := rt.Up(); up[victim] {
		t.Error("failed shard still reported up")
	}
}

// TestRouterRetryAvoidsUndetectedDeadShard: a backend that is gone before
// anything marks its shard down must not swallow jobs. Each job's dial is
// refused at the dead home; its retry must route around that shard rather
// than re-pick it until the re-dispatch budget runs out.
func TestRouterRetryAvoidsUndetectedDeadShard(t *testing.T) {
	addrs, svcs := startShards(t, 3)
	rt, err := New(Options{
		Shards:     addrs,
		MaxRetries: 5,
		Backoff:    time.Millisecond,
		PingEvery:  -1, // nothing detects the dead backend
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	home := clusterRing(3).Owner(workload.ClassKey(0))
	svcs[home].CloseListener()
	const jobs = 30
	for i := 0; i < jobs; i++ {
		if _, err := rt.Submit(profileReq(0)); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	st := rt.Stats()
	if st.Failed != 0 {
		t.Errorf("%d jobs exhausted the re-dispatch budget", st.Failed)
	}
	if st.Dispatched[home] != jobs || st.Redispatched != jobs {
		t.Errorf("dispatched %v with %d re-dispatches: want each job once at the dead home %d, then once elsewhere",
			st.Dispatched, st.Redispatched, home)
	}
	if st.Stolen != 0 {
		t.Errorf("%d retries counted as steals; stealing is off", st.Stolen)
	}
	if !rt.Up()[home] {
		t.Error("the dead home was marked down; the test needs it undetected")
	}
}

// TestRouterRestoreShard: a shard downed by FailShard rejoins on
// RestoreShard and receives traffic again.
func TestRouterRestoreShard(t *testing.T) {
	addrs, _ := startShards(t, 2)
	rt, err := New(Options{Shards: addrs, PingEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	if err := rt.FailShard(0); err != nil {
		t.Fatal(err)
	}
	if err := rt.FailShard(1); err == nil {
		// Both down: dispatch must refuse rather than hang.
		if _, err := rt.Submit(profileReq(0)); err == nil {
			t.Error("submit with every shard down succeeded")
		}
	}
	if err := rt.RestoreShard(0); err != nil {
		t.Fatal(err)
	}
	if err := rt.RestoreShard(1); err != nil {
		t.Fatal(err)
	}
	for class := 0; class < 4; class++ {
		if _, err := rt.Submit(profileReq(class)); err != nil {
			t.Fatalf("post-restore submit failed: %v", err)
		}
	}
	if up := rt.Up(); !up[0] || !up[1] {
		t.Errorf("membership after restore: %v", up)
	}
}

// TestRouterRemoveShardDrains: RemoveShard permanently rebalances — queued
// work re-homes, nothing is lost, and the shard stays out even with the
// health loop running against its (still live) backend.
func TestRouterRemoveShardDrains(t *testing.T) {
	addrs, _ := startShards(t, 3)
	rt, err := New(Options{
		Shards:        addrs,
		QueueDepth:    16,
		PingEvery:     10 * time.Millisecond,
		PingTimeout:   200 * time.Millisecond,
		PingFailLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	const jobs = 90
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := rt.Submit(profileReq(i % 3)); err != nil {
				failed.Add(1)
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	if err := rt.RemoveShard(2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d jobs lost across the drain", n)
	}
	// The backend is alive and answering pings, but a removed shard must
	// not rejoin.
	time.Sleep(50 * time.Millisecond)
	if rt.Up()[2] {
		t.Error("removed shard re-admitted by the health loop")
	}
	before := rt.Stats().Dispatched[2]
	for class := 0; class < 6; class++ {
		if _, err := rt.Submit(profileReq(class)); err != nil {
			t.Fatalf("post-remove submit failed: %v", err)
		}
	}
	if after := rt.Stats().Dispatched[2]; after != before {
		t.Errorf("removed shard received %d new dispatches", after-before)
	}
}

// TestRouterWireRoundTrip: the router speaks the full wire protocol — a
// stock service.Client dials it, solves a QUBO end-to-end through a backing
// shard, and health-pings it.
func TestRouterWireRoundTrip(t *testing.T) {
	addrs, _ := startShards(t, 2)
	rt, err := New(Options{Shards: addrs, PingEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	front, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := service.Dial(front.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping through the router: %v", err)
	}
	q := qubo.NewQUBO(3)
	q.Set(0, 0, -1)
	q.Set(1, 1, 2)
	q.Set(0, 2, -2)
	resp, err := c.Solve(q)
	if err != nil {
		t.Fatalf("solve through the router: %v", err)
	}
	if !resp.OK || len(resp.Binary) != 3 {
		t.Fatalf("bad solve response: %+v", resp)
	}
	// A second solve of the same problem reuses the same shard (and its
	// embedding cache).
	if _, err := c.Solve(q); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Dispatched[0]+st.Dispatched[1] != 2 {
		t.Errorf("dispatched %v, want 2 total", st.Dispatched)
	}
	owners := 0
	for _, n := range st.Dispatched {
		if n > 0 {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("repeat solves of one problem spread over %d shards", owners)
	}
}
